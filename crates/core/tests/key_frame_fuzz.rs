//! Structure-aware fuzzing of the key frames a `ModelCache` keeps at
//! rest: `store_to_dir` writes the honest public, relinearization and
//! Galois frames of a model on the smallest legal ring; each case mutates
//! one of them on disk — a shape word (key count, exponent, digit count,
//! degree, limb count, domain), a malformed Galois exponent, a header
//! byte, a residue word, a cut, a pad or a flipped checksum bit — reseals
//! half of the mutants so the change gets past the checksum to the
//! decoder and the range checks, and then runs `load_from_dir` →
//! `verify`.
//!
//! Every mutant must come back as an `Err` — a checksum mismatch when the
//! checksum no longer matches — or verify to keys that are not the honest
//! ones (their re-encoded frame differs) and that encrypt without a
//! panic. A resealed malformed exponent must be refused. No case may
//! panic.

use fxhenn::ckks::wire::{
    encode_galois_keys_v2, encode_public_key_v2, encode_relin_key_v2, seal_checksummed_v2,
};
use fxhenn::ckks::{content_checksum, CkksContext, CkksParams, Encryptor, RotationSet};
use fxhenn::{ModelCache, VerifiedModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const MODEL: &str = "fuzz";
const SUFFIXES: [&str; 3] = ["public", "relin", "galois"];

fn params() -> CkksParams {
    CkksParams::new(64, 2, 30, 45).expect("the smallest legal ring")
}

/// An emptied directory for one test of this file in this process.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fxhenn-{test}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn frame_path(dir: &Path, suffix: &str) -> PathBuf {
    dir.join(format!("{MODEL}.{suffix}.fxk"))
}

/// Payload word `i` of a frame: index 0 is the word after the header.
fn word(frame: &[u8], i: usize) -> u64 {
    let at = 8 + 8 * i;
    u64::from_le_bytes(frame[at..at + 8].try_into().expect("8 bytes"))
}

/// The honest sealed frames, in `SUFFIXES` order.
fn honest() -> &'static [Vec<u8>; 3] {
    static HONEST: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    HONEST.get_or_init(|| {
        let mut cache = ModelCache::new();
        // Two keys at different levels: the Galois frame mixes shapes.
        let rotations: RotationSet = [(1, 2), (2, 1)].into_iter().collect();
        cache.generate(MODEL, params(), &rotations, 3);
        let dir = scratch_dir("key-frame-fuzz-honest");
        assert!(cache.store_to_dir(MODEL, &dir).expect("store"));
        let frames = SUFFIXES.map(|s| std::fs::read(frame_path(&dir, s)).expect("read frame"));
        std::fs::remove_dir_all(&dir).ok();
        frames
    })
}

/// Payload word indices of the Galois frame's two exponents. The frame
/// holds a key count, then per key its exponent and four shape words
/// (digits, degree, limbs, domain) ahead of its residues.
fn exponent_words() -> [usize; 2] {
    let g = &honest()[2];
    let residues = word(g, 2) * 2 * word(g, 3) * word(g, 4);
    [1, 6 + residues as usize]
}

/// Payload word indices of frame `frame`'s shape words, and of its first
/// residue word.
fn layout(frame: usize) -> (Vec<usize>, usize) {
    match frame {
        0 => (vec![0, 1, 2], 3),
        1 => (vec![0, 1, 2, 3], 4),
        _ => {
            let [_, second] = exponent_words();
            let mut words: Vec<usize> = (0..6).collect();
            words.extend(second..second + 5);
            (words, 6)
        }
    }
}

/// One change to one frame's payload (the frame less its checksum).
#[derive(Debug, Clone)]
enum Mutation {
    /// Shape word `.0` (an index into the frame's shape words) set to `.1`.
    ShapeWord(usize, u64),
    /// The Galois exponent of key `.0` set to the malformed value `.1`
    /// picks: even, `2N`, far above `2N`, or the other key's exponent.
    Exponent(usize, usize),
    /// Header byte `.0` (magic, version, tag, reserved) set to `.1`.
    HeaderByte(usize, u8),
    /// Body word `.0` set to the value `.1` picks: a small reduced value,
    /// `q₀ − 1`, `q₀`, or a word above every prime.
    Residue(usize, usize),
    /// The payload cut by `.0` bytes.
    Truncate(usize),
    /// `.0` zero bytes appended to the payload.
    Pad(usize),
    /// Bit `.0` of the checksum word flipped after (re)sealing.
    FlipChecksum(u32),
}

#[derive(Debug, Clone)]
struct Case {
    frame: usize,
    mutation: Mutation,
    reseal: bool,
}

fn case() -> impl Strategy<Value = Case> {
    let value = prop::sample::select(vec![
        0u64, 1, 2, 3, 4, 5, 32, 63, 64, 65, 128, 4096, 1 << 20, (1 << 20) + 1, u64::MAX,
    ]);
    (0usize..3, 0usize..7, 0usize..4096, value, any::<u8>(), any::<bool>()).prop_map(
        |(frame, kind, at, value, byte, reseal)| {
            let mutation = match kind {
                0 => Mutation::ShapeWord(at, value),
                1 => Mutation::HeaderByte(at % 8, byte),
                2 => Mutation::Residue(at, usize::from(byte % 4)),
                3 => Mutation::Truncate(1 + at % 64),
                4 => Mutation::Pad(1 + at % 16),
                5 => Mutation::Exponent(at % 2, usize::from(byte % 4)),
                _ => Mutation::FlipChecksum((at % 64) as u32),
            };
            Case {
                // Only the Galois frame stores exponents.
                frame: if kind == 5 { 2 } else { frame },
                mutation,
                reseal,
            }
        },
    )
}

/// Sets payload word `i` to `value`, or to a neighbour when it already
/// holds it: every mutant changes the frame.
fn set_word(payload: &mut [u8], i: usize, value: u64) {
    let value = if word(payload, i) == value { value ^ 1 } else { value };
    payload[8 + 8 * i..16 + 8 * i].copy_from_slice(&value.to_le_bytes());
}

/// The honest frame `c.frame` with `c` applied.
fn mutate(c: &Case) -> Vec<u8> {
    let frame = &honest()[c.frame];
    let (payload, trailer) = frame.split_at(frame.len() - 8);
    let mut payload = payload.to_vec();
    let (shape, first_residue) = layout(c.frame);
    match c.mutation {
        Mutation::ShapeWord(i, value) => set_word(&mut payload, shape[i % shape.len()], value),
        Mutation::Exponent(key, pick) => {
            let words = exponent_words();
            let two_n = 2 * params().degree() as u64;
            let other = word(&payload, words[1 - key]);
            set_word(&mut payload, words[key], [2, two_n, 4096, other][pick]);
        }
        Mutation::HeaderByte(i, value) => {
            payload[i] = if payload[i] == value { value ^ 0x80 } else { value };
        }
        Mutation::Residue(i, pick) => {
            let q0 = CkksContext::new(params()).coeff_moduli()[0];
            let words = payload.len() / 8 - 1;
            let target = first_residue + i % (words - first_residue);
            set_word(&mut payload, target, [7, q0 - 1, q0, u64::MAX][pick]);
        }
        Mutation::Truncate(cut) => payload.truncate(payload.len() - cut),
        Mutation::Pad(extra) => payload.resize(payload.len() + extra, 0),
        Mutation::FlipChecksum(_) => {}
    }
    let mut sum = if c.reseal {
        content_checksum(&payload)
    } else {
        u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"))
    };
    if let Mutation::FlipChecksum(bit) = c.mutation {
        sum ^= 1 << bit;
    }
    payload.extend_from_slice(&sum.to_le_bytes());
    payload
}

/// Writes the honest frames to `dir` with frame `frame` replaced by
/// `bytes`, and verifies what `load_from_dir` reads back.
fn verify_with(dir: &Path, frame: usize, bytes: &[u8]) -> Result<VerifiedModel, String> {
    std::fs::create_dir_all(dir).expect("scratch dir");
    for (i, suffix) in SUFFIXES.iter().enumerate() {
        let content = if i == frame { bytes } else { &honest()[i] };
        std::fs::write(frame_path(dir, suffix), content).expect("write frame");
    }
    let mut cache = ModelCache::new();
    cache.load_from_dir(MODEL, params(), dir).expect("load");
    cache.verify(MODEL)
}

/// The sealed frame `frame` re-encoded from verified keys.
fn reencoded(v: &VerifiedModel, frame: usize) -> Vec<u8> {
    let payload = match frame {
        0 => encode_public_key_v2(&v.public_key),
        1 => encode_relin_key_v2(&v.relin_key),
        _ => encode_galois_keys_v2(&v.galois_keys),
    };
    seal_checksummed_v2(payload).as_bytes().to_vec()
}

#[test]
fn the_honest_frames_verify_and_reencode_bit_identically() {
    let dir = scratch_dir("key-frame-fuzz-clean");
    let verified = verify_with(&dir, 0, &honest()[0]).expect("honest frames verify");
    for (frame, honest) in honest().iter().enumerate() {
        assert_eq!(&reencoded(&verified, frame), honest, "{}", SUFFIXES[frame]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resealed_public_keys_out_of_range_or_of_another_degree_are_refused() {
    // A public frame that still carries a valid checksum but whose key
    // does not belong to the model's ring must fail verification: an
    // unreduced residue would run modular arithmetic on a word >= q, and
    // a key of another degree makes encryption panic.
    let dir = scratch_dir("key-frame-fuzz-public");
    let q0_residue = mutate(&Case {
        frame: 0,
        mutation: Mutation::Residue(0, 2),
        reseal: true,
    });
    let err = verify_with(&dir, 0, &q0_residue).err().expect("a q0 residue is refused");
    assert!(err.contains("public key range check"), "{err}");

    let mut wider = ModelCache::new();
    let wide_params = CkksParams::new(128, 2, 30, 45).expect("valid");
    wider.generate(MODEL, wide_params, &RotationSet::at_level([1], 2), 3);
    let wide_dir = scratch_dir("key-frame-fuzz-wide");
    assert!(wider.store_to_dir(MODEL, &wide_dir).expect("store"));
    let wide_public = std::fs::read(frame_path(&wide_dir, "public")).expect("read");
    let err = verify_with(&dir, 0, &wide_public).err().expect("another degree is refused");
    assert!(err.contains("public key range check"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&wide_dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn every_mutated_key_frame_is_refused_or_verifies_to_other_keys(c in case()) {
        let dir = scratch_dir("key-frame-fuzz-cases");
        let stale_checksum = !c.reseal || matches!(c.mutation, Mutation::FlipChecksum(_));
        match verify_with(&dir, c.frame, &mutate(&c)) {
            Err(err) => prop_assert!(
                !stale_checksum || err.contains("checksum mismatch"),
                "{c:?} failed on something other than its checksum: {err}"
            ),
            Ok(_) if stale_checksum => prop_assert!(false, "{c:?} verified a stale checksum"),
            Ok(_) if matches!(c.mutation, Mutation::Exponent(..)) => {
                prop_assert!(false, "{c:?} verified a malformed exponent")
            }
            Ok(verified) => {
                prop_assert!(
                    reencoded(&verified, c.frame) != honest()[c.frame],
                    "{c:?} verified to the honest keys"
                );
                // Keys that verify are usable: encryption must not panic.
                let ctx = CkksContext::new(params());
                let mut enc = Encryptor::new(&ctx, verified.public_key, StdRng::seed_from_u64(1));
                let _ = enc.encrypt(&[0.5, -0.25]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
