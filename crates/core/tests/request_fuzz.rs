//! Structure-aware fuzzing of a framed multi-ciphertext request: the
//! shape of FxHENN-MNIST's optimized input (one group of 7 tap-block
//! ciphertexts), on the smallest legal ring so hundreds of mutants run
//! in well under a second of a debug build. Every mutant — a changed length prefix, header
//! byte, shape count, limb count or level word, a residue out of range,
//! a cut at or near any frame boundary — must come back from
//! `FrameCursor` + `ingest_ciphertext` as a typed refusal: no panic, and
//! nothing allocated from a count the stream has not backed.

use fxhenn::ckks::wire::{encode_ciphertext_v2, AlignedBytes, CiphertextView};
use fxhenn::ckks::{CkksContext, CkksParams, Encryptor, KeyGenerator};
use fxhenn::{ingest_ciphertext, push_frame, FrameCursor, FrameError, IngestError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Input ciphertexts in the request.
const CTS: usize = 7;

/// Why a request was refused.
#[derive(Debug)]
#[allow(dead_code)] // Read through `Debug` in failure messages.
enum Refused {
    Frame(FrameError),
    Ingest(IngestError),
    Shape(&'static str),
}

/// Reads a request: a shape frame of little-endian words (the group
/// count, then each group's ciphertext count), one v2 ciphertext frame
/// per promised ciphertext, and nothing after. Counts drive loops, never
/// allocations: a ciphertext is kept only once its frame has ingested.
fn read_request<'a>(
    ctx: &CkksContext,
    bytes: &'a [u8],
) -> Result<Vec<Vec<CiphertextView<'a>>>, Refused> {
    let mut frames = FrameCursor::new(bytes);
    let mut next = || match frames.next() {
        Some(frame) => frame.map_err(Refused::Frame),
        None => Err(Refused::Shape("request stream ended early")),
    };
    let shape = next()?;
    if shape.len() % 8 != 0 {
        return Err(Refused::Shape("shape frame is not whole words"));
    }
    let mut counts = shape
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    let groups = counts
        .next()
        .ok_or(Refused::Shape("shape frame is empty"))?;
    let mut out = Vec::new();
    for _ in 0..groups {
        let len = counts
            .next()
            .ok_or(Refused::Shape("shape frame is truncated"))?;
        let mut group = Vec::new();
        for _ in 0..len {
            group.push(ingest_ciphertext(ctx, next()?).map_err(Refused::Ingest)?);
        }
        out.push(group);
    }
    if counts.next().is_some() {
        return Err(Refused::Shape("shape frame has trailing words"));
    }
    match frames.next() {
        None => Ok(out),
        Some(_) => Err(Refused::Shape("frames after the promised ciphertexts")),
    }
}

/// The honest request and the byte offset of every frame in it.
struct Request {
    ctx: CkksContext,
    bytes: AlignedBytes,
    frame_starts: Vec<usize>,
}

fn request() -> &'static Request {
    static REQUEST: OnceLock<Request> = OnceLock::new();
    REQUEST.get_or_init(|| {
        let ctx =
            CkksContext::new(CkksParams::new(64, 2, 30, 45).expect("the smallest legal ring"));
        let pk = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1)).public_key();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(2));
        let mut bytes = AlignedBytes::new();
        let mut frame_starts = vec![0];
        let shape: Vec<u8> = [1u64, CTS as u64]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        push_frame(&mut bytes, &shape);
        for tap in 0..CTS {
            frame_starts.push(bytes.len());
            let ct = enc.encrypt(&[0.25 * tap as f64, -0.5]);
            push_frame(&mut bytes, encode_ciphertext_v2(&ct).as_bytes());
        }
        Request {
            ctx,
            bytes,
            frame_starts,
        }
    })
}

/// `bytes` copied into a word-aligned buffer, as a receive path holds it.
fn aligned(bytes: &[u8]) -> AlignedBytes {
    let mut out = AlignedBytes::with_byte_capacity(bytes.len());
    out.extend_from_slice(bytes);
    out
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn set_word(bytes: &mut [u8], at: usize, value: u64) {
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// `value`, or a different one when it equals `old`: every mutant
/// changes the stream.
fn other_than(old: u64, value: u64) -> u64 {
    if value == old {
        value ^ 1
    } else {
        value
    }
}

/// One structural mutation of the honest request.
#[derive(Debug, Clone)]
enum Mutation {
    /// Frame `.0`'s length prefix set to `.1`.
    Length(usize, u64),
    /// Byte `.1` of ciphertext frame `.0`'s v2 header (magic, version,
    /// tag, and the two reserved padding bytes) set to `.2`.
    HeaderByte(usize, usize, u8),
    /// Ciphertext frame `.0`'s header word `.1` — polynomial count,
    /// degree, level, domain — set to `.2`.
    HeaderWord(usize, usize, u64),
    /// Word `.0` of the shape frame (group count, ciphertext count) set
    /// to `.1`.
    Shape(usize, u64),
    /// Residue word `.1` of ciphertext frame `.0` set above every prime.
    Residue(usize, usize),
    /// The stream cut `.1` bytes after the start of frame `.0` (0: at
    /// the boundary), or anywhere when past the end.
    Cut(usize, usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let value = prop::sample::select(vec![
        0u64,
        1,
        2,
        3,
        7,
        8,
        9,
        63,
        64,
        65,
        2096,
        1 << 20,
        1 << 30,
        (1 << 30) + 1,
        u64::MAX,
    ]);
    (0usize..6, 0usize..=CTS, 0usize..512, value, any::<u8>()).prop_map(
        |(kind, frame, at, value, byte)| {
            let ct = 1 + frame % CTS;
            match kind {
                0 => Mutation::Length(frame, value),
                1 => Mutation::HeaderByte(ct, at % 8, byte),
                2 => Mutation::HeaderWord(ct, 1 + at % 4, value),
                3 => Mutation::Shape(at % 2, value),
                4 => Mutation::Residue(ct, at),
                _ => Mutation::Cut(frame, at % 24),
            }
        },
    )
}

/// The honest request with `m` applied.
fn mutate(req: &Request, m: &Mutation) -> AlignedBytes {
    let mut bytes = req.bytes.as_bytes().to_vec();
    // A ciphertext frame's payload: the 8-byte v2 header, the scale,
    // then the header words, then the residues.
    let payload = |ct: usize| req.frame_starts[ct] + 8;
    match *m {
        Mutation::Length(frame, value) => {
            let at = req.frame_starts[frame];
            let old = word(&bytes, at);
            set_word(&mut bytes, at, other_than(old, value));
        }
        Mutation::HeaderByte(ct, i, value) => {
            let at = payload(ct) + i;
            bytes[at] = if bytes[at] == value {
                value ^ 0x80
            } else {
                value
            };
        }
        Mutation::HeaderWord(ct, i, value) => {
            let at = payload(ct) + 8 + 8 * i;
            let old = word(&bytes, at);
            set_word(&mut bytes, at, other_than(old, value));
        }
        Mutation::Shape(i, value) => {
            let at = 8 + 8 * i;
            let old = word(&bytes, at);
            set_word(&mut bytes, at, other_than(old, value));
        }
        Mutation::Residue(ct, i) => {
            let residues = payload(ct) + 8 + 8 * 5;
            let count =
                (req.frame_starts.get(ct + 1).copied().unwrap_or(bytes.len()) - residues) / 8;
            set_word(&mut bytes, residues + 8 * (i % count), u64::MAX);
        }
        Mutation::Cut(frame, offset) => {
            let end = req
                .frame_starts
                .get(frame)
                .map_or(bytes.len() - 1, |&s| s + offset);
            bytes.truncate(end.min(bytes.len() - 1));
        }
    }
    aligned(&bytes)
}

#[test]
fn the_honest_request_ingests_as_one_group_of_seven() {
    let req = request();
    let groups = read_request(&req.ctx, req.bytes.as_bytes()).expect("an honest request");
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    assert_eq!(sizes, [CTS]);
}

#[test]
fn a_cut_at_or_near_any_frame_boundary_is_refused() {
    let req = request();
    let full = req.bytes.as_bytes();
    let boundaries = req.frame_starts.iter().copied().chain([full.len()]);
    for boundary in boundaries {
        for end in boundary.saturating_sub(9)..(boundary + 10).min(full.len()) {
            let cut = aligned(&full[..end]);
            let refused = read_request(&req.ctx, cut.as_bytes());
            assert!(
                refused.is_err(),
                "a request cut at byte {end} of {} was accepted",
                full.len()
            );
        }
    }
}

#[test]
fn absurd_counts_allocate_nothing_and_are_refused() {
    // Counts the stream cannot back: the reader runs out of frames or
    // of shape words long before any count is reached.
    let req = request();
    for (i, count) in [(0, u64::MAX), (1, u64::MAX), (0, 1 << 40), (1, 1 << 40)] {
        let bytes = mutate(req, &Mutation::Shape(i, count));
        let refused =
            read_request(&req.ctx, bytes.as_bytes()).expect_err("more than the stream holds");
        assert!(matches!(refused, Refused::Shape(_)), "{refused:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_structural_mutant_is_refused_typed(m in mutation()) {
        let req = request();
        let bytes = mutate(req, &m);
        let read = read_request(&req.ctx, bytes.as_bytes());
        prop_assert!(read.is_err(), "{m:?} was accepted");
    }
}
