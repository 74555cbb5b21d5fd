//! Adversarial / failure-injection tests: the scheme must degrade the
//! way lattice cryptography is supposed to — wrong keys and tampered
//! ciphertexts yield garbage, never silently-plausible plaintexts, and
//! malformed wire bytes are rejected without panicking.

use fxhenn_ckks::wire::{decode_ciphertext_v2, encode_ciphertext_v2};
use fxhenn_ckks::{CkksContext, CkksParams, Decryptor, Encryptor, Evaluator, KeyGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ctx() -> CkksContext {
    CkksContext::new(CkksParams::insecure_toy(3))
}

/// Byte offset of a ciphertext frame's first residue word: the 8-byte
/// header, then the scale, size, degree, level and domain words.
const CT_RESIDUES: usize = 8 + 5 * 8;

/// A decryption is "garbage" when it misses every slot by a wide margin.
fn is_garbage(got: &[f64], expected: &[f64], magnitude: f64) -> bool {
    expected
        .iter()
        .zip(got)
        .all(|(&e, &g)| (e - g).abs() > magnitude)
}

#[test]
fn wrong_key_decrypts_to_garbage() {
    let ctx = ctx();
    let mut kg_a = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1));
    let pk_a = kg_a.public_key();
    let kg_b = KeyGenerator::new(&ctx, StdRng::seed_from_u64(2));
    let sk_b = kg_b.secret_key();

    let mut enc = Encryptor::new(&ctx, pk_a, StdRng::seed_from_u64(3));
    let values = [1.0, 2.0, 3.0, 4.0];
    let ct = enc.encrypt(&values);

    let wrong = Decryptor::new(&ctx, sk_b);
    let got = wrong.decrypt(&ct);
    assert!(
        is_garbage(&got[..4], &values, 100.0),
        "wrong-key decryption must not resemble the message: {:?}",
        &got[..4]
    );
}

#[test]
fn tampered_ciphertext_decrypts_to_garbage() {
    let ctx = ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(4));
    let pk = kg.public_key();
    let sk = kg.secret_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(5));
    let values = [5.0, -2.0, 1.5];
    let ct = enc.encrypt(&values);

    // Flip bits in the frame's residue words and decode again: every
    // residue word corrupted shifts the mask.
    let mut bytes = encode_ciphertext_v2(&ct).as_bytes().to_vec();
    for i in 0..256 {
        let idx = CT_RESIDUES + i * 64;
        bytes[idx] ^= 0xA5;
    }
    let tampered = decode_ciphertext_v2(&bytes)
        .expect("shape still valid")
        .to_owned_ciphertext();
    assert_ne!(tampered, ct);

    let dec = Decryptor::new(&ctx, sk);
    let got = dec.decrypt(&tampered);
    assert!(
        is_garbage(&got[..3], &values, 10.0),
        "tampering must destroy the plaintext: {:?}",
        &got[..3]
    );
}

#[test]
fn ciphertexts_from_different_contexts_are_incompatible_shapes() {
    // Contexts of different degree produce polynomials the other context's
    // operations reject loudly (degree assertions), rather than mixing.
    let small = CkksContext::new(CkksParams::insecure_toy(2));
    let large = CkksContext::new(CkksParams::new(2048, 2, 30, 45).expect("valid"));
    let mut kg_s = KeyGenerator::new(&small, StdRng::seed_from_u64(6));
    let pk_s = kg_s.public_key();
    let mut enc_s = Encryptor::new(&small, pk_s, StdRng::seed_from_u64(7));
    let ct_small = enc_s.encrypt(&[1.0]);

    let ev_large = Evaluator::new(&large);
    let pt = ev_large.encode_for_mul(&[1.0], 2).expect("encodable");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ev = Evaluator::new(&large);
        let _ = ev.mul_plain(&ct_small, &pt);
    }));
    assert!(result.is_err(), "cross-context operation must panic");
    drop(ev_large);
}

#[test]
fn randomized_encryptions_do_not_leak_equality() {
    // Encrypting the same message twice must produce ciphertexts whose
    // polynomials differ in (essentially) every coefficient.
    let ctx = ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(8));
    let pk = kg.public_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(9));
    let a = enc.encrypt(&[7.0; 16]);
    let b = enc.encrypt(&[7.0; 16]);
    let same = a
        .poly(0)
        .component(0)
        .iter()
        .zip(b.poly(0).component(0))
        .filter(|(x, y)| x == y)
        .count();
    assert!(
        same < 4,
        "{same} equal coefficients out of 1024 — randomness looks broken"
    );
}

#[test]
fn noise_overflow_destroys_the_message_rather_than_rounding_it() {
    // Squaring without rescaling blows the scale past Q: decryption must
    // come back wrong (not subtly biased), demonstrating the level
    // budget is real.
    let ctx = ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(10));
    let pk = kg.public_key();
    let sk = kg.secret_key();
    let rk = kg.relin_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(11));
    let dec = Decryptor::new(&ctx, sk);
    let mut ev = Evaluator::new(&ctx);

    let x = 3.0f64;
    let mut ct = enc.encrypt(&[x]);
    // Three squarings without any rescale: scale = Δ^8 = 2^240 >> Q (~90 bits).
    for _ in 0..3 {
        let sq = ev.square(&ct).unwrap();
        ct = ev.relinearize(&sq, &rk).unwrap();
    }
    let got = dec.decrypt(&ct);
    let expected = x.powi(8);
    assert!(
        (got[0] - expected).abs() > expected * 0.5,
        "scale overflow should destroy accuracy: got {} for {expected}",
        got[0]
    );
}

#[test]
fn decode_never_panics_on_fuzzable_inputs() {
    // A light fuzz: random byte strings and systematically corrupted
    // valid buffers must return Err, never panic.
    let ctx = ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(12));
    let pk = kg.public_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(13));
    let valid = encode_ciphertext_v2(&enc.encrypt(&[1.0])).as_bytes().to_vec();

    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(14);
    for len in [0usize, 1, 5, 6, 7, 8, 64, 1024] {
        let junk: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _ = decode_ciphertext_v2(&junk); // must not panic
    }
    // Corrupt the size, degree and level words specifically.
    for offset in [8 + 8, 8 + 2 * 8, 8 + 3 * 8] {
        let mut bad = valid.clone();
        bad[offset] = 0xFF;
        bad[offset + 1] = 0xFF;
        assert!(decode_ciphertext_v2(&bad).is_err(), "word at byte {offset}");
    }
}

#[test]
fn every_truncated_prefix_of_every_v2_blob_type_is_rejected() {
    // Exhaustive prefix fuzz: every strict prefix of every frame type
    // must return a DecodeError — never panic, never allocate unbounded
    // memory, never decode. Non-word-sized prefixes exercise the
    // body-alignment check, word-sized ones the exact-count checks.
    // Exhaustive scanning is O(bytes^2), so use the smallest legal ring
    // (N = 64, L = 2) to keep every frame in the low kilobytes.
    use fxhenn_ckks::wire::{
        decode_ciphertext_v2, decode_galois_keys_v2, decode_plaintext_v2,
        decode_public_key_v2, decode_relin_key_v2, encode_ciphertext_v2,
        encode_galois_keys_v2, encode_plaintext_v2, encode_public_key_v2,
        encode_relin_key_v2,
    };

    let ctx = CkksContext::new(CkksParams::new(64, 2, 30, 45).expect("tiny params"));
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(30));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&[1, 2]);
    // Keys cut to different levels: the frame carries one shape per key.
    let mixed = kg.galois_keys_at(&[(1, 1), (2, 2), (3, 1)].into_iter().collect());
    let mut enc = Encryptor::new(&ctx, pk.clone(), StdRng::seed_from_u64(31));
    let ct = enc.encrypt(&[1.0, -2.0]);
    let ev = Evaluator::new(&ctx);
    let pt = ev.encode_at(&[0.5, 0.25], 1024.0, 2).expect("encodable");

    fn check<T>(
        name: &str,
        blob: &[u8],
        decode: impl Fn(&[u8]) -> Result<T, fxhenn_ckks::DecodeError>,
    ) {
        for keep in 0..blob.len() {
            assert!(
                decode(&blob[..keep]).is_err(),
                "{name}: {keep}-byte prefix of a {}-byte v2 frame must not decode",
                blob.len()
            );
        }
        assert!(decode(blob).is_ok(), "{name}: the full v2 frame must decode");
    }

    check("ciphertext", encode_ciphertext_v2(&ct).as_bytes(), |b| {
        decode_ciphertext_v2(b).map(|v| v.to_owned_ciphertext())
    });
    check("plaintext", encode_plaintext_v2(&pt).as_bytes(), |b| {
        decode_plaintext_v2(b).map(|v| v.to_owned_plaintext())
    });
    check("public key", encode_public_key_v2(&pk).as_bytes(), |b| {
        decode_public_key_v2(b).map(|v| v.to_owned_public_key())
    });
    check("relin key", encode_relin_key_v2(&rk).as_bytes(), |b| {
        decode_relin_key_v2(b).map(|v| v.to_owned_relin_key())
    });
    check("galois keys", encode_galois_keys_v2(&gks).as_bytes(), |b| {
        decode_galois_keys_v2(b).map(|v| v.to_owned_galois_keys())
    });
    check("mixed-level galois keys", encode_galois_keys_v2(&mixed).as_bytes(), |b| {
        decode_galois_keys_v2(b).map(|v| v.to_owned_galois_keys())
    });
}

#[test]
fn mmapped_key_frames_reject_truncation_without_panicking() {
    // A checksummed relin-key frame on disk, loaded through the
    // MappedFrame path (mmap when the feature is on, aligned read
    // otherwise): the full file verifies, and every truncated copy is
    // rejected by the checksum/structure checks — never a panic, even
    // though the mapped bytes bypass the usual Vec bounds hygiene.
    use fxhenn_ckks::decode_relin_key_checksummed;
    use fxhenn_ckks::wire::{encode_relin_key_v2, seal_checksummed_v2, MappedFrame};

    let ctx = CkksContext::new(CkksParams::new(64, 2, 30, 45).expect("tiny params"));
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(40));
    kg.public_key();
    let rk = kg.relin_key();
    let sealed = seal_checksummed_v2(encode_relin_key_v2(&rk));

    let dir = std::env::temp_dir().join(format!("fxhenn-adv-mmap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("relin.fxk");
    std::fs::write(&path, sealed.as_bytes()).expect("write frame");

    let frame = MappedFrame::open(&path).expect("open full frame");
    let decoded = decode_relin_key_checksummed(frame.bytes()).expect("full frame verifies");
    assert_eq!(
        encode_relin_key_v2(&decoded).as_bytes(),
        encode_relin_key_v2(&rk).as_bytes(),
        "mapped decode must be bit-identical"
    );

    let total = sealed.as_bytes().len();
    for keep in [0usize, 1, 7, 8, total / 2, total - 9, total - 8, total - 1] {
        std::fs::write(&path, &sealed.as_bytes()[..keep]).expect("write truncated frame");
        let frame = MappedFrame::open(&path).expect("open is structural, not semantic");
        assert!(
            decode_relin_key_checksummed(frame.bytes()).is_err(),
            "{keep}-byte truncation of a {total}-byte key frame must not verify"
        );
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn structurally_inconsistent_v2_frames_are_rejected_not_panicked() {
    // A frame whose words are individually parseable but inconsistent
    // with a ciphertext — a Coeff-domain body, or a polynomial count the
    // residue words do not back — must never reach the Ciphertext
    // constructor's asserts: the decoder rejects both with a
    // DecodeError.
    let ctx = ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(50));
    let pk = kg.public_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(51));
    let valid = encode_ciphertext_v2(&enc.encrypt(&[2.0, -1.0])).as_bytes().to_vec();

    // The domain word (header, scale, size, degree, level) from Ntt to
    // Coeff.
    let domain_at = 8 + 4 * 8;
    let mut coeff = valid.clone();
    coeff[domain_at] = 0;
    assert!(
        decode_ciphertext_v2(&coeff).is_err(),
        "a Coeff-domain ciphertext must be rejected"
    );

    // Three polynomials declared over the residues of two.
    let size_at = 8 + 8;
    let mut grown = valid.clone();
    grown[size_at] = 3;
    assert!(
        decode_ciphertext_v2(&grown).is_err(),
        "a polynomial count the body does not back must be rejected"
    );
}

#[test]
fn out_of_range_residues_are_caught_by_semantic_validation() {
    // The wire decoder is context-free, so a bit-flipped residue word
    // >= q survives decoding; validate_ciphertext must reject it before
    // it can reach modular arithmetic.
    let ctx = ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(22));
    let pk = kg.public_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(23));
    let ct = enc.encrypt(&[4.0, 2.0]);
    assert!(ctx.validate_ciphertext(&ct).is_ok(), "honest ciphertexts validate");

    let mut bytes = encode_ciphertext_v2(&ct).as_bytes().to_vec();
    // Force the top byte of the first residue word to 0xFF: every prime
    // in the toy chain is < 2^62, so the word lands far above q_0.
    bytes[CT_RESIDUES + 7] = 0xFF;
    let view = decode_ciphertext_v2(&bytes).expect("shape-valid");
    for err in [
        ctx.validate_ciphertext_view(&view).unwrap_err(),
        ctx.validate_ciphertext(&view.to_owned_ciphertext()).unwrap_err(),
    ] {
        assert!(
            err.to_string().contains("corrupt ciphertext"),
            "expected a corrupt-ciphertext error, got: {err}"
        );
    }
}

#[test]
fn version_one_frames_get_a_typed_refusal() {
    // Version 2 is the only format. A buffer with version byte 1 — the
    // retired field-by-field layout — is refused as BadVersion(1) by
    // every decoder, plain or checksummed, whether it keeps the 8-byte
    // header or carries version 1's 6-byte one.
    use fxhenn_ckks::wire::*;

    let ctx = CkksContext::new(CkksParams::new(64, 2, 30, 45).expect("tiny params"));
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(60));
    let pk = kg.public_key();
    let mut enc = Encryptor::new(&ctx, pk.clone(), StdRng::seed_from_u64(61));
    let ct = enc.encrypt(&[1.0, -2.0]);
    let pt = Evaluator::new(&ctx).encode_at(&[0.5], 1024.0, 2).expect("encodable");
    let (rk, gks) = (kg.relin_key(), kg.galois_keys(&[1, 2]));

    type Decoder = fn(&[u8]) -> Option<DecodeError>;
    let frames: [(&str, AlignedBytes, Decoder, Option<Decoder>); 5] = [
        ("ciphertext", encode_ciphertext_v2(&ct), |b| decode_ciphertext_v2(b).err(), None),
        ("plaintext", encode_plaintext_v2(&pt), |b| decode_plaintext_v2(b).err(), None),
        (
            "public key",
            encode_public_key_v2(&pk),
            |b| decode_public_key_v2(b).err(),
            Some(|b| decode_public_key_checksummed(b).err()),
        ),
        (
            "relin key",
            encode_relin_key_v2(&rk),
            |b| decode_relin_key_v2(b).err(),
            Some(|b| decode_relin_key_checksummed(b).err()),
        ),
        (
            "galois keys",
            encode_galois_keys_v2(&gks),
            |b| decode_galois_keys_v2(b).err(),
            Some(|b| decode_galois_keys_checksummed(b).err()),
        ),
    ];
    /// `payload` and its checksum word, whatever its alignment.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut out = payload.to_vec();
        out.extend_from_slice(&content_checksum(payload).to_le_bytes());
        out
    }
    for (name, frame, decode, decode_sealed) in frames {
        let frame = frame.as_bytes();
        assert_eq!(decode(frame), None, "{name}: the version-2 frame decodes");
        let mut in_place = frame.to_vec();
        in_place[4] = 1;
        let mut short_header = in_place[..6].to_vec();
        short_header.extend_from_slice(&frame[8..]);
        for buf in [in_place, short_header] {
            assert_eq!(decode(&buf), Some(DecodeError::BadVersion(1)), "{name}");
            if let Some(decode_sealed) = decode_sealed {
                assert_eq!(decode_sealed(&sealed(frame)), None, "{name}: sealed v2 opens");
                let refused = decode_sealed(&sealed(&buf));
                assert_eq!(refused, Some(DecodeError::BadVersion(1)), "sealed {name}");
            }
        }
    }
}
