//! Integration tests for the v2 aligned wire layout: round-trip
//! properties (including the misaligned-input copy fallback) and — the
//! property the zero-copy read path stands on — bit-identity between
//! owned and borrowed evaluation at three (N, L) points.

use fxhenn_ckks::wire::{
    decode_ciphertext_v2, decode_galois_keys_v2, decode_plaintext_v2, decode_public_key_v2,
    decode_relin_key_v2, encode_ciphertext_v2, encode_galois_keys_v2, encode_plaintext_v2,
    encode_public_key_v2, encode_relin_key_v2,
};
use fxhenn_ckks::{
    copy_fallback_forced, Ciphertext, CkksContext, CkksParams, Encryptor, Evaluator,
    KeyGenerator,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ctx_at(n: usize, levels: usize) -> CkksContext {
    CkksContext::new(CkksParams::new(n, levels, 30, 45).expect("test points are valid"))
}

fn encrypt_at(ctx: &CkksContext, seed: u64, values: &[f64]) -> Ciphertext {
    let mut kg = KeyGenerator::new(ctx, StdRng::seed_from_u64(seed));
    let pk = kg.public_key();
    let mut enc = Encryptor::new(ctx, pk, StdRng::seed_from_u64(seed ^ 0xDEAD));
    enc.encrypt(values)
}

/// Decodes `bytes` from a deliberately misaligned copy: the slice starts
/// one byte past a word boundary, so the borrowed path is impossible and
/// the decoder must take the one-time copy fallback.
fn misalign(bytes: &[u8]) -> Vec<u8> {
    let mut shifted = Vec::with_capacity(bytes.len() + 1);
    shifted.push(0u8);
    shifted.extend_from_slice(bytes);
    shifted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn v2_ciphertext_round_trips_aligned_and_misaligned(
        seed in 0u64..1_000,
        values in proptest::collection::vec(-1e3f64..1e3, 1..16),
    ) {
        let ctx = ctx_at(64, 2);
        let ct = encrypt_at(&ctx, seed, &values);
        let frame = encode_ciphertext_v2(&ct);

        // Aligned input: the view borrows the receive buffer.
        let view = decode_ciphertext_v2(frame.as_bytes()).expect("round-trip");
        if !copy_fallback_forced() {
            prop_assert!(view.is_zero_copy(), "aligned input must borrow");
        }
        prop_assert_eq!(view.to_owned_ciphertext(), ct.clone());

        // Misaligned input: the fallback copies once and still decodes
        // to the same ciphertext.
        let shifted = misalign(frame.as_bytes());
        let view = decode_ciphertext_v2(&shifted[1..]).expect("round-trip");
        prop_assert!(!view.is_zero_copy(), "misaligned input must copy");
        prop_assert_eq!(view.to_owned_ciphertext(), ct);
    }

    #[test]
    fn v2_plaintext_round_trips_aligned_and_misaligned(
        scale_exp in 8u32..40,
        values in proptest::collection::vec(-1e2f64..1e2, 1..16),
    ) {
        let ctx = ctx_at(64, 2);
        let ev = Evaluator::new(&ctx);
        let pt = ev
            .encode_at(&values, (scale_exp as f64).exp2(), 2)
            .expect("encodable");
        let frame = encode_plaintext_v2(&pt);

        let view = decode_plaintext_v2(frame.as_bytes()).expect("round-trip");
        if !copy_fallback_forced() {
            prop_assert!(view.is_zero_copy(), "aligned input must borrow");
        }
        prop_assert_eq!(view.to_owned_plaintext(), pt.clone());

        let shifted = misalign(frame.as_bytes());
        let view = decode_plaintext_v2(&shifted[1..]).expect("round-trip");
        prop_assert!(!view.is_zero_copy(), "misaligned input must copy");
        prop_assert_eq!(view.to_owned_plaintext(), pt);
    }
}

#[test]
fn key_frames_round_trip_bit_identically() {
    // Keys have no PartialEq, so bit-identity is checked on the re-encoded
    // v2 frames — which cover every limb word of every digit.
    let ctx = ctx_at(64, 2);
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(5));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&[1, 2]);

    let pk_frame = encode_public_key_v2(&pk);
    let pk_view = decode_public_key_v2(pk_frame.as_bytes()).expect("pk view");
    assert_eq!(
        encode_public_key_v2(&pk_view.to_owned_public_key()).as_bytes(),
        pk_frame.as_bytes()
    );

    let rk_frame = encode_relin_key_v2(&rk);
    let rk_view = decode_relin_key_v2(rk_frame.as_bytes()).expect("rk view");
    ctx.validate_relin_key_view(&rk_view).expect("honest key");
    assert_eq!(
        encode_relin_key_v2(&rk_view.to_owned_relin_key()).as_bytes(),
        rk_frame.as_bytes()
    );

    let gk_frame = encode_galois_keys_v2(&gks);
    let gk_view = decode_galois_keys_v2(gk_frame.as_bytes()).expect("gk view");
    ctx.validate_galois_keys_view(&gk_view).expect("honest keys");
    assert_eq!(gk_view.len(), 2);
    assert_eq!(
        encode_galois_keys_v2(&gk_view.to_owned_galois_keys()).as_bytes(),
        gk_frame.as_bytes()
    );
}

#[test]
fn owned_and_borrowed_evaluation_are_bit_identical_at_three_points() {
    // The zero-copy read path must be invisible to the arithmetic: for
    // every operation that accepts a borrowed view, the result must be
    // bit-identical (checked on the serialized frames) to the owned
    // path at all three (N, L) points.
    for &(n, levels) in &[(256usize, 2usize), (512, 3), (1024, 4)] {
        let ctx = ctx_at(n, levels);
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(n as u64));
        let pk = kg.public_key();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(n as u64 ^ 0xBEEF));
        let a = enc.encrypt(&[1.5, -0.75, 2.0]);
        let b = enc.encrypt(&[0.25, 3.0, -1.0]);
        let mut ev = Evaluator::new(&ctx);
        let pt = ev.encode_for_mul(&[0.5, 0.5, 0.5], levels).expect("encodable");

        let a_frame = encode_ciphertext_v2(&a);
        let b_frame = encode_ciphertext_v2(&b);
        let av = decode_ciphertext_v2(a_frame.as_bytes()).expect("view a");
        let bv = decode_ciphertext_v2(b_frame.as_bytes()).expect("view b");

        let owned = ev.add(&a, &b).expect("owned add");
        let borrowed = ev.add(&av, &bv).expect("borrowed add");
        assert_eq!(
            encode_ciphertext_v2(&owned).as_bytes(),
            encode_ciphertext_v2(&borrowed).as_bytes(),
            "add diverged at (N={n}, L={levels})"
        );

        let owned = ev.mul_plain(&a, &pt).expect("owned mul_plain");
        let borrowed = ev.mul_plain(&av, &pt).expect("borrowed mul_plain");
        assert_eq!(
            encode_ciphertext_v2(&owned).as_bytes(),
            encode_ciphertext_v2(&borrowed).as_bytes(),
            "mul_plain diverged at (N={n}, L={levels})"
        );

        let owned = ev.mul(&a, &b).expect("owned mul");
        let borrowed = ev.mul(&av, &bv).expect("borrowed mul");
        assert_eq!(
            encode_ciphertext_v2(&owned).as_bytes(),
            encode_ciphertext_v2(&borrowed).as_bytes(),
            "mul diverged at (N={n}, L={levels})"
        );

        let owned = ev.square(&a).expect("owned square");
        let borrowed = ev.square(&av).expect("borrowed square");
        assert_eq!(
            encode_ciphertext_v2(&owned).as_bytes(),
            encode_ciphertext_v2(&borrowed).as_bytes(),
            "square diverged at (N={n}, L={levels})"
        );
    }
}
