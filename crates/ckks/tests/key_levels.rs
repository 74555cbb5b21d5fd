//! Galois keys cut to a level: a rotation above a key's level is refused
//! typed before any arithmetic, key validation accepts every level of the
//! chain and nothing else, and mixed-level key sets travel through the
//! v2 wire zero-copy. Full-level frames are byte-identical to the ones
//! earlier builds wrote, so stored key material keeps loading.

use fxhenn_ckks::wire::{encode_relin_key_v2, V2_HEADER_LEN};
use fxhenn_ckks::{
    content_checksum, copy_fallback_forced, ct_matmul, decode_galois_keys_v2, decode_relin_key_v2,
    encode_block, encode_galois_keys_v2, required_rotations, Ciphertext, CkksContext, CkksParams,
    Encryptor, EvalError, Evaluator, GaloisKeys, KeyGenerator, LinearSchedule, LinearTransform,
    RotationSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn encrypt(ctx: &CkksContext, kg: &mut KeyGenerator<'_, StdRng>, seed: u64) -> Ciphertext {
    let mut enc = Encryptor::new(ctx, kg.public_key(), StdRng::seed_from_u64(seed));
    let slots = ctx.degree() / 2;
    enc.encrypt(&(0..slots).map(|i| (i % 7) as f64 / 7.0).collect::<Vec<_>>())
}

fn too_shallow<T>(got: Result<T, EvalError>, steps: usize, key_level: usize, level: usize) {
    match got {
        Err(EvalError::GaloisKeyTooShallow {
            steps: s,
            key_level: k,
            level: l,
        }) => assert_eq!((s, k, l), (steps, key_level, level)),
        Err(other) => panic!("expected GaloisKeyTooShallow, got {other}"),
        Ok(_) => panic!("expected GaloisKeyTooShallow, the operation ran"),
    }
}

/// Nothing was computed or booked: no HOP, no trace record.
fn nothing_booked(ev: &mut Evaluator<'_>) {
    assert_eq!(ev.ops_done(), 0, "no HOP booked");
    let trace = ev.take_trace().expect("trace started");
    assert!(trace.is_empty(), "no trace record");
    ev.start_trace();
}

#[test]
fn rotations_above_a_cut_key_are_refused_before_any_arithmetic() {
    let ctx = CkksContext::new(CkksParams::new(1024, 4, 30, 45).expect("valid params"));
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1));
    let gks = kg.galois_keys_at(&RotationSet::at_level([1, 2, 4], 2));
    let ct = encrypt(&ctx, &mut kg, 2);
    assert_eq!(ct.level(), 4);
    let mut ev = Evaluator::new(&ctx);
    ev.start_trace();

    too_shallow(ev.rotate(&ct, 1, &gks), 1, 2, 4);
    nothing_booked(&mut ev);

    let hoisted = ev.hoist(&ct).expect("a hoist needs no key");
    too_shallow(ev.rotate_hoisted(&hoisted, 2, &gks), 2, 2, 4);
    nothing_booked(&mut ev);

    let transform = LinearTransform::new(&ev, LinearSchedule::bsgs(4, vec![4]), 4, |g, b| {
        vec![1.0 + (g * 2 + b) as f64; 8]
    })
    .expect("diagonals encode");
    too_shallow(transform.apply(&mut ev, &ct, &gks), 1, 2, 4);
    nothing_booked(&mut ev);

    // At the level the keys were cut to, every one of them rotates.
    let low = ev.mod_switch_to(&ct, 2).expect("level 2 is in range");
    for steps in [1, 2, 4] {
        ev.rotate(&low, steps, &gks)
            .expect("the key reaches level 2");
    }
    // A step without a key is still the missing-key error.
    assert!(matches!(
        ev.rotate(&low, 3, &gks),
        Err(EvalError::MissingGaloisKey { steps: 3 })
    ));
}

#[test]
fn a_block_matmul_above_its_keys_is_refused_before_any_arithmetic() {
    let ctx = CkksContext::new(CkksParams::new(1024, 6, 30, 45).expect("valid params"));
    let (slots, d) = (ctx.degree() / 2, 8);
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(3));
    let rk = kg.relin_key();
    let gks = kg.galois_keys_at(&RotationSet::at_level(required_rotations(d, slots), 5));
    let mut enc = Encryptor::new(&ctx, kg.public_key(), StdRng::seed_from_u64(4));
    let block = encode_block(&vec![0.5; d * d], d, slots);
    let (a, b) = (enc.encrypt(&block), enc.encrypt(&block));
    let mut ev = Evaluator::new(&ctx);
    ev.start_trace();
    match ct_matmul(&mut ev, &a, &b, &rk, &gks, d) {
        Err(EvalError::GaloisKeyTooShallow {
            key_level: 5,
            level: 6,
            ..
        }) => {}
        other => panic!("expected GaloisKeyTooShallow at level 6, got {other:?}"),
    }
    nothing_booked(&mut ev);
}

/// Overwrites word `index` (counted after the 8-byte header) of a frame.
fn patch_word(frame: &mut [u8], index: usize, value: u64) {
    let at = V2_HEADER_LEN + 8 * index;
    frame[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn validation_accepts_every_level_of_the_chain_and_nothing_else() {
    // L = 4, one special prime: a level-l key has l digits of l + 1 limbs.
    let ctx = CkksContext::new(CkksParams::new(256, 4, 30, 45).expect("valid params"));
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(5));
    for level in 1..=4 {
        let gks = kg.galois_keys_at(&RotationSet::at_level([1], level));
        let key = gks.key(ctx.galois_exponent(1)).expect("generated");
        assert_eq!(key.level(&ctx), level);
        assert_eq!(key.digit_count(), ctx.active_digits(level));
        assert_eq!(key.limb_count(), level + 1);
        ctx.validate_galois_keys(&gks)
            .expect("every level validates");
    }

    // A level-3 key (3 digits × 2 × 4 limbs) re-read under shapes with
    // the same word count: each is well formed on the wire and refused
    // by the context. Words: count, exponent, digits, n, limbs, domain.
    let gks = kg.galois_keys_at(&RotationSet::at_level([1], 3));
    let frame = encode_galois_keys_v2(&gks);
    for (digits, limbs, what) in [
        (4, 3, "digit count differs from the key's level"),
        (6, 2, "digit count differs from the key's level"),
        (2, 6, "key level outside the context's modulus chain"),
        (12, 1, "key level outside the context's modulus chain"),
    ] {
        let mut bad = frame.as_bytes().to_vec();
        patch_word(&mut bad, 2, digits);
        patch_word(&mut bad, 4, limbs);
        let view = decode_galois_keys_v2(&bad).expect("structurally valid");
        for err in [
            ctx.validate_galois_keys_view(&view),
            ctx.validate_galois_keys(&view.to_owned_galois_keys()),
        ] {
            assert_eq!(
                err,
                Err(EvalError::CorruptKeyMaterial { what }),
                "{digits} digits of {limbs} limbs"
            );
        }
    }

    // A relinearization key must reach the top level: the level-3 Galois
    // key's body framed as a relinearization key is refused.
    let rk = kg.relin_key();
    ctx.validate_relin_key(&rk)
        .expect("a fresh relinearization key is full");
    let mut relin = encode_relin_key_v2(&rk).as_bytes()[..V2_HEADER_LEN].to_vec();
    relin.extend_from_slice(&frame.as_bytes()[V2_HEADER_LEN + 16..]);
    let view = decode_relin_key_v2(&relin).expect("structurally valid");
    let refused = Err(EvalError::CorruptKeyMaterial {
        what: "relinearization key below the top level",
    });
    assert_eq!(ctx.validate_relin_key_view(&view), refused);
    assert_eq!(ctx.validate_relin_key(&view.to_owned_relin_key()), refused);
}

#[test]
fn mixed_level_key_sets_round_trip_zero_copy() {
    let ctx = CkksContext::new(CkksParams::new(512, 5, 30, 45).expect("valid params"));
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(6));
    let rotations: RotationSet = [(1, 5), (2, 3), (3, 1), (8, 4)].into_iter().collect();
    let gks = kg.galois_keys_at(&rotations);
    let frame = encode_galois_keys_v2(&gks);
    let view = decode_galois_keys_v2(frame.as_bytes()).expect("valid frame");
    assert_eq!(view.is_zero_copy(), !copy_fallback_forced());
    ctx.validate_galois_keys_view(&view)
        .expect("mixed levels validate in place");
    for (steps, level) in rotations.with_levels() {
        let key = view.key(ctx.galois_exponent(steps)).expect("listed");
        assert_eq!(key.level_count(), level + 1, "step {steps}");
        assert_eq!(key.digit_count(), level, "step {steps}");
    }
    let owned: GaloisKeys = view.to_owned_galois_keys();
    assert_eq!(
        encode_galois_keys_v2(&owned).as_bytes(),
        frame.as_bytes(),
        "owned round trip is bit-identical"
    );

    // The decoded set rotates up to each key's level and no further.
    let ct = encrypt(&ctx, &mut kg, 7);
    let mut ev = Evaluator::new(&ctx);
    for (steps, level) in rotations.with_levels() {
        let at = ev.mod_switch_to(&ct, level).expect("in range");
        ev.rotate(&at, steps, &owned)
            .expect("the key reaches its level");
        if level < 5 {
            let above = ev.mod_switch_to(&ct, level + 1).expect("in range");
            too_shallow(ev.rotate(&above, steps, &owned), steps, level, level + 1);
        }
    }
}

#[test]
fn full_level_frames_are_what_earlier_builds_wrote() {
    // `galois_keys` still generates every key at the top level through
    // the same random stream: the frame is the one a build without level
    // cuts wrote for this seed, checksum for checksum, and it loads.
    let ctx = CkksContext::new(CkksParams::new(64, 2, 30, 45).expect("tiny params"));
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(30));
    kg.public_key();
    kg.relin_key();
    let gks = kg.galois_keys(&[1, 2]);
    let frame = encode_galois_keys_v2(&gks);
    assert_eq!(content_checksum(frame.as_bytes()), FULL_FRAME_CHECKSUM);
    let view = decode_galois_keys_v2(frame.as_bytes()).expect("valid frame");
    ctx.validate_galois_keys_view(&view)
        .expect("full keys validate");
    for g in view.exponents() {
        assert_eq!(view.key(g).expect("listed").level_count(), 3);
    }
}

/// `content_checksum` of the frame above as written before keys carried
/// a level.
const FULL_FRAME_CHECKSUM: u64 = 0x073e_f695_2564_c96a;
