//! Bit-identity pin of the evaluator's outputs.
//!
//! One seeded chain per parameter point — keygen, encrypt, mul →
//! relinearize → rescale, `rotate`, `hoist` + `rotate_hoisted`,
//! `conjugate`, `LinearTransform::apply` — hashed through
//! `content_checksum` of each output's v2 frame (the keys through
//! theirs). The digests were recorded before the kernels moved to
//! narrow-word arithmetic for primes below 2^30 and must never move:
//! a kernel change that alters one byte of one key or ciphertext at a
//! fixed seed fails here, not only in a decryption tolerance.

use fxhenn_ckks::{
    content_checksum, encode_ciphertext_v2, encode_galois_keys_v2, encode_public_key_v2,
    encode_relin_key_v2, Ciphertext, CkksContext, CkksParams, Encryptor, Evaluator, KeyGenerator,
    LinearSchedule, LinearTransform,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The chain's digests, in the order the steps run.
const STEPS: [&str; 11] = [
    "public key",
    "relin key",
    "galois keys",
    "encrypt a",
    "encrypt b",
    "mul+relin+rescale",
    "rotate 1",
    "rotate_hoisted 3",
    "conjugate",
    "linear transform",
    "rotate_hoisted 1 of the product",
];

fn ct_digest(ct: &Ciphertext) -> u64 {
    content_checksum(encode_ciphertext_v2(ct).as_bytes())
}

fn chain(n: usize, levels: usize) -> [u64; 11] {
    let ctx = CkksContext::new(CkksParams::new(n, levels, 30, 45).expect("valid params"));
    let slots = n / 2;
    let schedule = LinearSchedule::bsgs(4, Vec::new());
    let mut steps = schedule.rotation_steps();
    steps.extend([1, 3]);
    steps.sort_unstable();
    steps.dedup();

    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(0xB17));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&steps);
    let conj = kg.conjugation_key();

    let mut rng = StdRng::seed_from_u64(0x1D);
    let mut draw = || -> Vec<f64> { (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    let (xa, xb, diag) = (draw(), draw(), draw());
    let mut enc = Encryptor::new(&ctx, pk.clone(), StdRng::seed_from_u64(0xE7C));
    let (a, b) = (enc.encrypt(&xa), enc.encrypt(&xb));

    let mut ev = Evaluator::new(&ctx);
    let prod = ev.mul(&a, &b).expect("same level");
    let prod = ev.relinearize(&prod, &rk).expect("three polynomials");
    let prod = ev.rescale(&prod).expect("level above 1");
    let rot = ev.rotate(&a, 1, &gks).expect("key 1");
    let hoisted = ev.hoist(&a).expect("linear");
    let rot3 = ev.rotate_hoisted(&hoisted, 3, &gks).expect("key 3");
    let conjugated = ev.conjugate(&b, &conj).expect("linear");
    let transform = LinearTransform::new(&ev, schedule, a.level(), |_, _| diag.clone())
        .expect("diagonals encode");
    let lt = transform.apply(&mut ev, &a, &gks).expect("keys present");
    let hoisted_prod = ev.hoist(&prod).expect("linear");
    let prod_rot = ev
        .rotate_hoisted(&hoisted_prod, 1, &gks)
        .expect("key 1 at a lower level");

    [
        content_checksum(encode_public_key_v2(&pk).as_bytes()),
        content_checksum(encode_relin_key_v2(&rk).as_bytes()),
        content_checksum(encode_galois_keys_v2(&gks).as_bytes()),
        ct_digest(&a),
        ct_digest(&b),
        ct_digest(&prod),
        ct_digest(&rot),
        ct_digest(&rot3),
        ct_digest(&conjugated),
        ct_digest(&lt),
        ct_digest(&prod_rot),
    ]
}

fn check(n: usize, levels: usize, pinned: [u64; 11]) {
    let got = chain(n, levels);
    let moved: Vec<String> = STEPS
        .iter()
        .zip(got.iter().zip(&pinned))
        .filter(|(_, (g, p))| g != p)
        .map(|(step, (g, p))| format!("{step}: {g:#018x} (pinned {p:#018x})"))
        .collect();
    assert!(
        moved.is_empty(),
        "N={n} L={levels}: outputs moved:\n{}\nall: {got:#018x?}",
        moved.join("\n")
    );
}

#[test]
fn chain_bytes_are_pinned_at_1024_3() {
    check(
        1024,
        3,
        [
            0xb6da_b982_34a0_c437,
            0x1776_711b_0265_8b5a,
            0xf544_e580_6690_1f9b,
            0xc4a0_c6a5_051d_499c,
            0xf1b4_33d3_8f11_990e,
            0x245b_7bbb_5f59_9189,
            0xad05_d106_0d6b_e62c,
            0x8b91_9ce6_4b19_bac6,
            0x48c1_c5a2_fcb9_0dd9,
            0x929c_40bc_b95e_aab3,
            0x3171_7ee3_026c_f767,
        ],
    );
}

#[test]
fn chain_bytes_are_pinned_at_4096_5() {
    check(
        4096,
        5,
        [
            0xe76e_4822_2e0d_c971,
            0x11b9_9015_afb0_fba6,
            0xd0d4_3709_36a7_d967,
            0x3877_79f1_be91_3519,
            0x7a06_6a9c_28fa_af14,
            0x4e5a_ed90_c4bf_1359,
            0xff31_c7c3_2258_8291,
            0xa4fb_23ed_d690_3628,
            0xb613_327b_19a8_373f,
            0x32e5_ea17_279c_d6b3,
            0x56d2_0807_3c61_9fac,
        ],
    );
}

#[test]
fn chain_bytes_are_pinned_at_8192_7() {
    check(
        8192,
        7,
        [
            0xc33e_982c_6320_046a,
            0x3981_f4e6_1ff5_2589,
            0x1bdb_65af_5efb_50ac,
            0x23a0_d3e6_543c_45e5,
            0x45b0_0dc9_db25_3a87,
            0x5319_cf5c_6cc1_c48c,
            0xf0a0_1425_f11e_a7ff,
            0x8ee7_d3c9_e582_2acf,
            0xa92d_4fd8_5e8a_48b1,
            0xee7e_4faa_95e1_64f6,
            0xcea2_49b4_223b_4835,
        ],
    );
}
