//! Property-based tests for the RNS-CKKS scheme: homomorphic identities
//! checked on randomized slot vectors with a shared key fixture.

use fxhenn_ckks::{
    CkksContext, CkksParams, Decryptor, Encryptor, Evaluator, GaloisKeys, KeyGenerator, PublicKey,
    RelinKey, SecretKey,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

struct Fixture {
    ctx: CkksContext,
    pk: PublicKey,
    sk: SecretKey,
    rk: RelinKey,
    gks: GaloisKeys,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::insecure_toy(3));
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(99));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&[1, 2, 3, 5, 8]);
        Fixture {
            ctx,
            pk,
            sk,
            rk,
            gks,
        }
    })
}

fn slot_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-8.0f64..8.0, len)
}

fn assert_close(actual: &[f64], expected: &[f64], tol: f64) -> Result<(), TestCaseError> {
    for (i, (&a, &e)) in actual.iter().zip(expected).enumerate() {
        prop_assert!(
            (a - e).abs() < tol,
            "slot {i}: got {a}, expected {e} (tol {tol})"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn encryption_roundtrip(values in slot_vec(16)) {
        let f = fixture();
        let mut enc = Encryptor::new(&f.ctx, f.pk.clone(), StdRng::seed_from_u64(1));
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let ct = enc.encrypt(&values);
        assert_close(&dec.decrypt(&ct)[..16], &values, 1e-2)?;
    }

    #[test]
    fn addition_is_homomorphic(a in slot_vec(16), b in slot_vec(16)) {
        let f = fixture();
        let mut enc = Encryptor::new(&f.ctx, f.pk.clone(), StdRng::seed_from_u64(2));
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let mut ev = Evaluator::new(&f.ctx);
        let ca = enc.encrypt(&a);
        let cb = enc.encrypt(&b);
        let sum = ev.add(&ca, &cb).unwrap();
        let expected: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        assert_close(&dec.decrypt(&sum)[..16], &expected, 1e-2)?;
    }

    #[test]
    fn plain_product_is_homomorphic(a in slot_vec(16), w in slot_vec(16)) {
        let f = fixture();
        let mut enc = Encryptor::new(&f.ctx, f.pk.clone(), StdRng::seed_from_u64(3));
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let mut ev = Evaluator::new(&f.ctx);
        let ca = enc.encrypt(&a);
        let pw = ev.encode_for_mul(&w, ca.level()).unwrap();
        let raw = ev.mul_plain(&ca, &pw).unwrap();
        let prod = ev.rescale(&raw).unwrap();
        let expected: Vec<f64> = a.iter().zip(&w).map(|(&x, &y)| x * y).collect();
        assert_close(&dec.decrypt(&prod)[..16], &expected, 0.05)?;
    }

    #[test]
    fn cipher_product_is_homomorphic(a in slot_vec(8), b in slot_vec(8)) {
        let f = fixture();
        let mut enc = Encryptor::new(&f.ctx, f.pk.clone(), StdRng::seed_from_u64(4));
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let mut ev = Evaluator::new(&f.ctx);
        let ca = enc.encrypt(&a);
        let cb = enc.encrypt(&b);
        let tri = ev.mul(&ca, &cb).unwrap();
        let lin = ev.relinearize(&tri, &f.rk).unwrap();
        let prod = ev.rescale(&lin).unwrap();
        let expected: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        assert_close(&dec.decrypt(&prod)[..8], &expected, 0.2)?;
    }

    #[test]
    fn rotation_permutes_slots(values in slot_vec(32), steps in prop::sample::select(vec![1usize, 2, 3, 5, 8])) {
        let f = fixture();
        let mut enc = Encryptor::new(&f.ctx, f.pk.clone(), StdRng::seed_from_u64(5));
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let mut ev = Evaluator::new(&f.ctx);
        let slots = f.ctx.degree() / 2;
        let mut full = values.clone();
        full.resize(slots, 0.0);
        let ct = enc.encrypt(&full);
        let rot = ev.rotate(&ct, steps, &f.gks).unwrap();
        let out = dec.decrypt(&rot);
        let expected: Vec<f64> = (0..16).map(|i| full[(i + steps) % slots]).collect();
        assert_close(&out[..16], &expected, 1e-2)?;
    }

    #[test]
    fn mul_commutes(a in slot_vec(8), b in slot_vec(8)) {
        let f = fixture();
        let mut enc = Encryptor::new(&f.ctx, f.pk.clone(), StdRng::seed_from_u64(6));
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let mut ev = Evaluator::new(&f.ctx);
        let ca = enc.encrypt(&a);
        let cb = enc.encrypt(&b);
        let tri_ab = ev.mul(&ca, &cb).unwrap();
        let lin_ab = ev.relinearize(&tri_ab, &f.rk).unwrap();
        let ab = ev.rescale(&lin_ab).unwrap();
        let tri_ba = ev.mul(&cb, &ca).unwrap();
        let lin_ba = ev.relinearize(&tri_ba, &f.rk).unwrap();
        let ba = ev.rescale(&lin_ba).unwrap();
        let da = dec.decrypt(&ab);
        let db = dec.decrypt(&ba);
        assert_close(&da[..8], &db[..8], 0.2)?;
    }

    #[test]
    fn distributivity_over_addition(a in slot_vec(8), b in slot_vec(8), w in slot_vec(8)) {
        // w * (a + b) == w*a + w*b
        let f = fixture();
        let mut enc = Encryptor::new(&f.ctx, f.pk.clone(), StdRng::seed_from_u64(7));
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let mut ev = Evaluator::new(&f.ctx);
        let ca = enc.encrypt(&a);
        let cb = enc.encrypt(&b);
        let sum = ev.add(&ca, &cb).unwrap();
        let pw = ev.encode_for_mul(&w, sum.level()).unwrap();
        let lhs_raw = ev.mul_plain(&sum, &pw).unwrap();
        let lhs = ev.rescale(&lhs_raw).unwrap();
        let wa = ev.mul_plain(&ca, &pw).unwrap();
        let wb = ev.mul_plain(&cb, &pw).unwrap();
        let rhs_raw = ev.add(&wa, &wb).unwrap();
        let rhs = ev.rescale(&rhs_raw).unwrap();
        assert_close(&dec.decrypt(&lhs)[..8], &dec.decrypt(&rhs)[..8], 0.05)?;
    }

    #[test]
    fn serialization_roundtrips_any_encryption(values in slot_vec(12)) {
        use fxhenn_ckks::wire::{decode_ciphertext_v2, encode_ciphertext_v2};
        let f = fixture();
        let mut enc = Encryptor::new(&f.ctx, f.pk.clone(), StdRng::seed_from_u64(31));
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let ct = enc.encrypt(&values);
        let frame = encode_ciphertext_v2(&ct);
        let back = decode_ciphertext_v2(frame.as_bytes())
            .expect("roundtrip")
            .to_owned_ciphertext();
        prop_assert_eq!(&back, &ct);
        let out = dec.decrypt(&back);
        assert_close(&out[..12], &values, 1e-2)?;
    }

    #[test]
    fn mod_switch_then_ops_stay_consistent(a in slot_vec(8), w in slot_vec(8)) {
        // Dropping a level first then multiplying equals multiplying at the
        // top and rescaling (approximately).
        let f = fixture();
        let mut enc = Encryptor::new(&f.ctx, f.pk.clone(), StdRng::seed_from_u64(8));
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let mut ev = Evaluator::new(&f.ctx);
        let ca = enc.encrypt(&a);
        let low = ev.mod_switch_to(&ca, 2).unwrap();
        let pw = ev.encode_for_mul(&w, low.level()).unwrap();
        let prod_raw = ev.mul_plain(&low, &pw).unwrap();
        let prod = ev.rescale(&prod_raw).unwrap();
        let expected: Vec<f64> = a.iter().zip(&w).map(|(&x, &y)| x * y).collect();
        assert_close(&dec.decrypt(&prod)[..8], &expected, 0.05)?;
    }
}
