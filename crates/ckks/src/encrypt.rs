//! Encryption and decryption.
//!
//! Encryption happens client-side in the paper's deployment model
//! (ciphertext-input, plaintext-weight); the accelerator only ever sees
//! ciphertexts. Decryption requires the secret key and is used here for
//! functional verification of HE-CNN inference results.

use crate::canary::Canary;
use crate::cipher::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::error::EvalError;
use crate::keys::{PublicKey, SecretKey};
use crate::noise::{fresh_public_std, fresh_symmetric_std};
use crate::telemetry::noise_metrics;
use fxhenn_math::poly::{Domain, RnsPoly};
use fxhenn_math::sampling::{
    sample_gaussian, sample_ternary, sample_uniform, small_to_rns, STANDARD_SIGMA,
};
use rand::Rng;

/// Largest absolute value in `values` (at least 1.0, the conservative
/// floor the noise formulas use).
fn value_bound(values: &[f64]) -> f64 {
    values
        .iter()
        .fold(1.0f64, |m, &v| if v.abs().is_finite() { m.max(v.abs()) } else { m })
}

/// Encrypts encoded plaintexts under a public key.
#[derive(Debug)]
pub struct Encryptor<'a, R: Rng> {
    ctx: &'a CkksContext,
    pk: PublicKey,
    rng: R,
}

impl<'a, R: Rng> Encryptor<'a, R> {
    /// Creates an encryptor from a public key.
    pub fn new(ctx: &'a CkksContext, pk: PublicKey, rng: R) -> Self {
        Self { ctx, pk, rng }
    }

    /// Encodes `values` at the default scale and encrypts at the top
    /// level.
    pub fn encrypt(&mut self, values: &[f64]) -> Ciphertext {
        let scale = self.ctx.params().scale();
        self.encrypt_at(values, scale)
    }

    /// Encodes `values` at `scale` and encrypts at the top level.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied or the scale is not
    /// positive.
    pub fn encrypt_at(&mut self, values: &[f64], scale: f64) -> Ciphertext {
        let moduli = self.ctx.moduli_at(self.ctx.max_level());
        let m = self.ctx.encoder().encode_rns(values, scale, moduli);
        self.encrypt_poly(m, scale)
            .with_noise(fresh_public_std(self.ctx.degree()), value_bound(values))
    }

    /// Encrypts a pre-encoded plaintext.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext is not at the top level (fresh encryptions
    /// always start there).
    pub fn encrypt_plaintext(&mut self, pt: &Plaintext) -> Ciphertext {
        assert_eq!(
            pt.level(),
            self.ctx.max_level(),
            "fresh encryptions start at the top level"
        );
        self.encrypt_poly(pt.poly().clone(), pt.scale())
            .with_noise(fresh_public_std(self.ctx.degree()), pt.value_bound())
    }

    /// `(b·u + e0 + m, a·u + e1)` for a message in either domain. A
    /// coefficient-domain message takes `e0` before its one forward
    /// transform — the transform is linear, so the ciphertext is the
    /// same bit for bit and `e0` needs no transform of its own.
    fn encrypt_poly(&mut self, mut m: RnsPoly, scale: f64) -> Ciphertext {
        let ctx = self.ctx;
        let l = ctx.max_level();
        let moduli = ctx.moduli_at(l);
        let tables = ctx.tables_at(l);
        let n = ctx.degree();

        let mut u = small_to_rns(&sample_ternary(n, &mut self.rng), moduli);
        u.to_ntt(&tables);
        let mut e0 = small_to_rns(&sample_gaussian(n, STANDARD_SIGMA, &mut self.rng), moduli);
        if m.domain() == Domain::Ntt {
            e0.to_ntt(&tables);
        }
        let mut e1 = small_to_rns(&sample_gaussian(n, STANDARD_SIGMA, &mut self.rng), moduli);
        e1.to_ntt(&tables);

        m.add_assign(&e0, moduli);
        m.to_ntt(&tables);
        let mut c0 = self.pk.b.clone();
        c0.mul_pointwise_assign(&u, moduli);
        c0.add_assign(&m, moduli);

        let mut c1 = self.pk.a.clone();
        c1.mul_pointwise_assign(&u, moduli);
        c1.add_assign(&e1, moduli);

        Ciphertext::new(vec![c0, c1], scale)
    }
}

/// Encrypts under the *secret key* (symmetric RLWE): `c1` is sampled
/// uniformly and `c0 = -(c1·s) + e + m`, so the only noise term is the
/// single Gaussian `e` — roughly `sqrt(4N/3)` less noise than a
/// public-key encryption. This is the right encryptor when the key
/// holder encrypts its own inputs (e.g. a client preparing a private
/// inference request), and the attached estimate reflects it.
#[derive(Debug)]
pub struct SymmetricEncryptor<'a, R: Rng> {
    ctx: &'a CkksContext,
    sk: SecretKey,
    rng: R,
}

impl<'a, R: Rng> SymmetricEncryptor<'a, R> {
    /// Creates a symmetric encryptor from the secret key.
    pub fn new(ctx: &'a CkksContext, sk: SecretKey, rng: R) -> Self {
        Self { ctx, sk, rng }
    }

    /// Encodes `values` at the default scale and encrypts at the top
    /// level.
    pub fn encrypt(&mut self, values: &[f64]) -> Ciphertext {
        let scale = self.ctx.params().scale();
        self.encrypt_at(values, scale)
    }

    /// Encodes `values` at `scale` and encrypts at the top level.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied or the scale is not
    /// positive.
    pub fn encrypt_at(&mut self, values: &[f64], scale: f64) -> Ciphertext {
        let ctx = self.ctx;
        let l = ctx.max_level();
        let moduli = ctx.moduli_at(l);
        let tables = ctx.tables_at(l);
        let n = ctx.degree();

        let mut m = ctx.encoder().encode_rns(values, scale, moduli);
        m.to_ntt(&tables);

        // Uniform c1 (sampled in the coefficient domain, mapped to NTT —
        // the distribution is invariant under the transform).
        let mut a = sample_uniform(n, moduli, Domain::Coeff, &mut self.rng);
        a.to_ntt(&tables);
        let mut e = small_to_rns(&sample_gaussian(n, STANDARD_SIGMA, &mut self.rng), moduli);
        e.to_ntt(&tables);

        // c0 = -(a·s) + e + m
        let s = self.sk.at_level(l);
        let mut c0 = a.clone();
        c0.mul_pointwise_assign(&s, moduli);
        c0.neg_assign(moduli);
        c0.add_assign(&e, moduli);
        c0.add_assign(&m, moduli);

        Ciphertext::new(vec![c0, a], scale)
            .with_noise(fresh_symmetric_std(), value_bound(values))
    }
}

/// Decrypts ciphertexts with the secret key and decodes the slots.
#[derive(Debug)]
pub struct Decryptor<'a> {
    ctx: &'a CkksContext,
    sk: SecretKey,
}

impl<'a> Decryptor<'a> {
    /// Creates a decryptor from the secret key.
    pub fn new(ctx: &'a CkksContext, sk: SecretKey) -> Self {
        Self { ctx, sk }
    }

    /// Decrypts and decodes the slot values of a ciphertext (2 or 3
    /// polynomials, any level).
    pub fn decrypt(&self, ct: &Ciphertext) -> Vec<f64> {
        let ctx = self.ctx;
        let l = ct.level();
        let moduli = ctx.moduli_at(l);
        let tables = ctx.tables_at(l);
        let s = self.sk.at_level(l);

        // m̂ = c0 + c1·s (+ c2·s²)
        let mut acc = ct.poly(0).clone();
        let mut c1s = ct.poly(1).clone();
        c1s.mul_pointwise_assign(&s, moduli);
        acc.add_assign(&c1s, moduli);
        if ct.size() == 3 {
            let mut c2ss = ct.poly(2).clone();
            c2ss.mul_pointwise_assign(&s, moduli);
            c2ss.mul_pointwise_assign(&s, moduli);
            acc.add_assign(&c2ss, moduli);
        }
        acc.to_coeff(&tables);
        let coeffs = ctx.centered_coefficients(&acc, l);
        ctx.encoder().decode_coefficients(&coeffs, ct.scale())
    }

    /// Decrypts with a canary cross-check: the known canary slots of the
    /// result are compared against `canary.expected()`, and the measured
    /// error must stay within `margin` times the slot error the
    /// ciphertext's tracked [`crate::noise::NoiseEstimate`] predicts.
    ///
    /// Also records the decrypt-time floor margin (remaining budget
    /// bits) into the `fxhenn_noise_*` metrics.
    ///
    /// # Errors
    ///
    /// Fails with [`EvalError::NoiseModelViolation`] when reality
    /// diverges from the model — the signature of a kernel or key
    /// fault, not merely a deep circuit.
    pub fn decrypt_verified(
        &self,
        ct: &Ciphertext,
        canary: &Canary,
        margin: f64,
    ) -> Result<Vec<f64>, EvalError> {
        let out = self.decrypt(ct);
        let est = ct.noise_estimate();
        noise_metrics().observe_decrypt(est.budget_bits());
        canary.verify(&out, &est, self.ctx, margin)?;
        Ok(out)
    }

    /// Decrypts and returns the centered raw plaintext coefficients
    /// (before slot decoding) — useful for noise measurements.
    pub fn decrypt_coefficients(&self, ct: &Ciphertext) -> Vec<f64> {
        let ctx = self.ctx;
        let l = ct.level();
        let moduli = ctx.moduli_at(l);
        let tables = ctx.tables_at(l);
        let s = self.sk.at_level(l);
        let mut acc = ct.poly(0).clone();
        let mut c1s = ct.poly(1).clone();
        c1s.mul_pointwise_assign(&s, moduli);
        acc.add_assign(&c1s, moduli);
        if ct.size() == 3 {
            let mut c2ss = ct.poly(2).clone();
            c2ss.mul_pointwise_assign(&s, moduli);
            c2ss.mul_pointwise_assign(&s, moduli);
            acc.add_assign(&c2ss, moduli);
        }
        acc.to_coeff(&tables);
        ctx.centered_coefficients(&acc, l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, PublicKey, SecretKey) {
        let ctx = CkksContext::new(CkksParams::insecure_toy(3));
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(11));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        (ctx, pk, sk)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ctx, pk, sk) = setup();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(12));
        let dec = Decryptor::new(&ctx, sk);
        let values = [1.0, -2.5, 3.375, 0.0, 100.25, -77.5];
        let ct = enc.encrypt(&values);
        assert_eq!(ct.level(), ctx.max_level());
        let out = dec.decrypt(&ct);
        for (i, (&x, &y)) in values.iter().zip(&out).enumerate() {
            assert!((x - y).abs() < 1e-3, "slot {i}: {x} vs {y}");
        }
    }

    #[test]
    fn error_merged_before_the_transform_gives_the_same_ciphertext() {
        // `encrypt_at` adds e0 to a coefficient-domain message and
        // transforms once; `encrypt_plaintext` receives an NTT-domain
        // message and transforms e0 on its own. Same stream, same bits.
        let (ctx, pk, _sk) = setup();
        let values = [0.5, -1.25, 3.0];
        let scale = ctx.params().scale();
        let merged = Encryptor::new(&ctx, pk.clone(), StdRng::seed_from_u64(19))
            .encrypt_at(&values, scale);
        let pt = crate::eval::Evaluator::new(&ctx)
            .encode_at(&values, scale, ctx.max_level())
            .expect("encodes");
        let separate =
            Encryptor::new(&ctx, pk, StdRng::seed_from_u64(19)).encrypt_plaintext(&pt);
        assert_eq!(merged.polys(), separate.polys());
    }

    #[test]
    fn unused_slots_decrypt_near_zero() {
        let (ctx, pk, sk) = setup();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(13));
        let dec = Decryptor::new(&ctx, sk);
        let ct = enc.encrypt(&[5.0]);
        let out = dec.decrypt(&ct);
        for (i, &y) in out.iter().enumerate().skip(1) {
            assert!(y.abs() < 1e-3, "slot {i} = {y}");
        }
    }

    #[test]
    fn different_encryptions_of_same_message_differ() {
        let (ctx, pk, _sk) = setup();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(14));
        let a = enc.encrypt(&[1.0]);
        let b = enc.encrypt(&[1.0]);
        assert_ne!(a.poly(0), b.poly(0), "encryption must be randomized");
    }

    #[test]
    fn noise_is_bounded_for_fresh_ciphertexts() {
        let (ctx, pk, sk) = setup();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(15));
        let dec = Decryptor::new(&ctx, sk);
        let ct = enc.encrypt(&[0.0; 8]);
        let coeffs = dec.decrypt_coefficients(&ct);
        // Fresh noise ~ N*sigma scale; for N=1024 should be far below the
        // 2^30 scale.
        let max = coeffs.iter().fold(0f64, |m, &c| m.max(c.abs()));
        assert!(max < 1e7, "fresh noise {max} too large");
        assert!(max > 0.0, "there should be *some* noise");
    }

    #[test]
    fn custom_scale_roundtrips() {
        let (ctx, pk, sk) = setup();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(16));
        let dec = Decryptor::new(&ctx, sk);
        let scale = (2f64).powi(24);
        let ct = enc.encrypt_at(&[3.5, -1.25], scale);
        assert_eq!(ct.scale(), scale);
        let out = dec.decrypt(&ct);
        assert!((out[0] - 3.5).abs() < 1e-2);
        assert!((out[1] + 1.25).abs() < 1e-2);
    }
}
