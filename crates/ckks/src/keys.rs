//! Key material: secret, public, relinearization and Galois keys.
//!
//! Key switching uses the hybrid construction with per-prime digits
//! (`dnum = L`) and a single special prime `p`. The gadget element for
//! digit `i` is `g_i = p · Q̂_i · [Q̂_i^{-1}]_{q_i}`, whose RNS residues
//! are simply `p mod q_i` at position `i` and zero everywhere else — so a
//! level-`L` key serves every lower level by restriction, the property
//! the paper's inter-layer module reuse relies on (a single KeySwitch
//! module instance handles ciphertexts of any level).

use crate::context::CkksContext;
use fxhenn_math::poly::{Domain, RnsPoly};
use fxhenn_math::sampling::{
    sample_gaussian, sample_ternary, sample_uniform, small_to_rns, STANDARD_SIGMA,
};
use rand::Rng;
use std::collections::HashMap;

/// The ternary secret key, stored in NTT form over the full extended
/// basis (all coefficient primes plus the special prime).
#[derive(Debug, Clone)]
pub struct SecretKey {
    /// NTT-domain secret over `L + 1` primes.
    s: RnsPoly,
}

impl SecretKey {
    /// The secret restricted to the first `l` coefficient primes.
    pub(crate) fn at_level(&self, l: usize) -> RnsPoly {
        let indices: Vec<usize> = (0..l).collect();
        self.s.select_components(&indices)
    }

    /// Full secret over all `L + 1` primes (NTT domain).
    pub(crate) fn full(&self) -> &RnsPoly {
        &self.s
    }
}

/// The encryption public key `(b, a) = (-a·s + e, a)` at the top level.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pub(crate) b: RnsPoly,
    pub(crate) a: RnsPoly,
}

/// One key-switching key: `L` digit pairs `(b_i, a_i)` over the extended
/// basis, in NTT form.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    pub(crate) digits: Vec<(RnsPoly, RnsPoly)>,
}

impl KeySwitchKey {
    /// Number of digits (`= L`, one per coefficient prime).
    pub fn digit_count(&self) -> usize {
        self.digits.len()
    }

    /// Digit `j` as `(b_j, a_j)`, NTT form over the full extended basis
    /// (the owned twin of [`crate::wire::KskRef::digit`]).
    ///
    /// # Panics
    ///
    /// Panics if `j >= digit_count()`.
    pub fn digit(&self, j: usize) -> (&RnsPoly, &RnsPoly) {
        let (b, a) = &self.digits[j];
        (b, a)
    }
}

/// Relinearization key: switches `s²` back to `s` after a CCmult.
#[derive(Debug, Clone)]
pub struct RelinKey(pub(crate) KeySwitchKey);

/// Rotation keys, indexed by Galois exponent.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    keys: HashMap<usize, KeySwitchKey>,
}

impl GaloisKeys {
    /// The key for Galois exponent `g`, if generated.
    pub fn key(&self, g: usize) -> Option<&KeySwitchKey> {
        self.keys.get(&g)
    }

    /// Number of rotation keys held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no keys are held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Galois exponents with keys available.
    pub fn exponents(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.keys.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Rebuilds a key set from raw parts (deserialization).
    pub(crate) fn from_map(keys: HashMap<usize, KeySwitchKey>) -> Self {
        Self { keys }
    }
}

/// Generates all key material from a fresh ternary secret.
#[derive(Debug)]
pub struct KeyGenerator<'a, R: Rng> {
    ctx: &'a CkksContext,
    rng: R,
    secret: SecretKey,
    /// The small (signed) secret coefficients, kept to build Galois keys.
    secret_small: Vec<i64>,
}

impl<'a, R: Rng> KeyGenerator<'a, R> {
    /// Samples a fresh ternary secret and prepares the generator.
    pub fn new(ctx: &'a CkksContext, mut rng: R) -> Self {
        let n = ctx.degree();
        let small = sample_ternary(n, &mut rng);
        let ext = full_extended_moduli(ctx);
        let mut s = small_to_rns(&small, &ext);
        s.to_ntt(&full_extended_tables(ctx));
        Self {
            ctx,
            rng,
            secret: SecretKey { s },
            secret_small: small,
        }
    }

    /// The generated secret key.
    pub fn secret_key(&self) -> SecretKey {
        self.secret.clone()
    }

    /// Generates the public key `(-a·s + e, a)` at the top level.
    pub fn public_key(&mut self) -> PublicKey {
        let ctx = self.ctx;
        let l = ctx.max_level();
        let moduli = ctx.moduli_at(l);
        let tables = ctx.tables_at(l);
        let n = ctx.degree();

        let a = sample_uniform(n, moduli, Domain::Ntt, &mut self.rng);

        let mut e = small_to_rns(&sample_gaussian(n, STANDARD_SIGMA, &mut self.rng), moduli);
        e.to_ntt(&tables);

        let s = self.secret.at_level(l);
        let mut b = a.clone();
        b.mul_pointwise_assign(&s, moduli);
        b.neg_assign(moduli);
        b.add_assign(&e, moduli);
        PublicKey { b, a }
    }

    /// Generates a key-switching key from source secret `t` (NTT form
    /// over the full extended basis) to the main secret.
    ///
    /// One digit per group of `digit_group_size` coefficient primes: the
    /// gadget element of digit `j` is `≡ P (mod q_i)` for every prime in
    /// its group and zero everywhere else (`P = ∏ specials`).
    fn key_switch_key_for(&mut self, t: &RnsPoly) -> KeySwitchKey {
        let ctx = self.ctx;
        let big_l = ctx.max_level();
        let dnum = ctx.key_switch_digits();
        let group = ctx.params().digit_group_size();
        let ext_moduli = full_extended_moduli(ctx);
        let ext_tables = full_extended_tables(ctx);
        let n = ctx.degree();
        let s = self.secret.full();

        let digits = (0..dnum)
            .map(|j| {
                let a_j = sample_uniform(n, &ext_moduli, Domain::Ntt, &mut self.rng);
                let mut e_j = small_to_rns(
                    &sample_gaussian(n, STANDARD_SIGMA, &mut self.rng),
                    &ext_moduli,
                );
                e_j.to_ntt(&ext_tables);

                let mut b_j = a_j.clone();
                b_j.mul_pointwise_assign(s, &ext_moduli);
                b_j.neg_assign(&ext_moduli);
                b_j.add_assign(&e_j, &ext_moduli);

                // Gadget term on every prime of this digit's group:
                // g_j ≡ P (mod q_i), 0 elsewhere.
                let digit_primes = j * group..((j + 1) * group).min(big_l);
                for (i, &q_i) in ext_moduli
                    .iter()
                    .enumerate()
                    .take(digit_primes.end)
                    .skip(digit_primes.start)
                {
                    let p_mod_qi = ctx.special_mod_q()[i];
                    let t_i = t.component(i);
                    let b_comp = b_j.component_mut(i);
                    for (bj, &tj) in b_comp.iter_mut().zip(t_i) {
                        let add = fxhenn_math::modops::mul_mod(tj, p_mod_qi, q_i);
                        *bj = fxhenn_math::modops::add_mod(*bj, add, q_i);
                    }
                }
                (b_j, a_j)
            })
            .collect();
        KeySwitchKey { digits }
    }

    /// Generates the relinearization key (switches `s²` to `s`).
    pub fn relin_key(&mut self) -> RelinKey {
        let ext_moduli = full_extended_moduli(self.ctx);
        let mut s2 = self.secret.full().clone();
        let s = self.secret.full().clone();
        s2.mul_pointwise_assign(&s, &ext_moduli);
        RelinKey(self.key_switch_key_for(&s2))
    }

    /// Generates the conjugation key (Galois element `2N - 1`).
    pub fn conjugation_key(&mut self) -> KeySwitchKey {
        let ctx = self.ctx;
        let ext_moduli = full_extended_moduli(ctx);
        let ext_tables = full_extended_tables(ctx);
        let g = ctx.conjugation_exponent();
        let mut s_small = small_to_rns(&self.secret_small, &ext_moduli);
        s_small = s_small.automorphism(g, &ext_moduli);
        s_small.to_ntt(&ext_tables);
        self.key_switch_key_for(&s_small)
    }

    /// Generates Galois keys for left rotations by each of `steps` slots.
    pub fn galois_keys(&mut self, steps: &[usize]) -> GaloisKeys {
        let ctx = self.ctx;
        let ext_moduli = full_extended_moduli(ctx);
        let ext_tables = full_extended_tables(ctx);
        let mut keys = HashMap::new();
        for &r in steps {
            let g = ctx.galois_exponent(r);
            if g == 1 || keys.contains_key(&g) {
                continue;
            }
            // sigma_g(s) computed on the small secret, then lifted.
            let mut s_small = small_to_rns(&self.secret_small, &ext_moduli);
            debug_assert_eq!(s_small.domain(), Domain::Coeff);
            s_small = s_small.automorphism(g, &ext_moduli);
            s_small.to_ntt(&ext_tables);
            keys.insert(g, self.key_switch_key_for(&s_small));
        }
        GaloisKeys { keys }
    }
}

/// All coefficient primes plus the special prime.
pub(crate) fn full_extended_moduli(ctx: &CkksContext) -> Vec<u64> {
    ctx.extended_moduli_at(ctx.max_level())
}

/// NTT tables for the full extended basis.
pub(crate) fn full_extended_tables(ctx: &CkksContext) -> Vec<&fxhenn_math::ntt::NttTable> {
    ctx.extended_tables_at(ctx.max_level())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> CkksContext {
        CkksContext::new(CkksParams::insecure_toy(3))
    }

    #[test]
    fn secret_restriction_is_prefix_plus_special() {
        let ctx = setup();
        let kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1));
        let sk = kg.secret_key();
        let at2 = sk.at_level(2);
        assert_eq!(at2.level_count(), 2);
        assert_eq!(at2.component(0), sk.full().component(0));
        assert_eq!(at2.component(1), sk.full().component(1));
    }

    #[test]
    fn public_key_satisfies_rlwe_relation() {
        // b + a*s should be small (the error e) when decoded.
        let ctx = setup();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(2));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let l = ctx.max_level();
        let moduli = ctx.moduli_at(l);
        let tables = ctx.tables_at(l);

        let mut check = pk.a.clone();
        check.mul_pointwise_assign(&sk.at_level(l), moduli);
        check.add_assign(&pk.b, moduli);
        check.to_coeff(&tables);
        let coeffs = ctx.centered_coefficients(&check, l);
        let bound = 6.0 * STANDARD_SIGMA + 1.0;
        for (j, &c) in coeffs.iter().enumerate() {
            assert!(c.abs() <= bound, "coefficient {j} = {c} not small");
        }
    }

    #[test]
    fn relin_key_digits_decrypt_to_gadget_times_s_squared() {
        // For digit i: b_i + a_i*s - g_i*s^2 should be small.
        let ctx = setup();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(3));
        let rk = kg.relin_key();
        let sk = kg.secret_key();
        let ext_moduli = full_extended_moduli(&ctx);
        let ext_tables = full_extended_tables(&ctx);

        let s = sk.full().clone();
        let mut s2 = s.clone();
        s2.mul_pointwise_assign(&s, &ext_moduli);

        for (i, (b_i, a_i)) in rk.0.digits.iter().enumerate() {
            let mut check = a_i.clone();
            check.mul_pointwise_assign(&s, &ext_moduli);
            check.add_assign(b_i, &ext_moduli);
            // subtract g_i * s^2: only component i carries p*s^2
            let q_i = ext_moduli[i];
            let p_mod = ctx.special_mod_q()[i];
            let comp = check.component_mut(i);
            for (cj, &s2j) in comp.iter_mut().zip(s2.component(i)) {
                let sub = fxhenn_math::modops::mul_mod(s2j, p_mod, q_i);
                *cj = fxhenn_math::modops::sub_mod(*cj, sub, q_i);
            }
            check.to_coeff(&ext_tables);
            // every residue should now be a small signed value
            let bound = (6.0 * STANDARD_SIGMA + 1.0) as i64;
            for (k, &q) in ext_moduli.iter().enumerate() {
                for (j, &v) in check.component(k).iter().enumerate() {
                    let signed = fxhenn_math::modops::mod_to_signed(v, q);
                    assert!(
                        signed.abs() <= bound,
                        "digit {i} residue {k} coeff {j}: {signed}"
                    );
                }
            }
        }
    }

    #[test]
    fn galois_keys_deduplicate_and_skip_identity() {
        let ctx = setup();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(4));
        let slots = ctx.degree() / 2;
        let gks = kg.galois_keys(&[0, 1, 1, 2, slots]); // 0 and slots are identity
        assert_eq!(gks.len(), 2);
        assert!(gks.key(ctx.galois_exponent(1)).is_some());
        assert!(gks.key(ctx.galois_exponent(2)).is_some());
        assert!(gks.key(1).is_none(), "identity rotation needs no key");
        assert!(!gks.is_empty());
        assert_eq!(gks.exponents().len(), 2);
    }

    #[test]
    fn keyswitch_key_has_one_digit_per_prime() {
        let ctx = setup();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(5));
        let rk = kg.relin_key();
        assert_eq!(rk.0.digit_count(), ctx.max_level());
        for (b, a) in &rk.0.digits {
            assert_eq!(b.level_count(), ctx.max_level() + 1);
            assert_eq!(a.level_count(), ctx.max_level() + 1);
        }
    }
}
