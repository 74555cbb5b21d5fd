//! Key material: secret, public, relinearization and Galois keys.
//!
//! Key switching uses the hybrid construction with per-prime digits
//! (`dnum = L`) and a single special prime `p`. The gadget element for
//! digit `i` is `g_i = p · Q̂_i · [Q̂_i^{-1}]_{q_i}`, whose RNS residues
//! are simply `p mod q_i` at position `i` and zero everywhere else — so a
//! level-`l` key serves every level up to `l` by restriction, the
//! property the paper's inter-layer module reuse relies on (a single
//! KeySwitch module instance handles ciphertexts of any level). The same
//! restriction is why a key only ever needs to reach the highest level it
//! is used at: [`KeyGenerator::galois_keys_at`] cuts each Galois key
//! there (DESIGN.md §15).

use crate::context::CkksContext;
use crate::error::EvalError;
use fxhenn_math::poly::{Domain, RnsPoly};
use fxhenn_math::sampling::{
    sample_gaussian, sample_ternary, sample_uniform, small_to_rns, STANDARD_SIGMA,
};
use rand::Rng;
use std::collections::HashMap;
use std::ops::Deref;

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

    /// The secret over the level-`l` extended basis: primes `0..l`, then
    /// the special primes.
    fn extended_at(&self, ctx: &CkksContext, l: usize) -> RnsPoly {
        let limbs = l + ctx.special_moduli().len();
        let indices: Vec<usize> = (0..limbs).map(|pos| ctx.extended_index(l, pos)).collect();
        self.s.select_components(&indices)
    }
}

/// The encryption public key `(b, a) = (-a·s + e, a)` at the top level.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pub(crate) b: RnsPoly,
    pub(crate) a: RnsPoly,
}

/// One key-switching key of level `l`: `active_digits(l)` digit pairs
/// `(b_j, a_j)` in NTT form over the level-`l` extended basis (primes
/// `0..l`, then the special primes). It switches ciphertexts at every
/// level up to `l`; a full key has `l = L`.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    pub(crate) digits: Vec<(RnsPoly, RnsPoly)>,
}

impl KeySwitchKey {
    /// Number of digits (`active_digits` of the key's level).
    pub fn digit_count(&self) -> usize {
        self.digits.len()
    }

    /// Residue limbs per digit polynomial: the key's level plus the
    /// special primes.
    pub fn limb_count(&self) -> usize {
        self.digits.first().map_or(0, |(b, _)| b.level_count())
    }

    /// The highest ciphertext level this key switches under `ctx`: its
    /// limbs less the special primes.
    pub fn level(&self, ctx: &CkksContext) -> usize {
        self.limb_count().saturating_sub(ctx.special_moduli().len())
    }

    /// The limb of this key that pairs with limb `t` of the level-`l`
    /// extended basis, for `l` up to the key's level: limb `t` itself
    /// below `l`, otherwise the same special prime, which follows the
    /// key's own primes.
    pub(crate) fn limb_for(&self, ctx: &CkksContext, l: usize, t: usize) -> usize {
        if t < l {
            t
        } else {
            self.level(ctx) + (t - l)
        }
    }

    /// Digit `j` as `(b_j, a_j)`, NTT form over the key's extended basis
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

    /// The key that rotates a level-`level` ciphertext left by `steps`
    /// slots. Every rotation looks its key up here, before any
    /// arithmetic.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingGaloisKey`] when no key was generated for the
    /// step, [`EvalError::GaloisKeyTooShallow`] when the key was cut
    /// below `level`.
    pub fn rotation_key(
        &self,
        ctx: &CkksContext,
        steps: usize,
        level: usize,
    ) -> Result<&KeySwitchKey, EvalError> {
        let key = self
            .key(ctx.galois_exponent(steps))
            .ok_or(EvalError::MissingGaloisKey { steps })?;
        let key_level = key.level(ctx);
        if level > key_level {
            return Err(EvalError::GaloisKeyTooShallow {
                steps,
                key_level,
                level,
            });
        }
        Ok(key)
    }

    /// Rebuilds a key set from raw parts (deserialization).
    pub(crate) fn from_map(keys: HashMap<usize, KeySwitchKey>) -> Self {
        Self { keys }
    }
}

/// Rotation steps, each with the highest ciphertext level it is applied
/// at: which Galois keys a program needs and how deep each must reach.
/// Derefs to the sorted, distinct steps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RotationSet {
    steps: Vec<usize>,
    /// `levels[i]` is the highest level `steps[i]` is applied at.
    levels: Vec<usize>,
}

impl RotationSet {
    /// Every one of `steps` at `level`.
    pub fn at_level(steps: impl Into<Vec<usize>>, level: usize) -> Self {
        let mut steps = steps.into();
        steps.sort_unstable();
        steps.dedup();
        let levels = vec![level; steps.len()];
        Self { steps, levels }
    }

    /// Adds `step` at `level`; a step already listed keeps the higher of
    /// its two levels.
    pub fn insert(&mut self, step: usize, level: usize) {
        match self.steps.binary_search(&step) {
            Ok(i) => self.levels[i] = self.levels[i].max(level),
            Err(i) => {
                self.steps.insert(i, step);
                self.levels.insert(i, level);
            }
        }
    }

    /// The highest level `step` is applied at, if listed.
    pub fn level(&self, step: usize) -> Option<usize> {
        self.steps.binary_search(&step).ok().map(|i| self.levels[i])
    }

    /// `(step, level)` pairs in step order.
    pub fn with_levels(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.steps.iter().copied().zip(self.levels.iter().copied())
    }
}

impl Deref for RotationSet {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.steps
    }
}

impl FromIterator<(usize, usize)> for RotationSet {
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> Self {
        let mut pairs: Vec<(usize, usize)> = iter.into_iter().collect();
        // Sorted by step, then level: a step's last pair has its highest.
        // The stable sort merges presorted runs (a program's per-layer
        // sets) in linear time.
        pairs.sort();
        let mut set = Self {
            steps: Vec::with_capacity(pairs.len()),
            levels: Vec::with_capacity(pairs.len()),
        };
        for (step, level) in pairs {
            match (set.steps.last(), set.levels.last_mut()) {
                (Some(&last), Some(highest)) if last == step => *highest = level,
                _ => {
                    set.steps.push(step);
                    set.levels.push(level);
                }
            }
        }
        set
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

    /// Generates a level-`level` key-switching key from source secret
    /// `t` (NTT form over the level-`level` extended basis) to the main
    /// secret: `active_digits(level)` digits over primes `0..level` plus
    /// the specials. At `level = L` this is the full key.
    ///
    /// One digit per group of `digit_group_size` coefficient primes: the
    /// gadget element of digit `j` is `≡ P (mod q_i)` for every prime in
    /// its group and zero everywhere else (`P = ∏ specials`).
    fn key_switch_key_for(&mut self, t: &RnsPoly, level: usize) -> KeySwitchKey {
        let ctx = self.ctx;
        let group = ctx.params().digit_group_size();
        let ext_moduli = ctx.extended_moduli_at(level);
        let ext_tables = ctx.extended_tables_at(level);
        let n = ctx.degree();
        let s = self.secret.extended_at(ctx, level);

        let digits = (0..ctx.active_digits(level))
            .map(|j| {
                let a_j = sample_uniform(n, &ext_moduli, Domain::Ntt, &mut self.rng);
                let mut e_j = small_to_rns(
                    &sample_gaussian(n, STANDARD_SIGMA, &mut self.rng),
                    &ext_moduli,
                );
                e_j.to_ntt(&ext_tables);

                let mut b_j = a_j.clone();
                b_j.mul_pointwise_assign(&s, &ext_moduli);
                b_j.neg_assign(&ext_moduli);
                b_j.add_assign(&e_j, &ext_moduli);

                // Gadget term on every prime of this digit's group:
                // g_j ≡ P (mod q_i), 0 elsewhere.
                let digit_primes = j * group..((j + 1) * group).min(level);
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

    /// Generates the relinearization key (switches `s²` to `s`) at the
    /// top level.
    pub fn relin_key(&mut self) -> RelinKey {
        let ext_moduli = full_extended_moduli(self.ctx);
        let mut s2 = self.secret.full().clone();
        let s = self.secret.full().clone();
        s2.mul_pointwise_assign(&s, &ext_moduli);
        RelinKey(self.key_switch_key_for(&s2, self.ctx.max_level()))
    }

    /// Generates the conjugation key (Galois element `2N - 1`) at the
    /// top level.
    pub fn conjugation_key(&mut self) -> KeySwitchKey {
        let ctx = self.ctx;
        self.galois_key(ctx.conjugation_exponent(), ctx.max_level())
    }

    /// The level-`level` key for Galois element `g`: `σ_g(s)` computed on
    /// the small secret, lifted to the key's basis.
    fn galois_key(&mut self, g: usize, level: usize) -> KeySwitchKey {
        let ctx = self.ctx;
        let ext_moduli = ctx.extended_moduli_at(level);
        let s_small = small_to_rns(&self.secret_small, &ext_moduli);
        debug_assert_eq!(s_small.domain(), Domain::Coeff);
        let mut t = s_small.automorphism(g, &ext_moduli);
        t.to_ntt(&ctx.extended_tables_at(level));
        self.key_switch_key_for(&t, level)
    }

    /// Generates Galois keys for left rotations by each of `steps` slots,
    /// every key at the top level.
    pub fn galois_keys(&mut self, steps: &[usize]) -> GaloisKeys {
        let top = self.ctx.max_level();
        self.galois_keys_for(steps.iter().map(|&s| (s, top)))
    }

    /// Generates Galois keys for `rotations`, each key cut to the highest
    /// level its steps are applied at: a rotation at or below that level
    /// reads only the limbs the cut keeps, so it computes exactly what it
    /// would with the full key.
    pub fn galois_keys_at(&mut self, rotations: &RotationSet) -> GaloisKeys {
        self.galois_keys_for(rotations.with_levels())
    }

    /// The one Galois keygen path: a key per distinct non-identity Galois
    /// element, at the highest level (within `1..=L`) any of its steps
    /// asks for, generated in the order the elements first appear.
    fn galois_keys_for(&mut self, steps: impl Iterator<Item = (usize, usize)>) -> GaloisKeys {
        let top = self.ctx.max_level();
        let mut wanted: Vec<(usize, usize)> = Vec::new();
        for (step, level) in steps {
            let g = self.ctx.galois_exponent(step);
            let level = level.clamp(1, top);
            match wanted.iter_mut().find(|(e, _)| *e == g) {
                Some(w) => w.1 = w.1.max(level),
                None if g != 1 => wanted.push((g, level)),
                None => {}
            }
        }
        let keys = wanted
            .into_iter()
            .map(|(g, level)| (g, self.galois_key(g, level)))
            .collect();
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
    fn cut_keys_take_the_highest_level_per_galois_element() {
        let ctx = setup();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(6));
        let slots = ctx.degree() / 2;
        // 1 and slots + 1 are one Galois element; 0 is the identity.
        let rotations: RotationSet = [(1, 1), (slots + 1, 2), (2, 1), (0, 3), (3, 9)]
            .into_iter()
            .collect();
        let gks = kg.galois_keys_at(&rotations);
        let level = |steps| gks.key(ctx.galois_exponent(steps)).unwrap().level(&ctx);
        assert_eq!(gks.len(), 3);
        assert_eq!((level(1), level(2), level(3)), (2, 1, 3), "level 9 clamps to L");
        for steps in [1, 2, 3] {
            let key = gks.key(ctx.galois_exponent(steps)).unwrap();
            assert_eq!(key.digit_count(), ctx.active_digits(level(steps)));
            assert_eq!(key.limb_count(), level(steps) + 1);
        }
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
