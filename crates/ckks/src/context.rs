//! The CKKS context: modulus chain, NTT tables and per-level
//! precomputations.
//!
//! A [`CkksContext`] owns the RNS prime chain `q_0, …, q_{L-1}` plus the
//! key-switching special prime `p`, the NTT tables for every prime, and
//! the CRT / rescale constants needed by the evaluator. A ciphertext "at
//! level `l`" carries residues for the first `l` coefficient primes; the
//! Rescale operation drops `q_{l-1}` (paper Sec. II-A).

use crate::encoding::CkksEncoder;
use crate::error::EvalError;
use crate::params::CkksParams;
use fxhenn_math::bigint::BigUint;
use fxhenn_math::modops::{inv_mod, mul_mod, pow_mod, BarrettReducer};
use fxhenn_math::ntt::{bit_reverse, NttTable};
use fxhenn_math::poly::{Domain, PolyLimbs, RnsPoly};
use fxhenn_math::prime::NttPrimeGenerator;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Per-level CRT reconstruction constants over `q_0 … q_{l-1}`.
#[derive(Debug, Clone)]
struct LevelCrt {
    big_q: BigUint,
    half_q: BigUint,
    q_hat: Vec<BigUint>,
    q_hat_inv: Vec<u64>,
}

impl LevelCrt {
    fn new(moduli: &[u64]) -> Self {
        let big_q = BigUint::product_of(moduli);
        let (half_q, _) = big_q.div_rem_u64(2);
        let q_hat: Vec<BigUint> = moduli.iter().map(|&q| big_q.div_rem_u64(q).0).collect();
        let q_hat_inv = moduli
            .iter()
            .zip(&q_hat)
            .map(|(&q, qh)| inv_mod(qh.rem_u64(q), q))
            .collect();
        Self {
            big_q,
            half_q,
            q_hat,
            q_hat_inv,
        }
    }

    fn centered_f64(&self, residues: &[u64], moduli: &[u64]) -> f64 {
        let mut acc = BigUint::zero();
        for (i, (&x, &q)) in residues.iter().zip(moduli).enumerate() {
            let c = mul_mod(x, self.q_hat_inv[i], q);
            acc.add_assign(&self.q_hat[i].mul_u64(c));
        }
        while acc.cmp_big(&self.big_q) != Ordering::Less {
            acc.sub_assign(&self.big_q);
        }
        if acc.cmp_big(&self.half_q) == Ordering::Greater {
            let mut neg = self.big_q.clone();
            neg.sub_assign(&acc);
            -neg.to_f64()
        } else {
            acc.to_f64()
        }
    }
}

/// Precomputed lift of one key-switch digit at one level: the active
/// coefficient primes and, for multi-prime digits, the fast (approximate)
/// base-conversion constants into the extended basis.
#[derive(Debug, Clone)]
pub struct DigitLift {
    /// Indices of the coefficient primes this digit covers at this level.
    pub indices: Vec<usize>,
    /// `[(D/q_i)^{-1}]_{q_i}` per active prime (empty for single-prime
    /// digits, which lift exactly).
    pub ghat_inv: Vec<u64>,
    /// `(D/q_i) mod m` per active prime, per extended-basis target
    /// modulus (level primes then specials).
    pub ghat_mod: Vec<Vec<u64>>,
}

/// Shared CKKS state: prime chain, NTT tables, encoder and evaluator
/// precomputations.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    /// Coefficient primes `q_0 … q_{L-1}`.
    qs: Vec<u64>,
    /// Key-switching special primes (one per digit-group prime).
    specials: Vec<u64>,
    /// NTT tables: one per coefficient prime, then the special primes.
    tables: Vec<NttTable>,
    /// Barrett reducers: one per coefficient prime, then the special
    /// primes.
    reducers: Vec<BarrettReducer>,
    /// `q_{l-1}^{-1} mod q_i` for each level `l` (index `l-1`), `i < l-1`.
    rescale_inv: Vec<Vec<u64>>,
    /// `specials[k]^{-1} mod m` for the mod-down step that removes
    /// special `k`: targets are `q_0..q_{L-1}` then `specials[0..k]`.
    moddown_inv: Vec<Vec<u64>>,
    /// `P = ∏ specials` reduced modulo each coefficient prime (the
    /// key-switch gadget residues).
    special_prod_mod_q: Vec<u64>,
    /// Digit-lift constants per level (index `l-1`), per digit.
    digit_lifts: Vec<Vec<DigitLift>>,
    /// CRT constants per level (index `l-1`).
    crt: Vec<LevelCrt>,
    encoder: CkksEncoder,
    /// Evaluation-domain permutation per Galois element, built on first
    /// use and shared by every evaluator over this context (the `nn`
    /// executor spawns one per round).
    galois_perms: RwLock<HashMap<usize, Arc<[u32]>>>,
}

impl CkksContext {
    /// Builds a context for the given parameter set, generating the prime
    /// chain deterministically (largest NTT primes of the requested
    /// widths).
    ///
    /// # Panics
    ///
    /// Panics if the requested widths cannot supply enough distinct NTT
    /// primes for the ring degree (not reachable for sensible parameters).
    pub fn new(params: CkksParams) -> Self {
        let n = params.degree();
        let group_size = params.digit_group_size();
        let mut qgen = NttPrimeGenerator::new(params.prime_bits(), n);
        let qs = qgen.take_primes(params.levels());
        let specials: Vec<u64> = if params.special_bits() == params.prime_bits() {
            qgen.take_primes(group_size)
        } else {
            NttPrimeGenerator::new(params.special_bits(), n).take_primes(group_size)
        };

        let all: Vec<u64> = qs.iter().copied().chain(specials.iter().copied()).collect();
        let tables = all.iter().map(|&q| NttTable::new(n, q)).collect();
        let reducers = all.iter().map(|&q| BarrettReducer::new(q)).collect();

        let rescale_inv = (0..params.levels())
            .map(|li| {
                // level l = li + 1 drops q_{li}; need q_{li}^{-1} mod q_i, i < li
                let dropped = qs[li];
                (0..li).map(|i| inv_mod(dropped % qs[i], qs[i])).collect()
            })
            .collect();
        // Removing special k targets the coefficient primes plus the
        // not-yet-removed specials 0..k.
        let moddown_inv = (0..group_size)
            .map(|k| {
                let sp = specials[k];
                qs.iter()
                    .chain(&specials[..k])
                    .map(|&m| inv_mod(sp % m, m))
                    .collect()
            })
            .collect();
        // P = product of all special primes, per coefficient prime.
        let special_prod_mod_q = qs
            .iter()
            .map(|&q| {
                specials
                    .iter()
                    .fold(1u64, |acc, &sp| mul_mod(acc, sp % q, q))
            })
            .collect();

        // Digit groups: contiguous runs of `group_size` primes.
        let dnum = params.key_switch_digits();
        let digit_lifts = (1..=params.levels())
            .map(|l| {
                (0..dnum)
                    .map(|j| {
                        let start = j * group_size;
                        let end = ((j + 1) * group_size).min(params.levels());
                        let indices: Vec<usize> = (start..end.min(l)).collect();
                        if indices.len() <= 1 {
                            return DigitLift {
                                indices,
                                ghat_inv: Vec::new(),
                                ghat_mod: Vec::new(),
                            };
                        }
                        let group_primes: Vec<u64> =
                            indices.iter().map(|&i| qs[i]).collect();
                        let d_prod = BigUint::product_of(&group_primes);
                        let targets: Vec<u64> = qs[..l]
                            .iter()
                            .chain(&specials)
                            .copied()
                            .collect();
                        let mut ghat_inv = Vec::with_capacity(indices.len());
                        let mut ghat_mod = Vec::with_capacity(indices.len());
                        for &i in &indices {
                            let (ghat, rem) = d_prod.div_rem_u64(qs[i]);
                            debug_assert_eq!(rem, 0);
                            ghat_inv.push(inv_mod(ghat.rem_u64(qs[i]), qs[i]));
                            ghat_mod.push(
                                targets.iter().map(|&m| ghat.rem_u64(m)).collect(),
                            );
                        }
                        DigitLift {
                            indices,
                            ghat_inv,
                            ghat_mod,
                        }
                    })
                    .collect()
            })
            .collect();

        let crt = (1..=params.levels())
            .map(|l| LevelCrt::new(&qs[..l]))
            .collect();
        let encoder = CkksEncoder::new(n);
        Self {
            params,
            qs,
            specials,
            tables,
            reducers,
            rescale_inv,
            moddown_inv,
            special_prod_mod_q,
            digit_lifts,
            crt,
            encoder,
            galois_perms: RwLock::new(HashMap::new()),
        }
    }

    /// The parameter set this context was built from.
    #[inline]
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.params.degree()
    }

    /// Maximum level `L` (number of coefficient primes).
    #[inline]
    pub fn max_level(&self) -> usize {
        self.params.levels()
    }

    /// The coefficient prime chain.
    #[inline]
    pub fn coeff_moduli(&self) -> &[u64] {
        &self.qs
    }

    /// The first key-switching special prime (the only one at the
    /// default `dnum = L`).
    #[inline]
    pub fn special_modulus(&self) -> u64 {
        self.specials[0]
    }

    /// All key-switching special primes (one per prime of a digit group).
    #[inline]
    pub fn special_moduli(&self) -> &[u64] {
        &self.specials
    }

    /// `P = ∏ specials` as a float (noise analysis).
    pub fn special_product_f64(&self) -> f64 {
        self.specials.iter().map(|&p| p as f64).product()
    }

    /// Number of key-switching digits `dnum`.
    #[inline]
    pub fn key_switch_digits(&self) -> usize {
        self.params.key_switch_digits()
    }

    /// The digit-lift constants for digit `j` at level `l`.
    #[inline]
    pub fn digit_lift(&self, l: usize, j: usize) -> &DigitLift {
        &self.digit_lifts[l - 1][j]
    }

    /// The slot encoder.
    #[inline]
    pub fn encoder(&self) -> &CkksEncoder {
        &self.encoder
    }

    /// Coefficient primes active at level `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is 0 or exceeds the maximum level.
    #[inline]
    pub fn moduli_at(&self, l: usize) -> &[u64] {
        assert!(l >= 1 && l <= self.max_level(), "level {l} out of range");
        &self.qs[..l]
    }

    /// NTT tables for the primes active at level `l`.
    pub fn tables_at(&self, l: usize) -> Vec<&NttTable> {
        assert!(l >= 1 && l <= self.max_level(), "level {l} out of range");
        self.tables[..l].iter().collect()
    }

    /// Primes at level `l` extended with the special primes (the
    /// key-switching basis).
    pub fn extended_moduli_at(&self, l: usize) -> Vec<u64> {
        let mut m = self.moduli_at(l).to_vec();
        m.extend_from_slice(&self.specials);
        m
    }

    /// NTT tables at level `l` extended with the special primes' tables.
    pub fn extended_tables_at(&self, l: usize) -> Vec<&NttTable> {
        let mut t = self.tables_at(l);
        t.extend(self.tables[self.max_level()..].iter());
        t
    }

    /// Barrett reducer for coefficient prime `i` (or special prime `k`
    /// at index `L + k`).
    #[inline]
    pub fn reducer(&self, i: usize) -> &BarrettReducer {
        &self.reducers[i]
    }

    /// NTT table for coefficient prime `i` (or special prime `k` at
    /// index `L + k`).
    #[inline]
    pub fn table(&self, i: usize) -> &NttTable {
        &self.tables[i]
    }

    /// The [`reducer`](Self::reducer) / [`table`](Self::table) index of
    /// position `pos` in the level-`l` extended basis (`l` coefficient
    /// primes, then the special primes).
    #[inline]
    pub fn extended_index(&self, l: usize, pos: usize) -> usize {
        if pos < l {
            pos
        } else {
            self.max_level() + (pos - l)
        }
    }

    /// Number of key-switch digits with at least one prime at level `l`
    /// (digit groups are contiguous, so these are digits `0..count`).
    #[inline]
    pub fn active_digits(&self, l: usize) -> usize {
        l.div_ceil(self.params.digit_group_size())
    }

    /// `q_{l-1}^{-1} mod q_i` for `i < l-1`: the Rescale constants when
    /// dropping from level `l`.
    #[inline]
    pub fn rescale_inv_at(&self, l: usize) -> &[u64] {
        &self.rescale_inv[l - 1]
    }

    /// `specials[k]^{-1} mod m` for the mod-down step removing special
    /// `k`; targets are the coefficient primes then `specials[0..k]`.
    #[inline]
    pub fn moddown_inv(&self, k: usize) -> &[u64] {
        &self.moddown_inv[k]
    }

    /// `P mod q_i` for all coefficient primes (key-switch gadget
    /// factors, `P = ∏ specials`).
    #[inline]
    pub fn special_mod_q(&self) -> &[u64] {
        &self.special_prod_mod_q
    }

    /// The prime dropped when rescaling from level `l`.
    #[inline]
    pub fn dropped_prime_at(&self, l: usize) -> u64 {
        assert!(l >= 1 && l <= self.max_level(), "level {l} out of range");
        self.qs[l - 1]
    }

    /// Reconstructs the centered coefficients of a level-`l` polynomial as
    /// `f64` values (the decode front half).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial's level differs from `l` or it is not in
    /// the coefficient domain.
    pub fn centered_coefficients(&self, poly: &RnsPoly, l: usize) -> Vec<f64> {
        assert_eq!(poly.level_count(), l, "polynomial level mismatch");
        assert_eq!(
            poly.domain(),
            fxhenn_math::poly::Domain::Coeff,
            "centered coefficients need the coefficient domain"
        );
        let crt = &self.crt[l - 1];
        let moduli = self.moduli_at(l);
        let n = self.degree();
        let mut out = Vec::with_capacity(n);
        let mut residues = vec![0u64; l];
        for j in 0..n {
            for (i, r) in residues.iter_mut().enumerate() {
                *r = poly.component(i)[j];
            }
            out.push(crt.centered_f64(&residues, moduli));
        }
        out
    }

    /// Checks that a (possibly deserialized) ciphertext is semantically
    /// valid for this context.
    ///
    /// The wire-format decoder is context-free: it validates structure
    /// (magic, tag, degree sanity, trailing bytes) but cannot know this
    /// context's modulus chain. A bit flip inside a residue word can
    /// therefore survive decoding and only blow up deep inside
    /// decryption. This check closes that gap: degree and level must
    /// match the context, and every residue word must be reduced modulo
    /// its prime.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CorruptCiphertext`] naming the failed check.
    pub fn validate_ciphertext(&self, ct: &crate::cipher::Ciphertext) -> Result<(), EvalError> {
        self.check_ciphertext(ct.level(), ct.polys())
    }

    /// The borrowed-view twin of
    /// [`validate_ciphertext`](Self::validate_ciphertext): range-checks a
    /// [`crate::wire::CiphertextView`] in place over the receive buffer,
    /// so a serve path can validate and evaluate a request frame without
    /// ever materializing an owned ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CorruptCiphertext`] naming the failed check.
    pub fn validate_ciphertext_view(
        &self,
        ct: &crate::wire::CiphertextView<'_>,
    ) -> Result<(), EvalError> {
        self.check_ciphertext(ct.level(), (0..ct.size()).map(|p| ct.poly(p)))
    }

    fn check_ciphertext<P: PolyLimbs>(
        &self,
        level: usize,
        polys: impl IntoIterator<Item = P>,
    ) -> Result<(), EvalError> {
        if level < 1 || level > self.max_level() {
            return Err(EvalError::CorruptCiphertext {
                what: "level outside the context's modulus chain",
            });
        }
        let moduli = self.moduli_at(level);
        for poly in polys {
            self.check_poly(&poly, moduli)
                .map_err(|what| EvalError::CorruptCiphertext { what })?;
        }
        Ok(())
    }

    /// One decoded polynomial against the primes it should be reduced
    /// by: the context's degree, NTT form, one limb per prime, every
    /// residue word below its prime.
    fn check_poly(&self, poly: &impl PolyLimbs, moduli: &[u64]) -> Result<(), &'static str> {
        if poly.degree() != self.degree() {
            return Err("polynomial degree differs from the context");
        }
        if poly.domain() != Domain::Ntt {
            return Err("polynomial not in NTT form");
        }
        if poly.level_count() != moduli.len() {
            return Err("limb count differs from its basis");
        }
        let reduced = |(i, &q): (usize, &u64)| poly.limb(i).iter().all(|&w| w < q);
        if !moduli.iter().enumerate().all(reduced) {
            return Err("residue word not reduced modulo its prime");
        }
        Ok(())
    }

    /// Checks that a (possibly deserialized) public key is semantically
    /// valid for this context: both polynomials at the context's degree,
    /// over the top level's primes, in NTT form, with every residue word
    /// reduced modulo its prime. Encryption reads the key at exactly that
    /// shape, so a key that passes cannot make it panic or compute
    /// modulo a word `>= q`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CorruptKeyMaterial`] naming the failed check.
    pub fn validate_public_key(&self, pk: &crate::keys::PublicKey) -> Result<(), EvalError> {
        let moduli = self.moduli_at(self.max_level());
        for poly in [&pk.b, &pk.a] {
            self.check_poly(poly, moduli)
                .map_err(|what| EvalError::CorruptKeyMaterial { what })?;
        }
        Ok(())
    }

    /// The extended basis of a key with `digits` digits of `limbs` limbs
    /// each: primes `0..l`, then the specials, for the level
    /// `l = limbs − s` the limbs imply. A key is well formed at any level
    /// `1 ≤ l ≤ L` with `active_digits(l)` digits.
    fn key_basis(&self, digits: usize, limbs: usize) -> Result<Vec<u64>, EvalError> {
        let level = limbs
            .checked_sub(self.specials.len())
            .filter(|l| (1..=self.max_level()).contains(l))
            .ok_or(EvalError::CorruptKeyMaterial {
                what: "key level outside the context's modulus chain",
            })?;
        if digits != self.active_digits(level) {
            return Err(EvalError::CorruptKeyMaterial {
                what: "digit count differs from the key's level",
            });
        }
        Ok(self.extended_moduli_at(level))
    }

    /// A relinearization key must reach the top level: ciphertexts of
    /// every level are relinearized with it.
    fn require_top_level(&self, limbs: usize) -> Result<(), EvalError> {
        if limbs != self.max_level() + self.specials.len() {
            return Err(EvalError::CorruptKeyMaterial {
                what: "relinearization key below the top level",
            });
        }
        Ok(())
    }

    fn check_key_switch<P: PolyLimbs>(
        &self,
        digits: usize,
        limbs: usize,
        polys: impl IntoIterator<Item = P>,
    ) -> Result<(), EvalError> {
        let ext = self.key_basis(digits, limbs)?;
        for poly in polys {
            self.check_poly(&poly, &ext)
                .map_err(|what| EvalError::CorruptKeyMaterial { what })?;
        }
        Ok(())
    }

    /// Checks that a (possibly deserialized) key-switching key is
    /// semantically valid for this context: a level `1 ≤ l ≤ L` (its
    /// limbs less the special primes), `active_digits(l)` digits, every
    /// digit in NTT form over the level-`l` extended basis at the
    /// context's degree, and every residue word reduced modulo its
    /// prime. The same transport-corruption gap
    /// [`validate_ciphertext`](Self::validate_ciphertext) closes for
    /// ciphertexts, closed for key material.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CorruptKeyMaterial`] naming the failed check.
    pub fn validate_key_switch_key(
        &self,
        ksk: &crate::keys::KeySwitchKey,
    ) -> Result<(), EvalError> {
        let polys = ksk.digits.iter().flat_map(|(b, a)| [b, a]);
        self.check_key_switch(ksk.digit_count(), ksk.limb_count(), polys)
    }

    /// Validates a relinearization key (see
    /// [`validate_key_switch_key`](Self::validate_key_switch_key)), which
    /// must also reach the top level.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CorruptKeyMaterial`] naming the failed check.
    pub fn validate_relin_key(&self, rk: &crate::keys::RelinKey) -> Result<(), EvalError> {
        self.validate_key_switch_key(&rk.0)?;
        self.require_top_level(rk.0.limb_count())
    }

    /// A Galois key set's exponents must name distinct automorphisms
    /// `X ↦ X^g` of this ring: each odd and below `2N`, none twice. (An
    /// odd exponent no rotation uses still names an automorphism, so it
    /// passes.) A key stored under a malformed exponent would surface as
    /// a missing key at rotation time, and of a repeated one only the
    /// first body would ever be checked or used.
    fn check_galois_exponents(&self, exponents: &[usize]) -> Result<(), EvalError> {
        if exponents.iter().any(|&g| g % 2 == 0 || g >= 2 * self.degree()) {
            return Err(EvalError::CorruptKeyMaterial {
                what: "Galois exponent even or not below 2N",
            });
        }
        let mut sorted = exponents.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(EvalError::CorruptKeyMaterial {
                what: "Galois exponent repeated",
            });
        }
        Ok(())
    }

    /// Validates every key in a Galois key set (see
    /// [`validate_key_switch_key`](Self::validate_key_switch_key)) and
    /// the exponents they are stored under; the keys may be cut to
    /// different levels.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CorruptKeyMaterial`] naming the failed check.
    pub fn validate_galois_keys(&self, gks: &crate::keys::GaloisKeys) -> Result<(), EvalError> {
        let exponents = gks.exponents();
        self.check_galois_exponents(&exponents)?;
        for g in exponents {
            if let Some(ksk) = gks.key(g) {
                self.validate_key_switch_key(ksk)?;
            }
        }
        Ok(())
    }

    /// The borrowed-view twin of
    /// [`validate_key_switch_key`](Self::validate_key_switch_key):
    /// range-checks a key-switch key in place over its (possibly mmap'd)
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CorruptKeyMaterial`] naming the failed check.
    pub fn validate_key_switch_ref(&self, ksk: &crate::wire::KskRef<'_>) -> Result<(), EvalError> {
        let polys = (0..ksk.digit_count()).flat_map(|j| {
            let (b, a) = ksk.digit(j);
            [b, a]
        });
        self.check_key_switch(ksk.digit_count(), ksk.level_count(), polys)
    }

    /// Validates a relinearization-key view in place (see
    /// [`validate_key_switch_ref`](Self::validate_key_switch_ref)), which
    /// must also reach the top level.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CorruptKeyMaterial`] naming the failed check.
    pub fn validate_relin_key_view(
        &self,
        rk: &crate::wire::RelinKeyView<'_>,
    ) -> Result<(), EvalError> {
        self.validate_key_switch_ref(&rk.ksk())?;
        self.require_top_level(rk.ksk().level_count())
    }

    /// Validates every key in a Galois-key view in place (see
    /// [`validate_key_switch_ref`](Self::validate_key_switch_ref)) and
    /// the exponents they are stored under. A frame can repeat an
    /// exponent that an owned [`GaloisKeys`](crate::keys::GaloisKeys)
    /// would collapse, so a frame is checked here, before it is owned.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CorruptKeyMaterial`] naming the failed check.
    pub fn validate_galois_keys_view(
        &self,
        gks: &crate::wire::GaloisKeysView<'_>,
    ) -> Result<(), EvalError> {
        let exponents = gks.exponents();
        self.check_galois_exponents(&exponents)?;
        for g in exponents {
            if let Some(ksk) = gks.key(g) {
                self.validate_key_switch_ref(&ksk)?;
            }
        }
        Ok(())
    }

    /// Galois exponent of complex conjugation: `2N - 1` (i.e. `X ↦ X^{-1}`).
    pub fn conjugation_exponent(&self) -> usize {
        2 * self.degree() - 1
    }

    /// Galois exponent for a left rotation by `steps` slots:
    /// `5^steps mod 2N`.
    pub fn galois_exponent(&self, steps: usize) -> usize {
        let slots = self.degree() / 2;
        pow_mod(5, (steps % slots) as u64, 2 * self.degree() as u64) as usize
    }

    /// The automorphism `X ↦ X^g` as a gather over evaluation-domain
    /// slots: `σ_g(f)[i] = f[perm[i]]`. Slot `i` of this repo's
    /// (bit-reversed) NTT output holds `f(ψ^{2·brv(i)+1})`, and
    /// `σ_g(f)(ψ^e) = f(ψ^{e·g})`, so
    /// `perm[i] = brv(((g·(2·brv(i)+1) mod 2N) − 1) / 2)`. Cached per
    /// `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (not a Galois element of the 2N-th
    /// cyclotomic).
    pub fn galois_perm(&self, g: usize) -> Arc<[u32]> {
        assert!(g % 2 == 1, "Galois exponent must be odd");
        let cache = &self.galois_perms;
        if let Some(perm) = cache.read().expect("perm cache lock poisoned").get(&g) {
            return perm.clone();
        }
        let n = self.degree() as u64;
        let bits = n.trailing_zeros();
        let perm: Arc<[u32]> = (0..n)
            .map(|i| {
                let e = (2 * bit_reverse(i, bits) + 1) * g as u64 % (2 * n);
                u32::try_from(bit_reverse((e - 1) / 2, bits)).expect("slot index fits u32")
            })
            .collect();
        let mut map = cache.write().expect("perm cache lock poisoned");
        map.entry(g).or_insert(perm).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> CkksContext {
        CkksContext::new(CkksParams::insecure_toy(3))
    }

    #[test]
    fn prime_chain_is_well_formed() {
        let ctx = toy();
        assert_eq!(ctx.coeff_moduli().len(), 3);
        let two_n = 2 * ctx.degree() as u64;
        for &q in ctx.coeff_moduli() {
            assert_eq!(q % two_n, 1);
        }
        assert_eq!(ctx.special_modulus() % two_n, 1);
        assert!(!ctx.coeff_moduli().contains(&ctx.special_modulus()));
        // special prime is wider than coefficient primes
        assert!(ctx.special_modulus() > *ctx.coeff_moduli().iter().max().unwrap());
    }

    #[test]
    fn same_width_special_prime_is_distinct() {
        let params = CkksParams::new(1024, 3, 30, 30).unwrap();
        let ctx = CkksContext::new(params);
        assert!(!ctx.coeff_moduli().contains(&ctx.special_modulus()));
    }

    #[test]
    fn rescale_constants_invert_dropped_prime() {
        let ctx = toy();
        for l in 2..=3 {
            let dropped = ctx.dropped_prime_at(l);
            let invs = ctx.rescale_inv_at(l);
            assert_eq!(invs.len(), l - 1);
            for (i, &inv) in invs.iter().enumerate() {
                let q = ctx.coeff_moduli()[i];
                assert_eq!(mul_mod(dropped % q, inv, q), 1);
            }
        }
    }

    #[test]
    fn special_constants_are_consistent() {
        let ctx = toy();
        // With dnum = L there is one special prime: gadget x moddown = 1.
        for (i, &q) in ctx.coeff_moduli().iter().enumerate() {
            assert_eq!(
                mul_mod(ctx.special_mod_q()[i], ctx.moddown_inv(0)[i], q),
                1
            );
        }
        assert_eq!(ctx.special_moduli().len(), 1);
    }

    #[test]
    fn grouped_digits_precompute_lift_tables() {
        use crate::params::CkksParams;
        let params = CkksParams::insecure_toy(6)
            .with_key_switch_digits(2)
            .expect("valid");
        let ctx = CkksContext::new(params);
        assert_eq!(ctx.special_moduli().len(), 3, "group size 3 specials");
        assert_eq!(ctx.key_switch_digits(), 2);
        // At full level both digits cover 3 primes and carry conversion
        // tables.
        for j in 0..2 {
            let lift = ctx.digit_lift(6, j);
            assert_eq!(lift.indices.len(), 3);
            assert_eq!(lift.ghat_inv.len(), 3);
            assert_eq!(lift.ghat_mod.len(), 3);
            assert_eq!(lift.ghat_mod[0].len(), 6 + 3, "targets = l + specials");
        }
        // At level 4, digit 1 covers only prime 3.
        let lift = ctx.digit_lift(4, 1);
        assert_eq!(lift.indices, vec![3]);
        assert!(lift.ghat_inv.is_empty(), "single-prime digits lift exactly");
        // At level 3, digit 1 is empty.
        assert!(ctx.digit_lift(3, 1).indices.is_empty());
        // Gadget residue is the product of all three specials.
        let q0 = ctx.coeff_moduli()[0];
        let expect = ctx
            .special_moduli()
            .iter()
            .fold(1u64, |acc, &sp| mul_mod(acc, sp % q0, q0));
        assert_eq!(ctx.special_mod_q()[0], expect);
    }

    #[test]
    fn centered_coefficients_roundtrip_small_values() {
        use fxhenn_math::modops::signed_to_mod;
        use fxhenn_math::poly::{Domain, RnsPoly};
        let ctx = toy();
        let l = 3;
        let vals: Vec<i64> = (0..ctx.degree() as i64)
            .map(|j| (j % 17) - 8)
            .collect();
        let residues: Vec<Vec<u64>> = ctx
            .moduli_at(l)
            .iter()
            .map(|&q| vals.iter().map(|&v| signed_to_mod(v, q)).collect())
            .collect();
        let poly = RnsPoly::from_residues(residues, Domain::Coeff);
        let out = ctx.centered_coefficients(&poly, l);
        for (j, (&v, &o)) in vals.iter().zip(&out).enumerate() {
            assert_eq!(o, v as f64, "coefficient {j}");
        }
    }

    #[test]
    fn galois_exponents_compose() {
        let ctx = toy();
        let m = 2 * ctx.degree();
        let g1 = ctx.galois_exponent(1);
        assert_eq!(g1, 5);
        let g3 = ctx.galois_exponent(3);
        assert_eq!(g3, (5 * 5 * 5) % m);
        assert_eq!(ctx.galois_exponent(0), 1);
        // Square-and-multiply agrees with step-by-step multiplication
        // over the whole rotation group, wrap-around included.
        let mut g = 1usize;
        for steps in 0..=ctx.degree() / 2 {
            assert_eq!(ctx.galois_exponent(steps), g, "steps {steps}");
            g = g * 5 % m;
        }
    }

    #[test]
    fn galois_perm_is_the_ntt_image_of_the_coefficient_automorphism() {
        use fxhenn_math::poly::Domain;
        use fxhenn_math::sampling::sample_uniform;
        use rand::{rngs::StdRng, SeedableRng};
        let ctx = toy();
        let l = ctx.max_level();
        let (moduli, tables) = (ctx.moduli_at(l), ctx.tables_at(l));
        let p = sample_uniform(
            ctx.degree(),
            moduli,
            Domain::Coeff,
            &mut StdRng::seed_from_u64(9),
        );
        for g in [
            ctx.galois_exponent(1),
            ctx.galois_exponent(37),
            ctx.conjugation_exponent(),
        ] {
            let mut expected = p.automorphism(g, moduli);
            expected.to_ntt(&tables);
            let mut p_ntt = p.clone();
            p_ntt.to_ntt(&tables);
            let mut got = RnsPoly::zero(ctx.degree(), 1, Domain::Coeff);
            p_ntt.gather_into(&ctx.galois_perm(g), &mut got);
            assert_eq!(got, expected, "g = {g}");
            assert!(
                Arc::ptr_eq(&ctx.galois_perm(g), &ctx.galois_perm(g)),
                "cached"
            );
        }
    }

    #[test]
    fn extended_basis_appends_special() {
        let ctx = toy();
        let ext = ctx.extended_moduli_at(2);
        assert_eq!(ext.len(), 3);
        assert_eq!(ext[2], ctx.special_modulus());
        assert_eq!(&ext[..2], ctx.moduli_at(2));
        let t = ctx.extended_tables_at(2);
        assert_eq!(t.len(), 3);
        assert_eq!(t[2].modulus(), ctx.special_modulus());
    }

    #[test]
    fn key_material_range_checks_catch_out_of_range_residues() {
        use crate::keys::KeyGenerator;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ctx = toy();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(10));
        let pk = kg.public_key();
        let rk = kg.relin_key();
        ctx.validate_public_key(&pk).expect("fresh keys are valid");
        ctx.validate_relin_key(&rk).expect("fresh keys are valid");
        ctx.validate_galois_keys(&kg.galois_keys(&[1, 2]))
            .expect("fresh keys are valid");

        // One residue word past its modulus.
        let mut corrupt = rk.clone();
        let (b, _) = &mut corrupt.0.digits[0];
        b.component_mut(0)[0] = u64::MAX;
        let err = ctx.validate_relin_key(&corrupt).unwrap_err();
        assert!(err.to_string().contains("not reduced"), "{err}");

        let mut corrupt = pk.clone();
        corrupt.a.component_mut(1)[7] = ctx.coeff_moduli()[1];
        let err = ctx.validate_public_key(&corrupt).unwrap_err();
        assert!(err.to_string().contains("not reduced"), "{err}");
    }

    #[test]
    fn keys_of_another_shape_are_refused() {
        use crate::keys::KeyGenerator;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ctx = toy();
        let key_of = |params| {
            let other = CkksContext::new(params);
            KeyGenerator::new(&other, StdRng::seed_from_u64(11)).public_key()
        };
        let as_coeff = |p: &RnsPoly| {
            let limbs = (0..p.level_count()).map(|i| p.component(i).to_vec());
            RnsPoly::from_residues(limbs.collect(), Domain::Coeff)
        };
        let wide = key_of(CkksParams::new(2048, 3, 30, 45).unwrap());
        let short = key_of(CkksParams::insecure_toy(2));
        let mut coeff = key_of(CkksParams::insecure_toy(3));
        ctx.validate_public_key(&coeff).expect("this context's shape");
        coeff.b = as_coeff(&coeff.b);
        for (pk, why) in [(wide, "degree"), (short, "limb count"), (coeff, "NTT")] {
            let err = ctx.validate_public_key(&pk).unwrap_err();
            assert!(err.to_string().contains(why), "{err}");
        }

        // Key switching reads key words as NTT values whatever the label
        // says; a key labelled otherwise is refused all the same.
        let mut rk = KeyGenerator::new(&ctx, StdRng::seed_from_u64(12)).relin_key();
        rk.0.digits[0].1 = as_coeff(&rk.0.digits[0].1);
        let err = ctx.validate_relin_key(&rk).unwrap_err();
        assert!(err.to_string().contains("NTT"), "{err}");
    }

    #[test]
    #[should_panic(expected = "level 0 out of range")]
    fn level_zero_rejected() {
        toy().moduli_at(0);
    }

    #[test]
    #[should_panic(expected = "level 4 out of range")]
    fn level_above_max_rejected() {
        toy().moduli_at(4);
    }
}
