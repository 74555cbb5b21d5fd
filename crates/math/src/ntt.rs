//! Negacyclic number-theoretic transform over `Z_q[X]/(X^N + 1)`.
//!
//! The NTT is the fundamental building block of the Rescale and KeySwitch
//! HE operations and the performance bottleneck of the whole accelerator
//! (paper Sec. III, Table I). This software implementation mirrors the
//! HEAX-style butterfly datapath: Cooley–Tukey decimation-in-time for the
//! forward transform, Gentleman–Sande for the inverse, with Shoup
//! precomputed twiddles so each butterfly costs one high product, one low
//! product and a correction — the same arithmetic an FPGA NTT core
//! implements in DSP slices. Butterflies use Harvey-style lazy reduction
//! (intermediates in `[0, 4q)` forward / `[0, 2q)` inverse, normalized
//! once at the end), which removes the data-dependent correction branch
//! from the hot loop without changing the canonical output.
//!
//! `log2(N)` rounds of `N/2` butterflies each give the latency model of
//! paper Eq. (4): `LAT_NTT = log2(N) · N / (2 · nc_NTT)` cycles for
//! `nc_NTT` parallel cores.

use crate::error::MathError;
use crate::modops::{add_mod, inv_mod, pow_mod, sub_mod, ShoupMul, LANES};
use crate::prime::is_prime;
use fxhenn_obs::{global, Counter};
use std::sync::{Arc, OnceLock};

/// Always-on counts of executed transforms, one per limb transformed:
/// `fxhenn_math_ntt_forward_total` and `fxhenn_math_ntt_inverse_total`
/// in the global collector. The NTT count is what an HE operation costs
/// (DESIGN.md §15), and unlike a timing it does not move with the host.
struct TransformCounters {
    forward: Arc<Counter>,
    inverse: Arc<Counter>,
}

fn transform_counters() -> &'static TransformCounters {
    static COUNTERS: OnceLock<TransformCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| TransformCounters {
        forward: global().counter("fxhenn_math_ntt_forward_total"),
        inverse: global().counter("fxhenn_math_ntt_inverse_total"),
    })
}

/// Registers the transform counters so they render (at zero) before the
/// first transform runs.
pub fn register_ntt_metrics() {
    let _ = transform_counters();
}

/// Precomputed tables for the negacyclic NTT of a fixed `(N, q)` pair.
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    q: u64,
    /// psi^brv(i) in bit-reversed order, Shoup form; index 0 unused.
    fwd: Vec<ShoupMul>,
    /// psi^-brv(i) in bit-reversed order, Shoup form; index 0 unused.
    inv: Vec<ShoupMul>,
    /// N^{-1} mod q in Shoup form, folded into the last inverse stage.
    n_inv: ShoupMul,
    /// The primitive 2N-th root of unity used to build the tables.
    psi: u64,
}

impl NttTable {
    /// Builds NTT tables for ring degree `n` and prime modulus `q`,
    /// returning a [`MathError`] when the pair admits no negacyclic NTT.
    pub fn try_new(n: usize, q: u64) -> Result<Self, MathError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(MathError::DegreeNotPowerOfTwo { n });
        }
        if !is_prime(q) {
            return Err(MathError::ModulusNotPrime { q });
        }
        if !(q - 1).is_multiple_of(2 * n as u64) {
            return Err(MathError::ModulusNotNttFriendly { q, n });
        }
        Ok(Self::build(n, q))
    }

    /// Builds NTT tables for ring degree `n` and prime modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two of at least 2, if `q` is not
    /// prime, or if `q ≢ 1 (mod 2n)` (no primitive `2n`-th root exists).
    pub fn new(n: usize, q: u64) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "ring degree must be a power of two >= 2"
        );
        assert!(is_prime(q), "NTT modulus must be prime");
        assert_eq!(
            (q - 1) % (2 * n as u64),
            0,
            "modulus must be 1 mod 2N for the negacyclic NTT"
        );
        Self::build(n, q)
    }

    fn build(n: usize, q: u64) -> Self {
        let psi = find_primitive_2n_root(n, q);
        let psi_inv = inv_mod(psi, q);
        let log_n = n.trailing_zeros();

        let mut fwd = Vec::with_capacity(n);
        let mut inv = Vec::with_capacity(n);
        for i in 0..n {
            let r = bit_reverse(i as u64, log_n);
            fwd.push(ShoupMul::new(pow_mod(psi, r, q), q));
            inv.push(ShoupMul::new(pow_mod(psi_inv, r, q), q));
        }
        let n_inv = ShoupMul::new(inv_mod(n as u64, q), q);
        Self {
            n,
            q,
            fwd,
            inv,
            n_inv,
            psi,
        }
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Prime modulus `q`.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// The primitive `2N`-th root of unity backing the tables.
    #[inline]
    pub fn root(&self) -> u64 {
        self.psi
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation domain).
    ///
    /// The inner butterfly loop steps in [`LANES`]-wide blocks of fully
    /// independent lazy butterflies (the software `P_intra`); stages with
    /// `t < LANES` and remainders take the scalar path. Bit-identical to
    /// [`NttTable::forward_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        transform_counters().forward.inc();
        let q = self.q;
        let two_q = 2 * q;
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            for i in 0..m {
                let w = &self.fwd[m + i];
                let block = &mut a[2 * i * t..2 * (i + 1) * t];
                let (lo, hi) = block.split_at_mut(t);
                let mut lo4 = lo.chunks_exact_mut(LANES);
                let mut hi4 = hi.chunks_exact_mut(LANES);
                for (xs, ys) in (&mut lo4).zip(&mut hi4) {
                    // Harvey lazy butterfly, four independent lanes:
                    // inputs < 4q in, outputs < 4q out; the only
                    // correction is one conditional subtraction of 2q on
                    // `u` (q < 2^62 keeps 4q in u64).
                    let mut u = [xs[0], xs[1], xs[2], xs[3]];
                    for lane in &mut u {
                        if *lane >= two_q {
                            *lane -= two_q;
                        }
                    }
                    let v = w.mul_lazy_x4([ys[0], ys[1], ys[2], ys[3]]); // < 2q
                    for k in 0..LANES {
                        xs[k] = u[k] + v[k]; // < 4q
                        ys[k] = u[k] + two_q - v[k]; // < 4q
                    }
                }
                for (x, y) in lo4.into_remainder().iter_mut().zip(hi4.into_remainder()) {
                    let mut u = *x;
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = w.mul_lazy(*y);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            m <<= 1;
        }
        // Normalize from the lazy range [0, 4q) back to canonical [0, q).
        for x in a.iter_mut() {
            let mut v = *x;
            if v >= two_q {
                v -= two_q;
            }
            if v >= q {
                v -= q;
            }
            *x = v;
        }
    }

    /// Scalar reference forward transform: the textbook per-butterfly
    /// loop the lane-unrolled [`NttTable::forward`] is checked against
    /// bit-for-bit in tests. Not used on the hot path.
    pub fn forward_scalar(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        transform_counters().forward.inc();
        let q = self.q;
        let two_q = 2 * q;
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            for i in 0..m {
                let w = &self.fwd[m + i];
                let block = &mut a[2 * i * t..2 * (i + 1) * t];
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let mut u = *x;
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = w.mul_lazy(*y); // < 2q
                    *x = u + v; // < 4q
                    *y = u + two_q - v; // < 4q
                }
            }
            m <<= 1;
        }
        for x in a.iter_mut() {
            let mut v = *x;
            if v >= two_q {
                v -= two_q;
            }
            if v >= q {
                v -= q;
            }
            *x = v;
        }
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient domain),
    /// including the `N^{-1}` scaling.
    ///
    /// Lane-unrolled like [`NttTable::forward`]; bit-identical to
    /// [`NttTable::inverse_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        transform_counters().inverse.inc();
        let q = self.q;
        let two_q = 2 * q;
        let mut t = 1usize;
        let mut m = self.n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = &self.inv[h + i];
                let block = &mut a[j1..j1 + 2 * t];
                let (lo, hi) = block.split_at_mut(t);
                let mut lo4 = lo.chunks_exact_mut(LANES);
                let mut hi4 = hi.chunks_exact_mut(LANES);
                for (xs, ys) in (&mut lo4).zip(&mut hi4) {
                    // Lazy Gentleman–Sande butterfly, four independent
                    // lanes: inputs < 2q in, outputs < 2q out
                    // (`u + 2q - v < 4q` is fine as a lazy multiplier
                    // input).
                    let u = [xs[0], xs[1], xs[2], xs[3]];
                    let v = [ys[0], ys[1], ys[2], ys[3]];
                    let mut d = [0u64; LANES];
                    for k in 0..LANES {
                        let mut s = u[k] + v[k]; // < 4q
                        if s >= two_q {
                            s -= two_q;
                        }
                        xs[k] = s; // < 2q
                        d[k] = u[k] + two_q - v[k];
                    }
                    let prod = w.mul_lazy_x4(d); // < 2q
                    ys.copy_from_slice(&prod);
                }
                for (x, y) in lo4.into_remainder().iter_mut().zip(hi4.into_remainder()) {
                    let u = *x;
                    let v = *y;
                    let mut s = u + v;
                    if s >= two_q {
                        s -= two_q;
                    }
                    *x = s;
                    *y = w.mul_lazy(u + two_q - v);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        // Fold in N^{-1} and normalize from [0, 2q) to canonical [0, q).
        let mut a4 = a.chunks_exact_mut(LANES);
        for xs in &mut a4 {
            let v = self.n_inv.mul_lazy_x4([xs[0], xs[1], xs[2], xs[3]]);
            for k in 0..LANES {
                xs[k] = if v[k] >= q { v[k] - q } else { v[k] };
            }
        }
        for x in a4.into_remainder() {
            let v = self.n_inv.mul_lazy(*x);
            *x = if v >= q { v - q } else { v };
        }
    }

    /// Scalar reference inverse transform (see
    /// [`NttTable::forward_scalar`]).
    pub fn inverse_scalar(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        transform_counters().inverse.inc();
        let q = self.q;
        let two_q = 2 * q;
        let mut t = 1usize;
        let mut m = self.n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = &self.inv[h + i];
                let block = &mut a[j1..j1 + 2 * t];
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = *x;
                    let v = *y;
                    let mut s = u + v; // < 4q
                    if s >= two_q {
                        s -= two_q;
                    }
                    *x = s; // < 2q
                    *y = w.mul_lazy(u + two_q - v); // < 2q
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for x in a.iter_mut() {
            let v = self.n_inv.mul_lazy(*x);
            *x = if v >= q { v - q } else { v };
        }
    }
}

/// Reverses the low `bits` bits of `x`.
#[inline]
pub fn bit_reverse(x: u64, bits: u32) -> u64 {
    if bits == 0 {
        0
    } else {
        x.reverse_bits() >> (64 - bits)
    }
}

/// Finds a primitive `2n`-th root of unity modulo `q`.
///
/// Tries successive bases `x`, computing `x^((q-1)/2n)`; a candidate `psi`
/// is primitive iff `psi^n ≡ -1 (mod q)` (since `2n` is a power of two,
/// any order dividing `2n` but not `n` must be exactly `2n`).
fn find_primitive_2n_root(n: usize, q: u64) -> u64 {
    let two_n = 2 * n as u64;
    let exp = (q - 1) / two_n;
    for x in 2..q {
        let psi = pow_mod(x, exp, q);
        if psi != 0 && pow_mod(psi, n as u64, q) == q - 1 {
            return psi;
        }
    }
    unreachable!("a primitive root always exists for prime q ≡ 1 mod 2N")
}

/// Schoolbook negacyclic polynomial multiplication, used as a test oracle.
///
/// Computes `a * b mod (X^N + 1, q)` in O(N²).
pub fn negacyclic_mul_naive(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let p = ((ai as u128 * bj as u128) % q as u128) as u64;
            let k = i + j;
            if k < n {
                out[k] = add_mod(out[k], p, q);
            } else {
                out[k - n] = sub_mod(out[k - n], p, q);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_poly(n: usize, q: u64, rng: &mut StdRng) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q)).collect()
    }

    #[test]
    fn bit_reverse_basics() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 0), 0);
        assert_eq!(bit_reverse(1, 1), 1);
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [4usize, 64, 256, 1024] {
            let q = generate_ntt_primes(30, n, 1)[0];
            let table = NttTable::new(n, q);
            let original = random_poly(n, q, &mut rng);
            let mut a = original.clone();
            table.forward(&mut a);
            assert_ne!(a, original, "transform should change a random poly");
            table.inverse(&mut a);
            assert_eq!(a, original);
        }
    }

    #[test]
    fn lane_unrolled_transforms_match_scalar_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        // Degrees below, at and far above the lane width, odd-shaped
        // stage mixes included.
        for n in [2usize, 4, 8, 16, 64, 256, 1024, 4096] {
            let q = generate_ntt_primes(30, n, 1)[0];
            let table = NttTable::new(n, q);
            let original = random_poly(n, q, &mut rng);

            let mut fast = original.clone();
            let mut reference = original.clone();
            table.forward(&mut fast);
            table.forward_scalar(&mut reference);
            assert_eq!(fast, reference, "forward n={n}");

            table.inverse(&mut fast);
            table.inverse_scalar(&mut reference);
            assert_eq!(fast, reference, "inverse n={n}");
            assert_eq!(fast, original, "roundtrip n={n}");
        }
    }

    #[test]
    fn lane_unrolled_transforms_match_scalar_at_62_bit_modulus() {
        // The lazy ranges are tightest near the 2^62 modulus bound; the
        // lane path must agree with the scalar reference there too.
        let mut rng = StdRng::seed_from_u64(13);
        let n = 128;
        let q = generate_ntt_primes(61, n, 1)[0];
        let table = NttTable::new(n, q);
        let mut fast = random_poly(n, q, &mut rng);
        let mut reference = fast.clone();
        table.forward(&mut fast);
        table.forward_scalar(&mut reference);
        assert_eq!(fast, reference);
        table.inverse(&mut fast);
        table.inverse_scalar(&mut reference);
        assert_eq!(fast, reference);
    }

    #[test]
    fn root_is_primitive() {
        let n = 128;
        let q = generate_ntt_primes(30, n, 1)[0];
        let t = NttTable::new(n, q);
        assert_eq!(pow_mod(t.root(), n as u64, q), q - 1);
        assert_eq!(pow_mod(t.root(), 2 * n as u64, q), 1);
    }

    #[test]
    fn pointwise_product_matches_naive_negacyclic() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [8usize, 32, 128] {
            let q = generate_ntt_primes(30, n, 1)[0];
            let table = NttTable::new(n, q);
            let a = random_poly(n, q, &mut rng);
            let b = random_poly(n, q, &mut rng);
            let expected = negacyclic_mul_naive(&a, &b, q);

            let mut fa = a.clone();
            let mut fb = b.clone();
            table.forward(&mut fa);
            table.forward(&mut fb);
            let mut fc: Vec<u64> = fa
                .iter()
                .zip(&fb)
                .map(|(&x, &y)| crate::modops::mul_mod(x, y, q))
                .collect();
            table.inverse(&mut fc);
            assert_eq!(fc, expected, "n={n}");
        }
    }

    #[test]
    fn transform_is_linear() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 64;
        let q = generate_ntt_primes(30, n, 1)[0];
        let table = NttTable::new(n, q);
        let a = random_poly(n, q, &mut rng);
        let b = random_poly(n, q, &mut rng);
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| add_mod(x, y, q)).collect();

        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum.clone();
        table.forward(&mut fa);
        table.forward(&mut fb);
        table.forward(&mut fsum);
        for i in 0..n {
            assert_eq!(fsum[i], add_mod(fa[i], fb[i], q));
        }
    }

    #[test]
    fn constant_poly_transforms_to_constant_diagonal() {
        let n = 16;
        let q = generate_ntt_primes(30, n, 1)[0];
        let table = NttTable::new(n, q);
        let mut a = vec![0u64; n];
        a[0] = 5;
        table.forward(&mut a);
        assert!(a.iter().all(|&x| x == 5), "NTT of constant is constant");
    }

    #[test]
    fn multiplication_by_x_rotates_negacyclically() {
        let n = 8;
        let q = generate_ntt_primes(30, n, 1)[0];
        // (X^(n-1)) * X = X^n = -1 mod X^n + 1
        let mut a = vec![0u64; n];
        a[n - 1] = 3;
        let mut x = vec![0u64; n];
        x[1] = 1;
        let prod = negacyclic_mul_naive(&a, &x, q);
        assert_eq!(prod[0], q - 3);
        assert!(prod[1..].iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "must equal ring degree")]
    fn forward_rejects_wrong_length() {
        let q = generate_ntt_primes(30, 16, 1)[0];
        let table = NttTable::new(16, q);
        let mut a = vec![0u64; 8];
        table.forward(&mut a);
    }

    #[test]
    #[should_panic(expected = "1 mod 2N")]
    fn rejects_incompatible_modulus() {
        // 97 is prime but 97-1=96 is not divisible by 2*64=128.
        NttTable::new(64, 97);
    }
}
