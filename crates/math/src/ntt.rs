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
//! (intermediates in `[0, 4q)` forward / `[0, 2q)` inverse), and the last
//! stage of each direction brings its outputs back to canonical `[0, q)`
//! — the inverse's last stage also multiplies by `N^{-1}` — so neither
//! transform makes a second pass over the array.
//!
//! The butterflies are generic over a lazy-multiply word. Below 2^30
//! every lazy value is under `4q < 2^32`, so the `Narrow` word runs each
//! Shoup product as a 32×32→64 multiply and each conditional subtraction
//! through the borrow word, and the loops vectorise on baseline x86-64
//! (SSE2 `pmuludq`): every forward stage and the inverse's last stage
//! run narrow there. Wider moduli — the 45-bit special prime, 36- and
//! 61-bit primes — and the inverse's interior stages run `Wide`:
//! 64×64→128 products, which do not vectorise, with every correction a
//! select rather than a jump the branch predictor would miss half the
//! time. Both words produce the same canonical outputs.
//!
//! `log2(N)` rounds of `N/2` butterflies each give the latency model of
//! paper Eq. (4): `LAT_NTT = log2(N) · N / (2 · nc_NTT)` cycles for
//! `nc_NTT` parallel cores.

use crate::error::MathError;
use crate::modops::{add_mod, inv_mod, mul_mod, pow_mod, sub_mod, ShoupMul};
use crate::prime::is_prime;
use fxhenn_obs::{global, Counter};
use std::hint::select_unpredictable;
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
    /// The last inverse stage's one twiddle times N^{-1}: `inv[1]·N^{-1}`.
    n_inv_w: ShoupMul,
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
        let n_inv = inv_mod(n as u64, q);
        let n_inv_w = ShoupMul::new(mul_mod(inv[1].operand(), n_inv, q), q);
        Self {
            n,
            q,
            fwd,
            inv,
            n_inv: ShoupMul::new(n_inv, q),
            n_inv_w,
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
    /// Output slot `i` holds `a(ψ^{2·brv(i)+1})`, canonical in `[0, q)`.
    ///
    /// Cooley–Tukey stages with the Harvey lazy butterfly: inputs below
    /// `4q` in, outputs below `4q` out (`q < 2^62` keeps `4q` in a `u64`).
    /// The last stage reduces its outputs to `[0, q)` itself.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        transform_counters().forward.inc();
        if self.q < NARROW_BOUND {
            self.forward_in::<Narrow>(a);
        } else {
            self.forward_in::<Wide>(a);
        }
    }

    fn forward_in<W: Word>(&self, a: &mut [u64]) {
        let q = self.q;
        let two_q = 2 * q;
        let (mut m, mut t) = (1, self.n / 2);
        while t > 1 {
            for (block, w) in a.chunks_exact_mut(2 * t).zip(&self.fwd[m..2 * m]) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let u = W::csub(*x, two_q); // < 2q
                    let v = W::mul_lazy(w, *y); // < 2q
                    *x = u + v; // < 4q
                    *y = u + two_q - v; // < 4q
                }
            }
            m <<= 1;
            t >>= 1;
        }
        for (pair, w) in a.chunks_exact_mut(2).zip(&self.fwd[m..]) {
            let u = W::csub(pair[0], two_q);
            let v = W::mul_lazy(w, pair[1]);
            pair[0] = W::csub(W::csub(u + v, two_q), q);
            pair[1] = W::csub(W::csub(u + two_q - v, two_q), q);
        }
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient domain),
    /// including the `N^{-1}` scaling; outputs canonical in `[0, q)`.
    ///
    /// Gentleman–Sande stages with the lazy butterfly: inputs below `2q`
    /// in, outputs below `2q` out (`u + 2q − v < 4q` is a fine lazy
    /// multiplier input). The last stage has one twiddle `w`, so `N^{-1}`
    /// folds into it as `x = (u + v)·N^{-1}` and `y = (u − v)·(w·N^{-1})`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        transform_counters().inverse.inc();
        if self.q < NARROW_BOUND {
            self.inverse_in::<Narrow>(a);
        } else {
            self.inverse_in::<Wide>(a);
        }
    }

    /// `W` words in the last stage only, whose two products per butterfly
    /// gain most from narrow lanes. The interior stages stay [`Wide`]:
    /// in narrow SSE2 lanes they measured slower than in wide scalar
    /// code (DESIGN.md §15, "Word width").
    fn inverse_in<W: Word>(&self, a: &mut [u64]) {
        let q = self.q;
        let two_q = 2 * q;
        let (mut h, mut t) = (self.n / 2, 1);
        while h > 1 {
            for (block, w) in a.chunks_exact_mut(2 * t).zip(&self.inv[h..2 * h]) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let (u, v) = (*x, *y);
                    *x = Wide::csub(u + v, two_q); // < 2q
                    *y = Wide::mul_lazy(w, u + two_q - v); // < 2q
                }
            }
            h >>= 1;
            t <<= 1;
        }
        let (lo, hi) = a.split_at_mut(t);
        for (x, y) in lo.iter_mut().zip(hi) {
            let (u, v) = (*x, *y);
            *x = W::csub(W::mul_lazy(&self.n_inv, u + v), q);
            *y = W::csub(W::mul_lazy(&self.n_inv_w, u + two_q - v), q);
        }
    }
}

/// Moduli below `NARROW_BOUND` run the butterflies in [`Narrow`] words:
/// every lazy value is below `4q < 2^32`.
const NARROW_BOUND: u64 = 1 << 30;

/// The lazy multiply and the conditional subtraction a butterfly body is
/// generic over, so each direction has one body and two word widths.
trait Word {
    /// `x · w mod q` in `[0, 2q)`.
    fn mul_lazy(w: &ShoupMul, x: u64) -> u64;
    /// `x − m` when `x ≥ m`, else `x`.
    fn csub(x: u64, m: u64) -> u64;
}

/// 64×64→128 Shoup products; any modulus below 2^62.
struct Wide;

/// 32×32→64 Shoup products for `q < 2^30` ([`ShoupMul::mul_lazy_narrow`]).
/// Products of masked words and a borrow-word subtraction are all
/// baseline SSE2 lane operations, so the butterfly loops vectorise.
struct Narrow;

impl Word for Wide {
    #[inline(always)]
    fn mul_lazy(w: &ShoupMul, x: u64) -> u64 {
        w.mul_lazy(x)
    }

    /// A select rather than a branch: whether a lazy residue crosses `m`
    /// is a coin flip per element, and these 64×64→128 loops do not
    /// vectorise, so a branch here mispredicts about half the time. Only
    /// for such loops: where LLVM vectorises (the pointwise kernels,
    /// `poly::lift_limb`), a plain `if` is as fast or faster.
    #[inline(always)]
    fn csub(x: u64, m: u64) -> u64 {
        select_unpredictable(x >= m, x.wrapping_sub(m), x)
    }
}

impl Word for Narrow {
    #[inline(always)]
    fn mul_lazy(w: &ShoupMul, x: u64) -> u64 {
        w.mul_lazy_narrow(x)
    }

    /// Branch-free through the borrow of `x − m`: with both below 2^32,
    /// the high word of the difference is all ones exactly when `x < m`,
    /// and `m` fits in the low word, so `m & (d >> 32)` is `m` or 0 — a
    /// subtract, a shift, a mask and an add, all SSE2 lane operations
    /// (SSE2 has no 64-bit compare).
    #[inline(always)]
    fn csub(x: u64, m: u64) -> u64 {
        debug_assert!(x >> 32 == 0 && m >> 32 == 0, "narrow csub of {x} by {m}");
        let d = x.wrapping_sub(m);
        d.wrapping_add(m & (d >> 32))
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

    /// `a(x) mod q` by Horner's rule.
    fn eval_at(a: &[u64], x: u64, q: u64) -> u64 {
        a.iter()
            .rev()
            .fold(0, |acc, &c| add_mod(mul_mod(acc, x, q), c, q))
    }

    #[test]
    fn forward_evaluates_at_odd_powers_of_psi_in_bit_reversed_order() {
        // The oracle shares no code with the butterflies: slot i of the
        // transform is the polynomial evaluated directly, in O(n²), at
        // ψ^{2·brv(i)+1}. Widths span the lazy ranges up to the 2^62 bound
        // and both sides of the narrow words' 2^30; at n = 8192 (the
        // paper's N) every 61st slot and the last are evaluated.
        let mut rng = StdRng::seed_from_u64(11);
        for bits in [30u32, 31, 45, 61] {
            for n in [2usize, 4, 8, 16, 64, 1024, 8192] {
                let q = generate_ntt_primes(bits, n, 1)[0];
                let table = NttTable::new(n, q);
                let log_n = n.trailing_zeros();
                let original = random_poly(n, q, &mut rng);
                let mut a = original.clone();
                table.forward(&mut a);
                let stride = if n > 1024 { 61 } else { 1 };
                for i in (0..n).step_by(stride).chain([n - 1]) {
                    let e = 2 * bit_reverse(i as u64, log_n) + 1;
                    let want = eval_at(&original, pow_mod(table.root(), e, q), q);
                    assert_eq!(a[i], want, "forward n={n} q={q} slot {i}");
                }
                table.inverse(&mut a);
                assert_eq!(a, original, "inverse n={n} q={q}");
            }
        }
    }

    #[test]
    fn worst_case_lazy_inputs_at_the_width_boundary() {
        // The narrow word masks its operands to 32 bits: a lazy value that
        // escaped [0, 4q) would be truncated silently in release and trip
        // the word's debug assertions in a debug build. The largest NTT
        // primes below 2^30 and 2^31 sit on either side of the bound.
        let n = 8192;
        let [narrow, wide] = [30, 31].map(|bits| generate_ntt_primes(bits, n, 1)[0]);
        assert!(narrow < NARROW_BOUND && wide >= NARROW_BOUND);
        for q in [narrow, wide] {
            worst_case_lazy_inputs(n, q);
        }
    }

    #[test]
    fn worst_case_lazy_inputs_at_61_bits() {
        let n = 4096;
        worst_case_lazy_inputs(n, generate_ntt_primes(61, n, 1)[0]);
    }

    fn worst_case_lazy_inputs(n: usize, q: u64) {
        // All q − 1 and alternating 0 / q − 1 push every lazy intermediate
        // to the top of its range; a debug build checks each sum for
        // overflow on the way.
        let table = NttTable::new(n, q);
        let all_max = vec![q - 1; n];
        let alternating: Vec<u64> = (0..n).map(|i| if i % 2 == 0 { 0 } else { q - 1 }).collect();
        for input in [&all_max, &alternating] {
            let mut a = input.clone();
            table.forward(&mut a);
            assert!(a.iter().all(|&x| x < q), "forward output must be canonical");
            table.inverse(&mut a);
            assert_eq!(&a, input, "coefficient-domain round trip");
            table.inverse(&mut a);
            table.forward(&mut a);
            assert_eq!(&a, input, "evaluation-domain round trip");
        }
        let mut fa = all_max.clone();
        let mut fb = alternating.clone();
        table.forward(&mut fa);
        table.forward(&mut fb);
        let mut fc: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| mul_mod(x, y, q))
            .collect();
        table.inverse(&mut fc);
        assert_eq!(fc, negacyclic_mul_naive(&all_max, &alternating, q));
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
