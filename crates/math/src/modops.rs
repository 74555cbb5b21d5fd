//! Scalar modular arithmetic over word-sized prime moduli.
//!
//! The FxHENN hardware maps every HE operation onto a handful of *basic
//! operations*: modular addition, modular subtraction, modular
//! multiplication and Barrett reduction (Sec. II-A of the paper). This
//! module provides the software equivalents used by the functional
//! RNS-CKKS implementation, including the precomputed-constant variants
//! ([`BarrettReducer`], [`ShoupMul`]) that mirror what an FPGA datapath
//! would instantiate.
//!
//! All moduli are required to be odd primes below 2^62 so that sums of two
//! residues never overflow a `u64` and 128-bit products never overflow a
//! `u128`.

/// Maximum supported modulus bit width.
///
/// Keeping `q < 2^62` lets `add_mod` use a single conditional subtraction
/// and keeps Barrett quotients within `u128`.
pub const MAX_MODULUS_BITS: u32 = 62;

/// Adds two residues modulo `q`.
///
/// # Examples
///
/// ```
/// use fxhenn_math::modops::add_mod;
/// assert_eq!(add_mod(5, 9, 11), 3);
/// ```
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `b` from `a` modulo `q`.
///
/// # Examples
///
/// ```
/// use fxhenn_math::modops::sub_mod;
/// assert_eq!(sub_mod(3, 9, 11), 5);
/// ```
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Negates a residue modulo `q`.
#[inline]
pub fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q);
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Multiplies two residues modulo `q` via a 128-bit product.
///
/// # Examples
///
/// ```
/// use fxhenn_math::modops::mul_mod;
/// assert_eq!(mul_mod(123_456_789, 987_654_321, 1_000_000_007), 259_106_859);
/// ```
#[inline]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Raises `base` to `exp` modulo `q` by square-and-multiply.
pub fn pow_mod(base: u64, mut exp: u64, q: u64) -> u64 {
    let mut acc: u64 = 1 % q;
    let mut b = base % q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, b, q);
        }
        b = mul_mod(b, b, q);
        exp >>= 1;
    }
    acc
}

/// Computes the multiplicative inverse of `a` modulo prime `q` using
/// Fermat's little theorem.
///
/// # Panics
///
/// Panics if `a` is zero: zero has no inverse.
pub fn inv_mod(a: u64, q: u64) -> u64 {
    assert!(!a.is_multiple_of(q), "zero has no modular inverse");
    pow_mod(a, q - 2, q)
}

/// Barrett reduction context for a fixed modulus.
///
/// Precomputes `mu = floor(2^128 / q)` (stored as a 128-bit value split
/// into the high and low 64-bit halves of `floor(2^128/q)`), which is the
/// constant a synthesized Barrett unit would hold in registers. Reduces
/// full 128-bit products without a hardware divider, exactly like the
/// paper's "Barrett Reduction" basic operation module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrettReducer {
    q: u64,
    /// floor(2^128 / q), fits in u128 because q >= 2.
    mu: u128,
}

impl BarrettReducer {
    /// Creates a reducer for modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62`.
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be at least 2");
        assert!(
            q < (1u64 << MAX_MODULUS_BITS),
            "modulus must be below 2^{MAX_MODULUS_BITS}"
        );
        // floor(2^128 / q) computed as ((2^128 - 1) / q) since q does not
        // divide 2^128 (q is odd in all our uses; for even q the -1 error
        // is still absorbed by the final correction loop).
        let mu = u128::MAX / q as u128;
        Self { q, mu }
    }

    /// The modulus this reducer reduces by.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Reduces a 128-bit value modulo `q`.
    ///
    /// Uses the high 64 bits of `x * mu / 2^128` as the quotient estimate;
    /// the estimate is at most 2 short, corrected by conditional
    /// subtractions.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        // q_est = floor(x * mu / 2^128) computed via 128x128 -> high 128 bits.
        let x_lo = x as u64 as u128;
        let x_hi = (x >> 64) as u64 as u128;
        let mu_lo = self.mu as u64 as u128;
        let mu_hi = (self.mu >> 64) as u64 as u128;

        // (x_hi*2^64 + x_lo) * (mu_hi*2^64 + mu_lo) >> 128
        let ll = x_lo * mu_lo;
        let lh = x_lo * mu_hi;
        let hl = x_hi * mu_lo;
        let hh = x_hi * mu_hi;

        let mid = (ll >> 64) + (lh & 0xFFFF_FFFF_FFFF_FFFF) + (hl & 0xFFFF_FFFF_FFFF_FFFF);
        let q_est = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);

        let mut r = x.wrapping_sub(q_est.wrapping_mul(self.q as u128)) as u64;
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Multiplies two residues modulo `q` using Barrett reduction.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Reduces an arbitrary `u64` modulo `q` with the single-word
    /// Barrett form: one high multiply by `floor(2^64 / q)` (the top
    /// word of `mu`) and a correction. The quotient estimate is at most
    /// one short for odd `q`, so the loop runs at most once.
    #[inline]
    pub fn reduce_u64(&self, x: u64) -> u64 {
        let mu_hi = (self.mu >> 64) as u64;
        let q_est = ((x as u128 * mu_hi as u128) >> 64) as u64;
        let mut r = x.wrapping_sub(q_est.wrapping_mul(self.q));
        while r >= self.q {
            r -= self.q;
        }
        r
    }
}

/// Reduces `x < 2q` into `[0, q)` with one conditional subtraction —
/// the whole cost of lifting a residue between two primes of the same
/// width.
#[inline]
pub fn reduce_below_2q(x: u64, q: u64) -> u64 {
    debug_assert!(x < 2 * q);
    if x >= q {
        x - q
    } else {
        x
    }
}

/// Shoup precomputed multiplication by a fixed operand.
///
/// For a constant `w` (e.g. an NTT twiddle factor), precomputes
/// `w' = floor(w * 2^64 / q)` so that `x * w mod q` needs a single high
/// multiplication, one low multiplication and one conditional subtraction.
/// This is the exact trick HEAX-style NTT butterflies use to fit the
/// modular multiply in a few DSP slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    w: u64,
    w_shoup: u64,
    q: u64,
}

impl ShoupMul {
    /// Precomputes the Shoup constant for operand `w` and modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `w >= q` or `q >= 2^62`.
    pub fn new(w: u64, q: u64) -> Self {
        assert!(w < q, "operand must be reduced");
        assert!(q < (1u64 << MAX_MODULUS_BITS));
        let w_shoup = ((w as u128) << 64) / q as u128;
        Self {
            w,
            w_shoup: w_shoup as u64,
            q,
        }
    }

    /// The fixed operand `w`.
    #[inline]
    pub fn operand(&self) -> u64 {
        self.w
    }

    /// Computes `x * w mod q`.
    #[inline]
    pub fn mul(&self, x: u64) -> u64 {
        debug_assert!(x < self.q);
        let hi = ((x as u128 * self.w_shoup as u128) >> 64) as u64;
        let r = x
            .wrapping_mul(self.w)
            .wrapping_sub(hi.wrapping_mul(self.q));
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Computes `x * w mod q` lazily: the result is only guaranteed to
    /// lie in `[0, 2q)`.
    ///
    /// Unlike [`Self::mul`], `x` may be *any* `u64`, not necessarily a
    /// reduced residue — the Shoup quotient error stays below 2 for every
    /// `x < 2^64`, so the lazy product is below `2q` regardless. The NTT
    /// butterflies use this to skip the per-multiplication correction and
    /// normalize in the transform's last stage.
    #[inline]
    pub fn mul_lazy(&self, x: u64) -> u64 {
        let hi = ((x as u128 * self.w_shoup as u128) >> 64) as u64;
        x.wrapping_mul(self.w)
            .wrapping_sub(hi.wrapping_mul(self.q))
    }
}

/// Number of scalar lanes the unrolled kernels process per iteration.
///
/// The software analogue of the paper's `P_intra` intra-operation
/// parallelism (DSP lanes inside one basic-operation module): the
/// pointwise loops in [`crate::poly`] step in blocks of `LANES`
/// fully independent dependency chains, which is what the autovectorizer
/// and the out-of-order core both want. Stable Rust only — the lanes are
/// plain `[u64; LANES]` arrays, no `std::simd`.
pub const LANES: usize = 4;

/// Four independent [`add_mod`] lanes.
#[inline]
pub fn add_mod_x4(a: [u64; LANES], b: [u64; LANES], q: u64) -> [u64; LANES] {
    [
        add_mod(a[0], b[0], q),
        add_mod(a[1], b[1], q),
        add_mod(a[2], b[2], q),
        add_mod(a[3], b[3], q),
    ]
}

/// Four independent [`sub_mod`] lanes.
#[inline]
pub fn sub_mod_x4(a: [u64; LANES], b: [u64; LANES], q: u64) -> [u64; LANES] {
    [
        sub_mod(a[0], b[0], q),
        sub_mod(a[1], b[1], q),
        sub_mod(a[2], b[2], q),
        sub_mod(a[3], b[3], q),
    ]
}

/// Four independent [`neg_mod`] lanes.
#[inline]
pub fn neg_mod_x4(a: [u64; LANES], q: u64) -> [u64; LANES] {
    [
        neg_mod(a[0], q),
        neg_mod(a[1], q),
        neg_mod(a[2], q),
        neg_mod(a[3], q),
    ]
}

impl BarrettReducer {
    /// Four independent [`BarrettReducer::mul`] lanes.
    #[inline]
    pub fn mul_x4(&self, a: [u64; LANES], b: [u64; LANES]) -> [u64; LANES] {
        [
            self.mul(a[0], b[0]),
            self.mul(a[1], b[1]),
            self.mul(a[2], b[2]),
            self.mul(a[3], b[3]),
        ]
    }
}

impl ShoupMul {
    /// Four independent [`ShoupMul::mul`] lanes.
    #[inline]
    pub fn mul_x4(&self, x: [u64; LANES]) -> [u64; LANES] {
        [
            self.mul(x[0]),
            self.mul(x[1]),
            self.mul(x[2]),
            self.mul(x[3]),
        ]
    }
}

/// Maps a signed integer into `[0, q)`.
#[inline]
pub fn signed_to_mod(v: i64, q: u64) -> u64 {
    if v >= 0 {
        (v as u64) % q
    } else {
        // unsigned_abs: `-v` would overflow for i64::MIN, which saturating
        // float-to-int casts of huge encoded values do produce.
        let m = v.unsigned_abs() % q;
        if m == 0 {
            0
        } else {
            q - m
        }
    }
}

/// Maps a residue in `[0, q)` to its centered representative in
/// `(-q/2, q/2]`.
#[inline]
pub fn mod_to_signed(v: u64, q: u64) -> i64 {
    debug_assert!(v < q);
    if v > q / 2 {
        -((q - v) as i64)
    } else {
        v as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = (1 << 30) - 35; // 30-bit prime 1073741789
    const Q62: u64 = 4611686018427387847; // prime just below 2^62

    #[test]
    fn add_sub_roundtrip() {
        for (a, b) in [(0, 0), (1, Q - 1), (Q / 2, Q / 2), (Q - 1, Q - 1)] {
            let s = add_mod(a, b, Q);
            assert_eq!(sub_mod(s, b, Q), a);
        }
    }

    #[test]
    fn neg_is_additive_inverse() {
        for a in [0, 1, 17, Q - 1, Q / 3] {
            assert_eq!(add_mod(a, neg_mod(a, Q), Q), 0);
        }
    }

    #[test]
    fn pow_mod_matches_repeated_multiplication() {
        let base = 12345;
        let mut acc = 1u64;
        for e in 0..20u64 {
            assert_eq!(pow_mod(base, e, Q), acc);
            acc = mul_mod(acc, base, Q);
        }
    }

    #[test]
    fn inverse_multiplies_to_one() {
        for a in [1u64, 2, 3, 12345, Q - 1] {
            assert_eq!(mul_mod(a, inv_mod(a, Q), Q), 1);
        }
    }

    #[test]
    #[should_panic(expected = "zero has no modular inverse")]
    fn inverse_of_zero_panics() {
        inv_mod(0, Q);
    }

    #[test]
    fn barrett_matches_naive_mul() {
        let red = BarrettReducer::new(Q);
        let pairs = [
            (0u64, 0u64),
            (1, Q - 1),
            (Q - 1, Q - 1),
            (123_456, 789_012),
            (Q / 2, Q / 3),
        ];
        for (a, b) in pairs {
            assert_eq!(red.mul(a, b), mul_mod(a, b, Q));
        }
    }

    #[test]
    fn barrett_reduces_large_u128() {
        let red = BarrettReducer::new(Q62);
        let big: u128 = (Q62 as u128 - 1) * (Q62 as u128 - 1);
        assert_eq!(red.reduce_u128(big), (big % Q62 as u128) as u64);
        assert_eq!(red.reduce_u128(u128::from(u64::MAX)), u64::MAX % Q62);
    }

    #[test]
    fn barrett_reduce_u64() {
        let red = BarrettReducer::new(Q);
        assert_eq!(red.reduce_u64(u64::MAX), u64::MAX % Q);
        assert_eq!(red.reduce_u64(Q), 0);
        assert_eq!(red.reduce_u64(Q - 1), Q - 1);
    }

    #[test]
    fn single_word_reductions_match_remainder_at_the_edges() {
        for bits in [30u32, 45, 61] {
            let q = crate::prime::generate_ntt_primes(bits, 1024, 1)[0];
            let red = BarrettReducer::new(q);
            for x in [
                0,
                1,
                q - 1,
                q,
                q + 1,
                2 * q - 1,
                2 * q,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(red.reduce_u64(x), x % q, "reduce_u64({x}) mod {q}");
            }
            for x in [0, 1, q - 1, q, 2 * q - 1] {
                assert_eq!(reduce_below_2q(x, q), x % q, "reduce_below_2q({x}) mod {q}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be below")]
    fn barrett_rejects_oversized_modulus() {
        BarrettReducer::new(1 << 62);
    }

    #[test]
    fn shoup_matches_naive_for_many_operands() {
        for w in [0u64, 1, 2, Q - 1, Q / 2, 999_983] {
            let sm = ShoupMul::new(w, Q);
            for x in [0u64, 1, Q - 1, Q / 7, 424_242] {
                assert_eq!(sm.mul(x), mul_mod(x, w, Q), "w={w} x={x}");
            }
        }
    }

    #[test]
    fn shoup_near_modulus_boundary() {
        let sm = ShoupMul::new(Q62 - 1, Q62);
        assert_eq!(sm.mul(Q62 - 1), mul_mod(Q62 - 1, Q62 - 1, Q62));
    }

    #[test]
    fn shoup_lazy_stays_below_2q_and_agrees_mod_q() {
        // mul_lazy accepts *unreduced* inputs (anything in u64) and must
        // return the right residue class in [0, 2q) — the contract the
        // lazy NTT butterflies rely on.
        for (w, q) in [(999_983u64, Q), (Q - 1, Q), (Q62 - 1, Q62)] {
            let sm = ShoupMul::new(w, q);
            for x in [0u64, 1, q - 1, 2 * q - 1, 3 * q + 7, u64::MAX] {
                let r = sm.mul_lazy(x);
                assert!(r < 2 * q, "w={w} x={x}: lazy result {r} >= 2q");
                assert_eq!(r % q, mul_mod(x % q, w, q), "w={w} x={x}");
            }
        }
    }

    #[test]
    fn lane_helpers_match_scalar() {
        let a = [0u64, 1, Q / 2, Q - 1];
        let b = [Q - 1, Q / 3, 17, 1];
        assert_eq!(
            add_mod_x4(a, b, Q),
            [
                add_mod(a[0], b[0], Q),
                add_mod(a[1], b[1], Q),
                add_mod(a[2], b[2], Q),
                add_mod(a[3], b[3], Q)
            ]
        );
        assert_eq!(
            sub_mod_x4(a, b, Q),
            [
                sub_mod(a[0], b[0], Q),
                sub_mod(a[1], b[1], Q),
                sub_mod(a[2], b[2], Q),
                sub_mod(a[3], b[3], Q)
            ]
        );
        assert_eq!(
            neg_mod_x4(a, Q),
            [neg_mod(a[0], Q), neg_mod(a[1], Q), neg_mod(a[2], Q), neg_mod(a[3], Q)]
        );
        let red = BarrettReducer::new(Q);
        assert_eq!(
            red.mul_x4(a, b),
            [red.mul(a[0], b[0]), red.mul(a[1], b[1]), red.mul(a[2], b[2]), red.mul(a[3], b[3])]
        );
        let sm = ShoupMul::new(999_983, Q);
        assert_eq!(sm.mul_x4(a), [sm.mul(a[0]), sm.mul(a[1]), sm.mul(a[2]), sm.mul(a[3])]);
    }

    #[test]
    fn signed_conversion_roundtrip() {
        for v in [-5i64, -1, 0, 1, 5, 1 << 20, -(1 << 20)] {
            let m = signed_to_mod(v, Q);
            assert_eq!(mod_to_signed(m, Q), v);
        }
    }

    #[test]
    fn signed_to_mod_wraps_large_negative() {
        assert_eq!(signed_to_mod(-(Q as i64), Q), 0);
        assert_eq!(signed_to_mod(-(Q as i64) - 3, Q), Q - 3);
    }
}
