//! RNS polynomials in `Z_Q[X]/(X^N + 1)`.
//!
//! An [`RnsPoly`] stores one residue polynomial per prime of its basis and
//! tracks whether it currently lives in the coefficient or the NTT
//! (evaluation) domain. The HE operation modules of the paper operate on
//! exactly these per-prime residue polynomials; the level `L` of a
//! ciphertext is the number of residue components (`poly_{q_i}` in paper
//! Sec. V-B).
//!
//! The per-prime loops are the hot path of every HE operation, so they are
//! scheduled through [`crate::par`] (one unit of work per RNS limb,
//! mirroring the paper's `nc_NTT` parallel NTT cores) and use the Barrett
//! and Shoup reduction primitives from [`crate::modops`] instead of a
//! `u128` division per coefficient. Both choices are bit-identical to the
//! naive serial path. The `*_into` / fused variants exist so the
//! evaluator can reuse scratch buffers instead of cloning on every op.

use crate::modops::{
    add_mod, add_mod_x4, neg_mod, neg_mod_x4, reduce_below_2q, sub_mod, sub_mod_x4, BarrettReducer,
    ShoupMul, LANES,
};
use crate::ntt::NttTable;
use crate::par;

/// Applies `f4` to aligned [`LANES`]-wide blocks of `dst` zipped with
/// `src`, and `f1` to the scalar remainder. The lane callbacks receive
/// four independent values, so the four dependency chains stay visible
/// to the autovectorizer — the same `P_intra` idiom as the NTT
/// butterflies.
#[inline]
fn zip_lanes(
    dst: &mut [u64],
    src: &[u64],
    mut f4: impl FnMut([u64; LANES], [u64; LANES]) -> [u64; LANES],
    mut f1: impl FnMut(u64, u64) -> u64,
) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d4 = dst.chunks_exact_mut(LANES);
    let mut s4 = src.chunks_exact(LANES);
    for (xs, ys) in (&mut d4).zip(&mut s4) {
        let r = f4([xs[0], xs[1], xs[2], xs[3]], [ys[0], ys[1], ys[2], ys[3]]);
        xs.copy_from_slice(&r);
    }
    for (x, &y) in d4.into_remainder().iter_mut().zip(s4.remainder()) {
        *x = f1(*x, y);
    }
}

/// Three-operand variant of [`zip_lanes`]: `dst[j] = f(dst[j], a[j], b[j])`.
#[inline]
fn zip_lanes2(
    dst: &mut [u64],
    a: &[u64],
    b: &[u64],
    mut f4: impl FnMut([u64; LANES], [u64; LANES], [u64; LANES]) -> [u64; LANES],
    mut f1: impl FnMut(u64, u64, u64) -> u64,
) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let mut d4 = dst.chunks_exact_mut(LANES);
    let mut a4 = a.chunks_exact(LANES);
    let mut b4 = b.chunks_exact(LANES);
    for ((ds, xs), ys) in (&mut d4).zip(&mut a4).zip(&mut b4) {
        let r = f4(
            [ds[0], ds[1], ds[2], ds[3]],
            [xs[0], xs[1], xs[2], xs[3]],
            [ys[0], ys[1], ys[2], ys[3]],
        );
        ds.copy_from_slice(&r);
    }
    for ((d, &x), &y) in d4
        .into_remainder()
        .iter_mut()
        .zip(a4.remainder())
        .zip(b4.remainder())
    {
        *d = f1(*d, x, y);
    }
}

/// In-place single-operand variant of [`zip_lanes`].
#[inline]
fn map_lanes(
    dst: &mut [u64],
    mut f4: impl FnMut([u64; LANES]) -> [u64; LANES],
    mut f1: impl FnMut(u64) -> u64,
) {
    let mut d4 = dst.chunks_exact_mut(LANES);
    for xs in &mut d4 {
        let r = f4([xs[0], xs[1], xs[2], xs[3]]);
        xs.copy_from_slice(&r);
    }
    for x in d4.into_remainder() {
        *x = f1(*x);
    }
}

/// Which domain the residue coefficients are expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Power-basis coefficients.
    Coeff,
    /// NTT / evaluation domain (slot-wise products are ring products).
    Ntt,
}

/// Read-only access to the residue limbs of an RNS polynomial,
/// independent of how they are stored.
///
/// Implemented by [`RnsPoly`] (one owned `Vec<u64>` per limb) and by
/// [`BorrowedRnsPoly`] (a contiguous `&[u64]` window over a wire buffer).
/// The kernels below take their *read-only* operands through this trait,
/// so a decoded-in-place ciphertext view can feed the evaluator without
/// first being copied into owned vectors. `Sync` is a supertrait because
/// the per-limb loops may fan out across threads via [`crate::par`].
pub trait PolyLimbs: Sync {
    /// Ring degree `N`.
    fn degree(&self) -> usize;
    /// Number of residue components (the ciphertext level `L`).
    fn level_count(&self) -> usize;
    /// Current domain.
    fn domain(&self) -> Domain;
    /// Residue polynomial for prime `i` (`N` coefficients).
    fn limb(&self, i: usize) -> &[u64];
}

impl PolyLimbs for RnsPoly {
    #[inline]
    fn degree(&self) -> usize {
        self.n
    }
    #[inline]
    fn level_count(&self) -> usize {
        self.residues.len()
    }
    #[inline]
    fn domain(&self) -> Domain {
        self.domain
    }
    #[inline]
    fn limb(&self, i: usize) -> &[u64] {
        &self.residues[i]
    }
}

/// An RNS polynomial borrowed from a contiguous word buffer: `levels`
/// limbs of `n` words each, limb-major — the v2 wire layout's evaluation
/// order. Construction only checks the shape; residue range checks are
/// the caller's job (`validate_ciphertext`-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BorrowedRnsPoly<'a> {
    n: usize,
    levels: usize,
    domain: Domain,
    words: &'a [u64],
}

impl<'a> BorrowedRnsPoly<'a> {
    /// Wraps `words` as `levels` limbs of degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two, `levels == 0`, or
    /// `words.len() != n * levels`.
    pub fn new(words: &'a [u64], n: usize, levels: usize, domain: Domain) -> Self {
        assert!(n.is_power_of_two(), "degree must be a power of two");
        assert!(levels > 0, "a polynomial needs at least one residue");
        assert_eq!(words.len(), n * levels, "word count must equal n * levels");
        Self {
            n,
            levels,
            domain,
            words,
        }
    }

    /// The whole limb-major word window.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Copies the borrowed limbs into an owned [`RnsPoly`].
    pub fn to_owned_poly(&self) -> RnsPoly {
        let residues = (0..self.levels)
            .map(|i| self.words[i * self.n..(i + 1) * self.n].to_vec())
            .collect();
        RnsPoly {
            n: self.n,
            residues,
            domain: self.domain,
        }
    }
}

impl<P: PolyLimbs + ?Sized> PolyLimbs for &P {
    #[inline]
    fn degree(&self) -> usize {
        (**self).degree()
    }
    #[inline]
    fn level_count(&self) -> usize {
        (**self).level_count()
    }
    #[inline]
    fn domain(&self) -> Domain {
        (**self).domain()
    }
    #[inline]
    fn limb(&self, i: usize) -> &[u64] {
        (**self).limb(i)
    }
}

impl PolyLimbs for BorrowedRnsPoly<'_> {
    #[inline]
    fn degree(&self) -> usize {
        self.n
    }
    #[inline]
    fn level_count(&self) -> usize {
        self.levels
    }
    #[inline]
    fn domain(&self) -> Domain {
        self.domain
    }
    #[inline]
    fn limb(&self, i: usize) -> &[u64] {
        &self.words[i * self.n..(i + 1) * self.n]
    }
}

fn check_compatible<A: PolyLimbs + ?Sized, B: PolyLimbs + ?Sized>(a: &A, b: &B) {
    assert_eq!(a.degree(), b.degree(), "degree mismatch");
    assert_eq!(
        a.level_count(),
        b.level_count(),
        "level mismatch: {} vs {}",
        a.level_count(),
        b.level_count()
    );
    assert_eq!(
        a.domain(),
        b.domain(),
        "domain mismatch: {} vs {}",
        a.domain(),
        b.domain()
    );
}

/// `out = a * b` pointwise over any two limb sources (both NTT-domain),
/// reusing `out`'s buffers. The generic twin of
/// [`RnsPoly::mul_pointwise_into`] for borrowed×borrowed products.
///
/// # Panics
///
/// Panics on shape/domain mismatch or if `moduli` does not match the
/// level count.
pub fn mul_pointwise_of<A: PolyLimbs + ?Sized, B: PolyLimbs + ?Sized>(
    a: &A,
    b: &B,
    moduli: &[u64],
    out: &mut RnsPoly,
) {
    check_compatible(a, b);
    assert_eq!(a.domain(), Domain::Ntt, "pointwise product needs NTT domain");
    assert_eq!(moduli.len(), a.level_count(), "one modulus per level");
    out.reshape(a.degree(), a.level_count(), Domain::Ntt);
    let grain = par::grain_linear(a.degree());
    par::for_each_indexed(&mut out.residues, grain, |i, o| {
        let red = BarrettReducer::new(moduli[i]);
        zip_lanes2(
            o,
            a.limb(i),
            b.limb(i),
            |_, x, y| red.mul_x4(x, y),
            |_, x, y| red.mul(x, y),
        );
    });
}

/// Lifts one residue limb into another prime: `out[k] = src[k] mod q_t`
/// for `src[k] ∈ [0, q_src)`, by the cheapest exact form — a copy when
/// `q_src ≤ q_t`, one conditional subtraction when `q_src < 2·q_t`,
/// single-word Barrett otherwise.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn lift_limb(src: &[u64], q_src: u64, target: &BarrettReducer, out: &mut [u64]) {
    assert_eq!(src.len(), out.len(), "limb length mismatch");
    let q_t = target.modulus();
    if q_src <= q_t {
        out.copy_from_slice(src);
    } else if q_src < 2 * q_t {
        for (o, &c) in out.iter_mut().zip(src) {
            *o = reduce_below_2q(c, q_t);
        }
    } else {
        for (o, &c) in out.iter_mut().zip(src) {
            *o = target.reduce_u64(c);
        }
    }
}

/// Centred variant of [`lift_limb`]: `src[k] ∈ [0, q_src)` is read as
/// its representative in `(−q_src/2, q_src/2]` and `out[k]` is that
/// signed value's canonical residue modulo `q_t` — what an exact RNS
/// division subtracts so its rounding error stays within ±1/2.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn lift_limb_centered(src: &[u64], q_src: u64, target: &BarrettReducer, out: &mut [u64]) {
    assert_eq!(src.len(), out.len(), "limb length mismatch");
    let q_t = target.modulus();
    let half = q_src / 2;
    // |centred value| ≤ half, so it is already reduced when half < q_t.
    let small = half < q_t;
    for (o, &c) in out.iter_mut().zip(src) {
        let negative = c > half;
        let magnitude = if negative { q_src - c } else { c };
        let r = if small {
            magnitude
        } else {
            target.reduce_u64(magnitude)
        };
        *o = if negative && r != 0 { q_t - r } else { r };
    }
}

/// `r[k] = (x[k] − r[k])·inv mod q`: the slot-wise tail of an exact
/// division in the evaluation domain (`r` arrives holding the forward
/// transform of the removed limb's centred residue).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sub_from_and_scale(r: &mut [u64], x: &[u64], inv: &ShoupMul, q: u64) {
    assert_eq!(r.len(), x.len(), "limb length mismatch");
    zip_lanes(
        r,
        x,
        |r4, x4| inv.mul_x4(sub_mod_x4(x4, r4, q)),
        |r1, x1| inv.mul(sub_mod(x1, r1, q)),
    );
}

/// Slots per block of [`dot2_lazy`]: both accumulator blocks (8 KiB
/// together at `u128`) stay in L1 while the terms stream past.
const DOT_BLOCK: usize = 256;

/// An unreduced accumulator of [`dot2_lazy`]: `u64` for moduli whose
/// squares leave room for a fold (products are then 32×32→64, which
/// vectorise), `u128` for every other supported modulus.
trait DotAcc: Copy + From<u64> {
    /// The largest value the accumulator holds.
    const MAX: u128;
    /// `self + d·k`, for `d, k < q`.
    fn mac(self, d: u64, k: u64) -> Self;
    /// The canonical residue of `self` modulo `red`'s modulus.
    fn reduce(self, red: &BarrettReducer) -> u64;
}

impl DotAcc for u64 {
    const MAX: u128 = u64::MAX as u128;

    #[inline(always)]
    fn mac(self, d: u64, k: u64) -> Self {
        // Both factors are below q < 2^32: masking tells the compiler so,
        // and the product is a 32×32→64 multiply.
        const LOW: u64 = 0xFFFF_FFFF;
        self + (d & LOW) * (k & LOW)
    }

    #[inline(always)]
    fn reduce(self, red: &BarrettReducer) -> u64 {
        red.reduce_u64(self)
    }
}

impl DotAcc for u128 {
    const MAX: u128 = u128::MAX;

    #[inline(always)]
    fn mac(self, d: u64, k: u64) -> Self {
        self + u128::from(d) * u128::from(k)
    }

    #[inline(always)]
    fn reduce(self, red: &BarrettReducer) -> u64 {
        red.reduce_u128(self)
    }
}

/// Terms an `A` accumulator absorbs before it must be folded back below
/// `q`: `⌊A::MAX / (q−1)²⌋`. A fold leaves a value below `q`, which
/// counts as one term, so a cap below 2 could never make progress.
fn dot_cap<A: DotAcc>(q: u64) -> usize {
    let qm1 = u128::from(q - 1);
    usize::try_from(A::MAX / (qm1 * qm1)).unwrap_or(usize::MAX)
}

/// Whether [`dot2_lazy`] accumulates in `u64` for modulus `q`: the
/// factors fit 32 bits and a folded accumulator still takes a product.
fn narrow_dot(q: u64) -> bool {
    q <= 1 << 32 && dot_cap::<u64>(q) >= 2
}

/// One term of [`dot2_lazy`] over one block: `acc0 += d·k0`, `acc1 += d·k1`.
#[inline]
fn mac2_block<A: DotAcc>(
    acc0: &mut [A],
    acc1: &mut [A],
    digits: impl Iterator<Item = u64>,
    k0: &[u64],
    k1: &[u64],
) {
    for ((x0, x1), (d, (&k0, &k1))) in acc0
        .iter_mut()
        .zip(acc1.iter_mut())
        .zip(digits.zip(k0.iter().zip(k1)))
    {
        *x0 = x0.mac(d, k0);
        *x1 = x1.mac(d, k1);
    }
}

/// The key-switch inner products against both key halves at once:
/// `out0[k] = Σ_j a_j[π(k)]·b0_j[k]` and `out1[k] = Σ_j a_j[π(k)]·b1_j[k]`
/// modulo `q`, where `π` is `perm` (the identity when `None`) and every
/// input word is reduced below `q`.
///
/// Products accumulate unreduced — in `u64` when `q < 2^32` and
/// `(q−1)²` leaves room for a fold (at least 16 terms at 30 bits), in
/// `u128` otherwise — and each slot pays **one** Barrett reduction per
/// output; an accumulator is folded back below `q` just before
/// `count·(q−1)²` could overflow, so any term count is safe at any
/// supported modulus. The result is the canonical residue of the exact
/// sum — bit-identical to an eager multiply-reduce-add loop.
///
/// # Panics
///
/// Panics unless `a`, `b0`, `b1` have equal term counts and every
/// slice (and `perm`, if given) has the outputs' length, or if a
/// permutation entry is out of range.
pub fn dot2_lazy(
    a: &[&[u64]],
    perm: Option<&[u32]>,
    b0: &[&[u64]],
    b1: &[&[u64]],
    red: &BarrettReducer,
    out0: &mut [u64],
    out1: &mut [u64],
) {
    let n = out0.len();
    assert_eq!(out1.len(), n, "output length mismatch");
    assert!(
        a.len() == b0.len() && a.len() == b1.len(),
        "one key term per digit"
    );
    assert!(
        a.iter().chain(b0).chain(b1).all(|s| s.len() == n),
        "term length mismatch"
    );
    assert!(
        perm.is_none_or(|p| p.len() == n),
        "permutation length mismatch"
    );
    if narrow_dot(red.modulus()) {
        dot2_blocks::<u64>(a, perm, b0, b1, red, out0, out1);
    } else {
        dot2_blocks::<u128>(a, perm, b0, b1, red, out0, out1);
    }
}

fn dot2_blocks<A: DotAcc>(
    a: &[&[u64]],
    perm: Option<&[u32]>,
    b0: &[&[u64]],
    b1: &[&[u64]],
    red: &BarrettReducer,
    out0: &mut [u64],
    out1: &mut [u64],
) {
    let n = out0.len();
    // Terms an accumulator can absorb before it must be folded: at least
    // 16 for `u128` at any modulus below 2^62 and for `u64` at 30 bits.
    let cap = dot_cap::<A>(red.modulus());
    let mut acc0 = [A::from(0); DOT_BLOCK];
    let mut acc1 = [A::from(0); DOT_BLOCK];
    for base in (0..n).step_by(DOT_BLOCK) {
        let block = base..n.min(base + DOT_BLOCK);
        let (acc0, acc1) = (&mut acc0[..block.len()], &mut acc1[..block.len()]);
        acc0.fill(A::from(0));
        acc1.fill(A::from(0));
        let mut pending = 0usize;
        for ((aj, k0), k1) in a.iter().zip(b0).zip(b1) {
            if pending == cap {
                for x in acc0.iter_mut().chain(acc1.iter_mut()) {
                    *x = A::from(x.reduce(red));
                }
                pending = 1;
            }
            pending += 1;
            let (k0, k1) = (&k0[block.clone()], &k1[block.clone()]);
            match perm {
                None => mac2_block(acc0, acc1, aj[block.clone()].iter().copied(), k0, k1),
                Some(p) => {
                    let gathered = p[block.clone()].iter().map(|&i| aj[i as usize]);
                    mac2_block(acc0, acc1, gathered, k0, k1);
                }
            }
        }
        for ((o0, o1), (x0, x1)) in out0[block.clone()]
            .iter_mut()
            .zip(&mut out1[block])
            .zip(acc0.iter().zip(acc1.iter()))
        {
            *o0 = x0.reduce(red);
            *o1 = x1.reduce(red);
        }
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Domain::Coeff => f.write_str("coefficient"),
            Domain::Ntt => f.write_str("NTT"),
        }
    }
}

/// A polynomial over an RNS basis: `len` residue vectors of `N`
/// coefficients each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    n: usize,
    residues: Vec<Vec<u64>>,
    domain: Domain,
}

impl RnsPoly {
    /// The zero polynomial over `levels` primes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `levels == 0`.
    pub fn zero(n: usize, levels: usize, domain: Domain) -> Self {
        assert!(n.is_power_of_two(), "degree must be a power of two");
        assert!(levels > 0, "a polynomial needs at least one residue");
        Self {
            n,
            residues: vec![vec![0u64; n]; levels],
            domain,
        }
    }

    /// Builds a polynomial from explicit residue vectors.
    ///
    /// # Panics
    ///
    /// Panics if the residue vectors are empty or of unequal length.
    pub fn from_residues(residues: Vec<Vec<u64>>, domain: Domain) -> Self {
        assert!(!residues.is_empty(), "need at least one residue vector");
        let n = residues[0].len();
        assert!(n.is_power_of_two(), "degree must be a power of two");
        assert!(
            residues.iter().all(|r| r.len() == n),
            "all residue vectors must have the same length"
        );
        Self {
            n,
            residues,
            domain,
        }
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Number of residue components (the ciphertext level `L`).
    #[inline]
    pub fn level_count(&self) -> usize {
        self.residues.len()
    }

    /// Current domain.
    #[inline]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Residue polynomial for prime `i`.
    #[inline]
    pub fn component(&self, i: usize) -> &[u64] {
        &self.residues[i]
    }

    /// Mutable residue polynomial for prime `i`.
    #[inline]
    pub fn component_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.residues[i]
    }

    /// All residue polynomials, mutably — for callers that fill the limbs
    /// in parallel via [`crate::par::for_each_indexed`]. Callers must keep
    /// every value reduced below its prime and must not change the vector
    /// lengths.
    #[inline]
    pub fn components_mut(&mut self) -> &mut [Vec<u64>] {
        &mut self.residues
    }

    /// Reconfigures this polynomial in place to `levels` components of
    /// degree `n` in `domain`, reusing the existing buffers where
    /// possible. The coefficient contents are unspecified afterwards; use
    /// [`RnsPoly::reshape_zeroed`] when the caller accumulates into the
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `levels == 0`.
    pub fn reshape(&mut self, n: usize, levels: usize, domain: Domain) {
        assert!(n.is_power_of_two(), "degree must be a power of two");
        assert!(levels > 0, "a polynomial needs at least one residue");
        self.n = n;
        self.domain = domain;
        self.residues.truncate(levels);
        for r in &mut self.residues {
            r.resize(n, 0);
        }
        while self.residues.len() < levels {
            self.residues.push(vec![0u64; n]);
        }
    }

    /// Like [`RnsPoly::reshape`], but additionally zero-fills every
    /// component, yielding the zero polynomial without fresh allocations.
    pub fn reshape_zeroed(&mut self, n: usize, levels: usize, domain: Domain) {
        self.reshape(n, levels, domain);
        for r in &mut self.residues {
            r.fill(0);
        }
    }

    /// Makes `self` a copy of `other`, reusing `self`'s buffers instead of
    /// allocating like `clone()` does.
    pub fn copy_from(&mut self, other: &RnsPoly) {
        self.n = other.n;
        self.domain = other.domain;
        self.residues.truncate(other.residues.len());
        for (r, src) in self.residues.iter_mut().zip(&other.residues) {
            r.clear();
            r.extend_from_slice(src);
        }
        for src in other.residues.iter().skip(self.residues.len()) {
            self.residues.push(src.clone());
        }
    }

    /// Drops the last residue component, reducing the level by one (the
    /// tail of a Rescale).
    ///
    /// # Panics
    ///
    /// Panics if only one component remains.
    pub fn drop_last_component(&mut self) -> Vec<u64> {
        assert!(
            self.residues.len() > 1,
            "cannot drop the only residue component"
        );
        self.residues.pop().expect("non-empty by assertion")
    }

    /// Appends a residue component (used when raising to the keyswitch
    /// basis).
    ///
    /// # Panics
    ///
    /// Panics if the component length differs from the degree.
    pub fn push_component(&mut self, comp: Vec<u64>) {
        assert_eq!(comp.len(), self.n, "component length must equal degree");
        self.residues.push(comp);
    }

    fn assert_compatible<P: PolyLimbs + ?Sized>(&self, other: &P) {
        check_compatible(self, other);
    }

    /// Makes `self` a copy of any limb source, reusing `self`'s buffers
    /// like [`RnsPoly::copy_from`] (its generic twin for borrowed views).
    pub fn copy_from_limbs<P: PolyLimbs + ?Sized>(&mut self, other: &P) {
        let (n, levels) = (other.degree(), other.level_count());
        self.n = n;
        self.domain = other.domain();
        self.residues.truncate(levels);
        for (i, r) in self.residues.iter_mut().enumerate() {
            r.clear();
            r.extend_from_slice(other.limb(i));
        }
        for i in self.residues.len()..levels {
            self.residues.push(other.limb(i).to_vec());
        }
    }

    /// `self += other` componentwise.
    ///
    /// # Panics
    ///
    /// Panics on degree, level or domain mismatch, or if `moduli` does not
    /// match the level count.
    pub fn add_assign<P: PolyLimbs + ?Sized>(&mut self, other: &P, moduli: &[u64]) {
        self.assert_compatible(other);
        assert_eq!(moduli.len(), self.residues.len(), "one modulus per level");
        let grain = par::grain_linear(self.n);
        par::for_each_indexed(&mut self.residues, grain, |i, a| {
            let q = moduli[i];
            zip_lanes(
                a,
                other.limb(i),
                |x, y| add_mod_x4(x, y, q),
                |x, y| add_mod(x, y, q),
            );
        });
    }

    /// `self -= other` componentwise.
    pub fn sub_assign<P: PolyLimbs + ?Sized>(&mut self, other: &P, moduli: &[u64]) {
        self.assert_compatible(other);
        assert_eq!(moduli.len(), self.residues.len(), "one modulus per level");
        let grain = par::grain_linear(self.n);
        par::for_each_indexed(&mut self.residues, grain, |i, a| {
            let q = moduli[i];
            zip_lanes(
                a,
                other.limb(i),
                |x, y| sub_mod_x4(x, y, q),
                |x, y| sub_mod(x, y, q),
            );
        });
    }

    /// `self = -self` componentwise.
    pub fn neg_assign(&mut self, moduli: &[u64]) {
        assert_eq!(moduli.len(), self.residues.len(), "one modulus per level");
        let grain = par::grain_linear(self.n);
        par::for_each_indexed(&mut self.residues, grain, |i, r| {
            let q = moduli[i];
            map_lanes(r, |x| neg_mod_x4(x, q), |x| neg_mod(x, q));
        });
    }

    /// Pointwise (slot-wise) product; both polynomials must be in the NTT
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if either polynomial is in the coefficient domain, or on
    /// shape mismatch.
    pub fn mul_pointwise_assign<P: PolyLimbs + ?Sized>(&mut self, other: &P, moduli: &[u64]) {
        self.assert_compatible(other);
        assert_eq!(self.domain, Domain::Ntt, "pointwise product needs NTT domain");
        assert_eq!(moduli.len(), self.residues.len(), "one modulus per level");
        let grain = par::grain_linear(self.n);
        par::for_each_indexed(&mut self.residues, grain, |i, a| {
            let red = BarrettReducer::new(moduli[i]);
            zip_lanes(
                a,
                other.limb(i),
                |x, y| red.mul_x4(x, y),
                |x, y| red.mul(x, y),
            );
        });
    }

    /// `out = self * other` pointwise, reusing `out`'s buffers. Equivalent
    /// to `out = self.clone()` followed by
    /// [`RnsPoly::mul_pointwise_assign`], without the allocation.
    pub fn mul_pointwise_into<P: PolyLimbs + ?Sized>(
        &self,
        other: &P,
        moduli: &[u64],
        out: &mut RnsPoly,
    ) {
        mul_pointwise_of(self, other, moduli, out);
    }

    /// Fused multiply-accumulate: `self += a * b` pointwise. Replaces the
    /// `clone`-multiply-add sequence of the evaluator's hot path with a
    /// single pass and zero allocations.
    ///
    /// # Panics
    ///
    /// Panics unless all three polynomials share degree, level count and
    /// the NTT domain.
    pub fn add_mul_pointwise<A: PolyLimbs + ?Sized, B: PolyLimbs + ?Sized>(
        &mut self,
        a: &A,
        b: &B,
        moduli: &[u64],
    ) {
        self.assert_compatible(a);
        check_compatible(a, b);
        assert_eq!(self.domain, Domain::Ntt, "pointwise product needs NTT domain");
        assert_eq!(moduli.len(), self.residues.len(), "one modulus per level");
        let grain = par::grain_linear(self.n);
        par::for_each_indexed(&mut self.residues, grain, |i, acc| {
            let q = moduli[i];
            let red = BarrettReducer::new(q);
            zip_lanes2(
                acc,
                a.limb(i),
                b.limb(i),
                |z, x, y| add_mod_x4(z, red.mul_x4(x, y), q),
                |z, x, y| add_mod(z, red.mul(x, y), q),
            );
        });
    }

    /// Fused multiply-accumulate against a component *selection* of `b`:
    /// `self[i] += a[i] * b[b_indices[i]]` pointwise — the key-switch
    /// inner product one eagerly reduced term at a time (the key
    /// polynomial lives in the full `max_level + special` basis and is
    /// addressed through the extended index list). The evaluator runs
    /// [`dot2_lazy`] instead; this is the reference form its oracle test
    /// accumulates with.
    ///
    /// # Panics
    ///
    /// Panics unless `self` and `a` are shape-compatible, all three are in
    /// the NTT domain with equal degree, and every index is in range.
    pub fn add_mul_pointwise_select<A: PolyLimbs + ?Sized, B: PolyLimbs + ?Sized>(
        &mut self,
        a: &A,
        b: &B,
        b_indices: &[usize],
        moduli: &[u64],
    ) {
        self.assert_compatible(a);
        assert_eq!(self.domain, Domain::Ntt, "pointwise product needs NTT domain");
        assert_eq!(b.domain(), Domain::Ntt, "pointwise product needs NTT domain");
        assert_eq!(b.degree(), self.n, "degree mismatch");
        assert_eq!(
            b_indices.len(),
            self.residues.len(),
            "one b-component index per level"
        );
        assert_eq!(moduli.len(), self.residues.len(), "one modulus per level");
        assert!(
            b_indices.iter().all(|&j| j < b.level_count()),
            "b-component index out of range"
        );
        let grain = par::grain_linear(self.n);
        par::for_each_indexed(&mut self.residues, grain, |i, acc| {
            let q = moduli[i];
            let red = BarrettReducer::new(q);
            let bs = b.limb(b_indices[i]);
            zip_lanes2(
                acc,
                a.limb(i),
                bs,
                |z, x, y| add_mod_x4(z, red.mul_x4(x, y), q),
                |z, x, y| add_mod(z, red.mul(x, y), q),
            );
        });
    }

    /// Multiplies every coefficient of component `i` by the scalar
    /// `scalars[i]` (one scalar residue per prime).
    pub fn mul_scalar_assign(&mut self, scalars: &[u64], moduli: &[u64]) {
        assert_eq!(moduli.len(), self.residues.len(), "one modulus per level");
        assert_eq!(scalars.len(), self.residues.len(), "one scalar per level");
        let grain = par::grain_linear(self.n);
        par::for_each_indexed(&mut self.residues, grain, |i, r| {
            let q = moduli[i];
            let s = ShoupMul::new(scalars[i] % q, q);
            map_lanes(r, |x| s.mul_x4(x), |x| s.mul(x));
        });
    }

    /// Converts to the NTT domain in place; a no-op if already there.
    ///
    /// # Panics
    ///
    /// Panics if `tables.len()` does not match the level count or a table's
    /// modulus is inconsistent.
    pub fn to_ntt(&mut self, tables: &[&NttTable]) {
        if self.domain == Domain::Ntt {
            return;
        }
        assert_eq!(tables.len(), self.residues.len(), "one table per level");
        let grain = par::grain_ntt(self.n);
        par::for_each_indexed(&mut self.residues, grain, |i, r| tables[i].forward(r));
        self.domain = Domain::Ntt;
    }

    /// Converts to the coefficient domain in place; a no-op if already
    /// there.
    pub fn to_coeff(&mut self, tables: &[&NttTable]) {
        if self.domain == Domain::Coeff {
            return;
        }
        assert_eq!(tables.len(), self.residues.len(), "one table per level");
        let grain = par::grain_ntt(self.n);
        par::for_each_indexed(&mut self.residues, grain, |i, r| tables[i].inverse(r));
        self.domain = Domain::Coeff;
    }

    /// Returns a new polynomial holding only the selected residue
    /// components, in the given order (e.g. a level prefix, or a level
    /// prefix plus the special prime).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of range.
    pub fn select_components(&self, indices: &[usize]) -> RnsPoly {
        assert!(!indices.is_empty(), "need at least one component");
        let residues = indices
            .iter()
            .map(|&i| {
                assert!(i < self.residues.len(), "component index {i} out of range");
                self.residues[i].clone()
            })
            .collect();
        RnsPoly {
            n: self.n,
            residues,
            domain: self.domain,
        }
    }

    /// Applies the Galois automorphism `X → X^g` in the coefficient
    /// domain, writing the permuted polynomial into `out` (buffers
    /// reused).
    ///
    /// Coefficient `j` of the input lands at position `j·g mod 2N`, with a
    /// sign flip when the exponent wraps past `N` (because `X^N = -1`).
    /// For odd `g` the map `j ↦ j·g mod 2N` sends the `N` input indices to
    /// `N` distinct output slots (two inputs can never collide `mod N`:
    /// that would need `g·Δj ≡ N (mod 2N)`, impossible for odd `g` and
    /// `0 < Δj < N`), so each output coefficient is written exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is in the NTT domain or `g` is even
    /// (automorphisms of the 2N-th cyclotomic require odd exponents).
    pub fn automorphism_into(&self, g: usize, moduli: &[u64], out: &mut RnsPoly) {
        assert_eq!(
            self.domain,
            Domain::Coeff,
            "automorphism implemented in coefficient domain"
        );
        assert_eq!(moduli.len(), self.residues.len(), "one modulus per level");
        assert!(g % 2 == 1, "Galois exponent must be odd");
        let n = self.n;
        let two_n = 2 * n;
        out.reshape(n, self.residues.len(), Domain::Coeff);
        // The scatter through `j·g mod 2N` defeats lane unrolling; this
        // kernel stays scalar.
        par::for_each_indexed(&mut out.residues, par::grain_linear(n), |i, dst| {
            let q = moduli[i];
            for (j, &c) in self.residues[i].iter().enumerate() {
                let e = (j * g) % two_n;
                if e < n {
                    dst[e] = c;
                } else {
                    dst[e - n] = neg_mod(c, q);
                }
            }
        });
    }

    /// `out[i][k] = self[i][perm[k]]` for every limb, buffers reused.
    /// With `perm` a Galois element's evaluation-point permutation this
    /// *is* the automorphism of an NTT-domain polynomial — no transform,
    /// no sign flips (the evaluator's path; [`automorphism_into`] is the
    /// coefficient-domain form).
    ///
    /// [`automorphism_into`]: RnsPoly::automorphism_into
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not `N` entries long or an entry is out of
    /// range.
    pub fn gather_into(&self, perm: &[u32], out: &mut RnsPoly) {
        assert_eq!(perm.len(), self.n, "one source index per slot");
        out.reshape(self.n, self.residues.len(), self.domain);
        par::for_each_indexed(&mut out.residues, par::grain_linear(self.n), |i, dst| {
            let src = &self.residues[i];
            for (d, &k) in dst.iter_mut().zip(perm) {
                *d = src[k as usize];
            }
        });
    }

    /// `self[i][k] += other[i][perm[k]]`: [`RnsPoly::gather_into`] fused
    /// with the addition that follows it.
    ///
    /// # Panics
    ///
    /// Panics on shape or domain mismatch, or as
    /// [`RnsPoly::gather_into`] does.
    pub fn add_assign_gather<P: PolyLimbs + ?Sized>(
        &mut self,
        other: &P,
        perm: &[u32],
        moduli: &[u64],
    ) {
        self.assert_compatible(other);
        assert_eq!(moduli.len(), self.residues.len(), "one modulus per level");
        assert_eq!(perm.len(), self.n, "one source index per slot");
        par::for_each_indexed(&mut self.residues, par::grain_linear(self.n), |i, a| {
            let (q, src) = (moduli[i], other.limb(i));
            for (x, &k) in a.iter_mut().zip(perm) {
                *x = add_mod(*x, src[k as usize], q);
            }
        });
    }

    /// Allocating wrapper around [`RnsPoly::automorphism_into`].
    pub fn automorphism(&self, g: usize, moduli: &[u64]) -> RnsPoly {
        let mut out = RnsPoly::zero(self.n, self.residues.len(), Domain::Coeff);
        self.automorphism_into(g, moduli, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::mul_mod;
    use crate::ntt::negacyclic_mul_naive;
    use crate::par::{with_dispatch_threshold, with_parallelism, Parallelism};
    use crate::prime::generate_ntt_primes;
    use crate::rns::RnsBasis;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn basis(n: usize, l: usize) -> RnsBasis {
        RnsBasis::new(n, generate_ntt_primes(30, n, l))
    }

    fn random_poly(b: &RnsBasis, rng: &mut StdRng) -> RnsPoly {
        let res = b
            .moduli()
            .iter()
            .map(|&q| (0..b.degree()).map(|_| rng.gen_range(0..q)).collect())
            .collect();
        RnsPoly::from_residues(res, Domain::Coeff)
    }

    fn tables(b: &RnsBasis) -> Vec<&NttTable> {
        b.tables().iter().collect()
    }

    #[test]
    fn zero_is_additive_identity() {
        let b = basis(32, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let p = random_poly(&b, &mut rng);
        let mut sum = p.clone();
        sum.add_assign(&RnsPoly::zero(32, 2, Domain::Coeff), b.moduli());
        assert_eq!(sum, p);
    }

    #[test]
    fn add_then_sub_roundtrips() {
        let b = basis(32, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let p = random_poly(&b, &mut rng);
        let q = random_poly(&b, &mut rng);
        let mut r = p.clone();
        r.add_assign(&q, b.moduli());
        r.sub_assign(&q, b.moduli());
        assert_eq!(r, p);
    }

    #[test]
    fn negation_cancels() {
        let b = basis(32, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let p = random_poly(&b, &mut rng);
        let mut neg = p.clone();
        neg.neg_assign(b.moduli());
        let mut sum = p;
        sum.add_assign(&neg, b.moduli());
        assert_eq!(sum, RnsPoly::zero(32, 2, Domain::Coeff));
    }

    #[test]
    fn ntt_product_matches_naive_per_component() {
        let b = basis(16, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let p = random_poly(&b, &mut rng);
        let q = random_poly(&b, &mut rng);

        let expected: Vec<Vec<u64>> = (0..b.len())
            .map(|i| negacyclic_mul_naive(p.component(i), q.component(i), b.moduli()[i]))
            .collect();

        let mut fp = p.clone();
        let mut fq = q.clone();
        fp.to_ntt(&tables(&b));
        fq.to_ntt(&tables(&b));
        fp.mul_pointwise_assign(&fq, b.moduli());
        fp.to_coeff(&tables(&b));
        for (i, e) in expected.iter().enumerate() {
            assert_eq!(fp.component(i), &e[..], "component {i}");
        }
    }

    #[test]
    fn domain_conversions_are_inverses_and_idempotent() {
        let b = basis(64, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let p = random_poly(&b, &mut rng);
        let mut x = p.clone();
        x.to_coeff(&tables(&b)); // no-op
        assert_eq!(x, p);
        x.to_ntt(&tables(&b));
        x.to_ntt(&tables(&b)); // no-op
        x.to_coeff(&tables(&b));
        assert_eq!(x, p);
    }

    #[test]
    #[should_panic(expected = "needs NTT domain")]
    fn pointwise_in_coeff_domain_panics() {
        let b = basis(16, 1);
        let mut p = RnsPoly::zero(16, 1, Domain::Coeff);
        let q = RnsPoly::zero(16, 1, Domain::Coeff);
        p.mul_pointwise_assign(&q, b.moduli());
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn mismatched_levels_panic() {
        let b = basis(16, 2);
        let mut p = RnsPoly::zero(16, 2, Domain::Coeff);
        let q = RnsPoly::zero(16, 1, Domain::Coeff);
        p.add_assign(&q, b.moduli());
    }

    #[test]
    fn automorphism_identity_is_noop() {
        let b = basis(16, 2);
        let mut rng = StdRng::seed_from_u64(6);
        let p = random_poly(&b, &mut rng);
        assert_eq!(p.automorphism(1, b.moduli()), p);
    }

    #[test]
    fn automorphism_composes() {
        // sigma_g1 then sigma_g2 equals sigma_{g1*g2 mod 2N}
        let b = basis(16, 1);
        let mut rng = StdRng::seed_from_u64(7);
        let p = random_poly(&b, &mut rng);
        let two_n = 32;
        let (g1, g2) = (5usize, 7usize);
        let once = p.automorphism(g1, b.moduli()).automorphism(g2, b.moduli());
        let combined = p.automorphism((g1 * g2) % two_n, b.moduli());
        assert_eq!(once, combined);
    }

    #[test]
    fn automorphism_respects_ring_relation() {
        // On X (coefficient 1 at position 1), sigma_g gives X^g.
        let b = basis(8, 1);
        let q = b.moduli()[0];
        let mut p = RnsPoly::zero(8, 1, Domain::Coeff);
        p.component_mut(0)[1] = 1;
        let g = 9; // X -> X^9 = X^{9-8} * X^8 = -X
        let r = p.automorphism(g, b.moduli());
        assert_eq!(r.component(0)[1], q - 1, "X^9 = -X in degree-8 ring");
    }

    #[test]
    fn drop_and_push_component() {
        let b = basis(16, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let p = random_poly(&b, &mut rng);
        let mut q = p.clone();
        let last = q.drop_last_component();
        assert_eq!(q.level_count(), 2);
        q.push_component(last);
        assert_eq!(q, p);
    }

    #[test]
    fn mul_pointwise_into_matches_assign() {
        let b = basis(32, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let mut p = random_poly(&b, &mut rng);
        let mut q = random_poly(&b, &mut rng);
        p.to_ntt(&tables(&b));
        q.to_ntt(&tables(&b));

        let mut expected = p.clone();
        expected.mul_pointwise_assign(&q, b.moduli());

        // Scratch deliberately starts with the wrong shape and stale data.
        let mut out = RnsPoly::zero(8, 1, Domain::Coeff);
        out.component_mut(0)[0] = 12345;
        p.mul_pointwise_into(&q, b.moduli(), &mut out);
        assert_eq!(out, expected);
    }

    #[test]
    fn add_mul_pointwise_matches_clone_based_path() {
        let b = basis(32, 2);
        let mut rng = StdRng::seed_from_u64(10);
        let mut acc = random_poly(&b, &mut rng);
        let mut a = random_poly(&b, &mut rng);
        let mut bb = random_poly(&b, &mut rng);
        acc.to_ntt(&tables(&b));
        a.to_ntt(&tables(&b));
        bb.to_ntt(&tables(&b));

        let mut expected = acc.clone();
        let mut t = a.clone();
        t.mul_pointwise_assign(&bb, b.moduli());
        expected.add_assign(&t, b.moduli());

        acc.add_mul_pointwise(&a, &bb, b.moduli());
        assert_eq!(acc, expected);
    }

    #[test]
    fn add_mul_pointwise_select_matches_select_components() {
        let b = basis(16, 2);
        let big = basis(16, 4);
        let mut rng = StdRng::seed_from_u64(11);
        let mut acc = random_poly(&b, &mut rng);
        let mut a = random_poly(&b, &mut rng);
        let mut key = random_poly(&big, &mut rng);
        acc.to_ntt(&tables(&b));
        a.to_ntt(&tables(&b));
        key.to_ntt(&tables(&big));
        let indices = [1usize, 3usize];

        let mut expected = acc.clone();
        let mut t = a.clone();
        t.mul_pointwise_assign(&key.select_components(&indices), b.moduli());
        expected.add_assign(&t, b.moduli());

        acc.add_mul_pointwise_select(&a, &key, &indices, b.moduli());
        assert_eq!(acc, expected);
    }

    #[test]
    fn lazy_dot_folds_before_overflow_and_matches_eager_mac() {
        // 62-bit modulus: a u128 accumulator holds only 16 products, so
        // 100 terms force several folds; at 30 bits a u64 one holds 16
        // too. The gathered variant reads `a` through a reversal.
        for q in [4611686018427387847u64, generate_ntt_primes(30, 64, 1)[0]] {
            lazy_dot_matches_eager_mac_at(q);
        }
    }

    fn lazy_dot_matches_eager_mac_at(q: u64) {
        let red = BarrettReducer::new(q);
        let (n, terms) = (DOT_BLOCK + 40, 100);
        let mut rng = StdRng::seed_from_u64(16);
        let mut draw = |edge: u64| -> Vec<Vec<u64>> {
            (0..terms)
                .map(|_| {
                    (0..n)
                        .map(|k| {
                            if k % 7 == 0 {
                                edge
                            } else {
                                rng.gen_range(0..q)
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let (a, b0, b1) = (draw(q - 1), draw(q - 1), draw(0));
        let perm: Vec<u32> = (0..n as u32).rev().collect();
        fn refs(v: &[Vec<u64>]) -> Vec<&[u64]> {
            v.iter().map(Vec::as_slice).collect()
        }
        for perm in [None, Some(&perm[..])] {
            let (mut out0, mut out1) = (vec![0u64; n], vec![0u64; n]);
            dot2_lazy(
                &refs(&a),
                perm,
                &refs(&b0),
                &refs(&b1),
                &red,
                &mut out0,
                &mut out1,
            );
            for k in 0..n {
                let src = perm.map_or(k, |p| p[k] as usize);
                let eager = |b: &[Vec<u64>]| {
                    (0..terms).fold(0, |acc, j| add_mod(acc, mul_mod(a[j][src], b[j][k], q), q))
                };
                assert_eq!((out0[k], out1[k]), (eager(&b0), eager(&b1)), "slot {k}");
            }
        }
    }

    #[test]
    fn lazy_dot_matches_eager_mac_at_every_fold_boundary() {
        // Every input at q − 1 makes every product (q − 1)², so an
        // accumulator reaches exactly cap·(q − 1)² before its fold: one
        // term more than the cap allows would overflow, which a debug
        // build reports. 30 and 31 bits accumulate in u64 (caps 16 and
        // 4), 45 and 62 bits in u128; the 45-bit cap (about 2^38 terms)
        // is out of reach, so it runs the term counts a key switch uses.
        let widths = [
            generate_ntt_primes(30, 64, 1)[0],
            generate_ntt_primes(31, 64, 1)[0],
            generate_ntt_primes(45, 64, 1)[0],
            4611686018427387847,
        ];
        let n = DOT_BLOCK + 3;
        let reversal: Vec<u32> = (0..n as u32).rev().collect();
        for q in widths {
            let red = BarrettReducer::new(q);
            let cap = if narrow_dot(q) {
                dot_cap::<u64>(q)
            } else {
                dot_cap::<u128>(q)
            };
            assert_eq!(narrow_dot(q), q < 1 << 32, "q={q}");
            let counts: Vec<usize> = [1, cap - 1, cap, cap + 1, 3 * cap, 7]
                .into_iter()
                .filter(|&c| c <= 64)
                .collect();
            assert!(counts.len() >= 2, "q={q}: cap {cap}");
            for terms in counts {
                let limb = vec![q - 1; n];
                let column = vec![limb.as_slice(); terms];
                // The eager reference: multiply, reduce, add, per term.
                let eager = (0..terms).fold(0, |acc, _| add_mod(acc, mul_mod(q - 1, q - 1, q), q));
                for perm in [None, Some(&reversal[..])] {
                    let (mut out0, mut out1) = (vec![0u64; n], vec![0u64; n]);
                    dot2_lazy(&column, perm, &column, &column, &red, &mut out0, &mut out1);
                    assert!(
                        out0.iter().chain(&out1).all(|&x| x == eager),
                        "q={q} terms={terms} permuted={}",
                        perm.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn limb_lifts_match_remainder_in_every_width_relation() {
        let primes = |bits| generate_ntt_primes(bits, 64, 2);
        let (p30, p45) = (primes(30), primes(45));
        // (source, target): copy, conditional subtract, Barrett.
        for (q_src, q_t) in [
            (p30[0], p45[0]),
            (p30[1], p30[0]),
            (p30[0], p30[1]),
            (p45[0], p30[0]),
        ] {
            let red = BarrettReducer::new(q_t);
            let src = [
                0,
                1,
                q_src / 2,
                q_src / 2 + 1,
                q_t.min(q_src - 1),
                q_src - 1,
            ];
            let (mut plain, mut centred) = ([0u64; 6], [0u64; 6]);
            lift_limb(&src, q_src, &red, &mut plain);
            lift_limb_centered(&src, q_src, &red, &mut centred);
            for (k, &c) in src.iter().enumerate() {
                assert_eq!(plain[k], c % q_t, "{c} mod {q_t}");
                let signed = if c > q_src / 2 {
                    c as i128 - q_src as i128
                } else {
                    c as i128
                };
                assert_eq!(
                    centred[k] as i128,
                    signed.rem_euclid(q_t as i128),
                    "centred {c}"
                );
            }
        }
    }

    #[test]
    fn sub_from_and_scale_matches_scalar_ops() {
        let q = generate_ntt_primes(30, 64, 1)[0];
        let inv = ShoupMul::new(12345, q);
        let x: Vec<u64> = (0..9).map(|k| (k * 0x9E37_79B9) % q).collect();
        let mut r: Vec<u64> = (0..9).map(|k| (q - 1 - k * 77) % q).collect();
        let want: Vec<u64> = x
            .iter()
            .zip(&r)
            .map(|(&x, &r)| inv.mul(sub_mod(x, r, q)))
            .collect();
        sub_from_and_scale(&mut r, &x, &inv, q);
        assert_eq!(r, want);
    }

    #[test]
    fn gather_kernels_permute_every_limb() {
        let b = basis(16, 2);
        let mut rng = StdRng::seed_from_u64(17);
        let p = random_poly(&b, &mut rng);
        let perm: Vec<u32> = (0..16u32).map(|k| (5 * k + 3) % 16).collect();
        let mut out = RnsPoly::zero(8, 1, Domain::Ntt); // stale shape
        p.gather_into(&perm, &mut out);
        for i in 0..2 {
            for (o, &k) in out.component(i).iter().zip(&perm) {
                assert_eq!(*o, p.component(i)[k as usize]);
            }
        }
        let mut sum = p.clone();
        sum.add_assign_gather(&p, &perm, b.moduli());
        let mut want = p.clone();
        want.add_assign(&out, b.moduli());
        assert_eq!(sum, want);
    }

    #[test]
    fn automorphism_into_reuses_dirty_scratch() {
        let b = basis(16, 2);
        let mut rng = StdRng::seed_from_u64(12);
        let p = random_poly(&b, &mut rng);
        let mut out = random_poly(&b, &mut rng); // stale contents
        p.automorphism_into(5, b.moduli(), &mut out);
        assert_eq!(out, p.automorphism(5, b.moduli()));
    }

    #[test]
    fn copy_from_and_reshape_reuse_buffers() {
        let b = basis(16, 3);
        let mut rng = StdRng::seed_from_u64(13);
        let p = random_poly(&b, &mut rng);
        let mut dst = RnsPoly::zero(64, 1, Domain::Ntt);
        dst.copy_from(&p);
        assert_eq!(dst, p);
        dst.reshape_zeroed(16, 2, Domain::Coeff);
        assert_eq!(dst, RnsPoly::zero(16, 2, Domain::Coeff));
    }

    #[test]
    fn mul_scalar_reduces_unnormalised_scalars() {
        let b = basis(16, 2);
        let mut rng = StdRng::seed_from_u64(14);
        let p = random_poly(&b, &mut rng);
        let qs = b.moduli();
        // Scalars at or above the modulus must behave as their residue.
        let raw: Vec<u64> = qs.iter().map(|&q| q + 3).collect();
        let reduced: Vec<u64> = qs.iter().map(|_| 3u64).collect();
        let mut x = p.clone();
        let mut y = p.clone();
        x.mul_scalar_assign(&raw, qs);
        y.mul_scalar_assign(&reduced, qs);
        assert_eq!(x, y);
    }

    #[test]
    fn threaded_kernels_match_serial_bit_for_bit() {
        let b = basis(64, 3);
        let mut rng = StdRng::seed_from_u64(15);
        let p = random_poly(&b, &mut rng);
        let q = random_poly(&b, &mut rng);
        // Threshold 0 defeats the grain guard so the threaded arm
        // genuinely spawns workers even for this tiny degree.
        let run = |mode, threshold| {
            with_dispatch_threshold(threshold, || {
                with_parallelism(mode, || {
                    let mut x = p.clone();
                    let mut y = q.clone();
                    x.to_ntt(&tables(&b));
                    y.to_ntt(&tables(&b));
                    let mut z = x.clone();
                    z.mul_pointwise_assign(&y, b.moduli());
                    z.add_mul_pointwise(&x, &y, b.moduli());
                    z.to_coeff(&tables(&b));
                    let rot = z.automorphism(5, b.moduli());
                    z.add_assign(&rot, b.moduli());
                    z.neg_assign(b.moduli());
                    z
                })
            })
        };
        assert_eq!(
            run(Parallelism::Serial, u64::MAX),
            run(Parallelism::Threads(3), 0)
        );
    }
}
