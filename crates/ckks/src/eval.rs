//! The homomorphic evaluator: the software mirror of the paper's HE
//! operation modules.
//!
//! Implements CCadd/PCadd (OP1), PCmult (OP2), CCmult (OP3), Rescale
//! (OP4) and KeySwitch — Relinearize and Rotate — (OP5). An optional
//! [`OpTrace`] records every executed operation with its level, which is
//! how the functional co-simulation cross-checks the analytic HE-CNN
//! lowering of `fxhenn-nn`.
//!
//! Key switching follows the hybrid construction: the input polynomial
//! is decomposed into `dnum` digits (one per group of primes), each
//! digit is lifted to the level basis extended with the special primes
//! (exactly for single-prime digits, by fast base conversion otherwise),
//! multiplied against the matching key digit, accumulated, and the
//! result is scaled back down by `P`. The whole path stays in the
//! evaluation domain unless the arithmetic forces it out — Galois
//! automorphisms are slot permutations, only the key-switch input is
//! inverse-transformed, mod-down and Rescale transform only the limb
//! they remove — and [`Evaluator::hoist`] shares one decomposition
//! between all rotations of a ciphertext (DESIGN.md §15).

use crate::cipher::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::error::EvalError;
use crate::keys::{GaloisKeys, KeySwitchKey, RelinKey};
use crate::noise::{fresh_public_std, magnitude_add, NoiseEstimate};
use crate::telemetry::{he_metrics, noise_metrics, OpSpanLog};
use crate::trace::{HeOpKind, OpTrace};
use fxhenn_math::budget::{self, Progress};
use fxhenn_math::modops::ShoupMul;
use fxhenn_math::par;
use crate::wire::CiphertextView;
use fxhenn_math::poly::{
    dot2_lazy, lift_limb, lift_limb_centered, mul_pointwise_of, sub_from_and_scale, Domain,
    PolyLimbs, RnsPoly,
};
use std::time::Instant;

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::cipher::Ciphertext {}
    impl Sealed for crate::wire::CiphertextView<'_> {}
}

/// A unified evaluator operand: implemented for owned [`Ciphertext`]s
/// and borrowed wire [`CiphertextView`]s, so `add`, `mul`, `mul_plain`
/// and `square` accept any mix of the two without duplicated `*_view`
/// method pairs.
///
/// The trait is sealed: the two implementations fix the noise-tracking
/// contract (owned ciphertexts carry tracked estimates; views are
/// costed as fresh client encryptions), and outside implementations
/// could not uphold it.
pub trait EvalOps: sealed::Sealed + Sync {
    /// Borrowed limb source for one component polynomial.
    type Limbs<'p>: PolyLimbs
    where
        Self: 'p;

    /// Ciphertext level (number of RNS components).
    fn level(&self) -> usize;
    /// Number of component polynomials.
    fn size(&self) -> usize;
    /// Encoding scale.
    fn scale(&self) -> f64;
    /// Component polynomial `i` as a limb source.
    fn limbs(&self, i: usize) -> Self::Limbs<'_>;
    /// The noise estimate this operand enters an operation with.
    fn operand_estimate(&self, ev: &Evaluator<'_>) -> NoiseEstimate;
    /// The tracked message magnitude bound (1.0 for wire views).
    fn operand_msg_bound(&self) -> f64;

    /// True for 2-polynomial (relinearized) operands.
    fn is_linear(&self) -> bool {
        self.size() == 2
    }
}

impl EvalOps for Ciphertext {
    type Limbs<'p> = &'p RnsPoly;

    fn level(&self) -> usize {
        Ciphertext::level(self)
    }
    fn size(&self) -> usize {
        Ciphertext::size(self)
    }
    fn scale(&self) -> f64 {
        Ciphertext::scale(self)
    }
    fn limbs(&self, i: usize) -> &RnsPoly {
        self.poly(i)
    }
    fn operand_estimate(&self, _ev: &Evaluator<'_>) -> NoiseEstimate {
        self.noise_estimate()
    }
    fn operand_msg_bound(&self) -> f64 {
        self.msg_bound()
    }
}

impl EvalOps for CiphertextView<'_> {
    type Limbs<'p>
        = fxhenn_math::poly::BorrowedRnsPoly<'p>
    where
        Self: 'p;

    fn level(&self) -> usize {
        CiphertextView::level(self)
    }
    fn size(&self) -> usize {
        CiphertextView::size(self)
    }
    fn scale(&self) -> f64 {
        CiphertextView::scale(self)
    }
    fn limbs(&self, i: usize) -> fxhenn_math::poly::BorrowedRnsPoly<'_> {
        self.poly(i)
    }
    fn operand_estimate(&self, ev: &Evaluator<'_>) -> NoiseEstimate {
        // Views carry no tracked state: assume a fresh client input.
        ev.view_estimate(CiphertextView::scale(self), CiphertextView::level(self))
    }
    fn operand_msg_bound(&self) -> f64 {
        1.0
    }
}

/// Relative scale mismatch tolerated by additive operations.
const SCALE_TOLERANCE: f64 = 1e-9;

/// Most polynomials the scratch pool keeps alive between operations.
/// A key switch holds five in flight (the permuted input, its
/// coefficient side, two accumulators and a worker's digit buffer); a
/// few extra cover further workers and the division temporaries without
/// letting the pool grow without bound.
const SCRATCH_POOL_CAP: usize = 8;

/// Executes HE operations over a CKKS context, optionally recording an
/// operation trace and per-op timing spans.
///
/// # Fallible by default
///
/// Every operation returns `Result<_, EvalError>`: `add`, `mul`,
/// `rescale`, ... are the primary names. Callers that want panicking
/// ergonomics write `ev.add(&a, &b).expect("CCadd")` at the call site.
///
/// The evaluator keeps a small pool of scratch polynomials so that the
/// hot operations (CCmult, KeySwitch, Rescale, Rotate) reuse buffers
/// across calls instead of cloning their inputs and allocating fresh
/// temporaries on every invocation.
///
/// # Cancellation
///
/// Every fallible operation checks the ambient
/// [`fxhenn_math::budget`] at entry — *before* taking any scratch
/// polynomial — and returns [`EvalError::Cancelled`] once the caller's
/// deadline passes or its token fires. Because the check precedes all
/// pool manipulation, a cancelled call leaves the scratch pool exactly
/// as the last successful operation left it: the evaluator stays fully
/// reusable after a cancel (covered by the `cancel_safety` tests).
#[derive(Debug)]
pub struct Evaluator<'a> {
    ctx: &'a CkksContext,
    trace: Option<OpTrace>,
    spans: Option<OpSpanLog>,
    scratch: Vec<RnsPoly>,
    ops_done: u64,
    noise_floor_bits: f64,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with tracing and span timing disabled and
    /// the noise floor at 0 bits (an op is refused once the analytic
    /// budget would be fully exhausted).
    pub fn new(ctx: &'a CkksContext) -> Self {
        Self {
            ctx,
            trace: None,
            spans: None,
            scratch: Vec::new(),
            ops_done: 0,
            noise_floor_bits: 0.0,
        }
    }

    /// The minimum post-op noise budget (in bits) this evaluator
    /// enforces: an operation whose predicted output budget would not
    /// stay *above* this floor fails with
    /// [`EvalError::NoiseBudgetExhausted`] before any kernel runs.
    pub fn noise_floor_bits(&self) -> f64 {
        self.noise_floor_bits
    }

    /// Raises (or lowers) the enforced noise floor. Non-finite values
    /// are ignored.
    pub fn set_noise_floor_bits(&mut self, bits: f64) {
        if bits.is_finite() {
            self.noise_floor_bits = bits;
        }
    }

    /// Enforces the noise floor on the *predicted* post-op estimate —
    /// called before the heavy compute, so a refused op costs nothing
    /// and never produces a garbage ciphertext.
    fn enforce_floor(&self, est: &NoiseEstimate) -> Result<(), EvalError> {
        let bits = est.budget_bits();
        if bits <= self.noise_floor_bits {
            noise_metrics().exhausted.inc();
            return Err(EvalError::NoiseBudgetExhausted { budget_bits: bits });
        }
        Ok(())
    }

    /// Stamps the tracked noise state onto an op's output and records
    /// the post-op budget into the `fxhenn_noise_*` histograms.
    fn stamp_noise(out: &mut Ciphertext, kind: HeOpKind, est: &NoiseEstimate, msg_bound: f64) {
        noise_metrics().observe_op(kind, est.budget_bits());
        out.set_noise_state(est.noise_std, msg_bound);
    }

    /// The conservative estimate attached to borrowed wire views: a
    /// fresh public-key encryption at this degree — correct for the
    /// serve ingest path, where views decode client-encrypted inputs.
    fn view_estimate(&self, scale: f64, level: usize) -> NoiseEstimate {
        NoiseEstimate {
            noise_std: fresh_public_std(self.ctx.degree()),
            scale,
            level,
        }
    }

    /// Operations completed over this evaluator's lifetime (the progress
    /// figure a [`EvalError::Cancelled`] stop reports).
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// The per-operation budget check. Runs before any scratch-pool
    /// manipulation so a stop here cannot poison evaluator state.
    fn budget_gate(&self) -> Result<(), EvalError> {
        budget::check("he-op", Progress::done(self.ops_done)).map_err(EvalError::Cancelled)
    }

    /// The underlying context. Returns the full `'a` borrow (not one tied
    /// to `&self`), so callers can keep the context while mutating the
    /// evaluator — e.g. to spawn sibling evaluators for parallel fan-out.
    #[inline]
    pub fn context(&self) -> &'a CkksContext {
        self.ctx
    }

    /// Starts recording an operation trace (clearing any previous one).
    pub fn start_trace(&mut self) {
        self.trace = Some(OpTrace::new());
    }

    /// Stops recording and returns the trace, if any.
    pub fn take_trace(&mut self) -> Option<OpTrace> {
        self.trace.take()
    }

    /// True while an operation trace is being recorded.
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Appends another trace's records to the active trace (a no-op when
    /// not tracing). Lets callers that fan work out to child evaluators
    /// stitch the children's records back in execution order.
    pub fn merge_trace(&mut self, other: &OpTrace) {
        if let Some(t) = &mut self.trace {
            t.extend_from(other);
        }
    }

    /// Starts recording per-op wall-time spans (clearing any previous
    /// log). Spans live outside the [`OpTrace`] so traces stay
    /// timing-free and byte-comparable across serial/threaded runs.
    pub fn start_spans(&mut self) {
        self.spans = Some(OpSpanLog::new());
    }

    /// Stops span recording and returns the log, if any.
    pub fn take_spans(&mut self) -> Option<OpSpanLog> {
        self.spans.take()
    }

    /// True while per-op spans are being recorded.
    pub fn is_timing(&self) -> bool {
        self.spans.is_some()
    }

    /// Appends another span log's records to the active log (a no-op
    /// when not timing). The timing sibling of
    /// [`merge_trace`](Evaluator::merge_trace): parents fold child
    /// evaluators' spans back in index order, so the record sequence is
    /// deterministic even when the durations are not.
    pub fn merge_spans(&mut self, other: &OpSpanLog) {
        if let Some(s) = &mut self.spans {
            s.extend_from(other);
        }
    }

    /// Books one executed operation: trace record, optional span, and
    /// the always-on global counters/histograms. `started` is the
    /// operation's entry timestamp (taken right after the budget gate).
    fn record(&mut self, kind: HeOpKind, level: usize, started: Instant) {
        self.ops_done += 1;
        if let Some(t) = &mut self.trace {
            t.record(kind, level);
        }
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(s) = &mut self.spans {
            s.record((kind, level), nanos);
        }
        let m = he_metrics();
        m.ops[kind.index()].inc();
        m.latency[kind.index()].observe(nanos);
    }

    /// Runs a composite operation (`Sign` stage, `CtMatmul` block) with
    /// trace and span recording *suspended*, then books a single macro
    /// record of `kind` at `level` covering the whole region.
    ///
    /// Traces therefore describe workload structure — one record per
    /// registered op, matching what the analytic lowering emits and what
    /// the hardware model costs — while the always-on global telemetry
    /// still counts every constituent primitive (plus the macro marker
    /// itself), preserving cumulative work accounting.
    pub(crate) fn record_macro<T>(
        &mut self,
        kind: HeOpKind,
        level: usize,
        f: impl FnOnce(&mut Self) -> Result<T, EvalError>,
    ) -> Result<T, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        let trace = self.trace.take();
        let spans = self.spans.take();
        let result = f(self);
        self.trace = trace;
        self.spans = spans;
        let out = result?;
        self.record(kind, level, started);
        Ok(out)
    }

    /// Pops a scratch polynomial (arbitrary shape and contents — callers
    /// `reshape`/`copy_from` it) or mints one if the pool is empty.
    fn take_scratch(&mut self) -> RnsPoly {
        self.scratch
            .pop()
            .unwrap_or_else(|| RnsPoly::zero(self.ctx.degree(), 1, Domain::Coeff))
    }

    /// Returns a polynomial to the pool, keeping its allocation warm for
    /// the next operation.
    fn put_scratch(&mut self, p: RnsPoly) {
        if self.scratch.len() < SCRATCH_POOL_CAP {
            self.scratch.push(p);
        }
    }

    /// Encodes a real vector into a plaintext at the given level and
    /// scale.
    ///
    /// # Errors
    ///
    /// Fails if the level is out of range, too many values are given,
    /// or any value is non-finite.
    pub fn encode_at(
        &self,
        values: &[f64],
        scale: f64,
        level: usize,
    ) -> Result<Plaintext, EvalError> {
        if level < 1 || level > self.ctx.max_level() {
            return Err(EvalError::LevelOutOfRange {
                level,
                max: self.ctx.max_level(),
            });
        }
        let slots = self.ctx.degree() / 2;
        if values.len() > slots {
            return Err(EvalError::TooManyValues {
                count: values.len(),
                slots,
            });
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(EvalError::NonFiniteValue { index });
        }
        he_metrics().plain_encodes.inc();
        let moduli = self.ctx.moduli_at(level);
        let tables = self.ctx.tables_at(level);
        let bound = values.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
        let mut p = self.ctx.encoder().encode_rns(values, scale, moduli);
        p.to_ntt(&tables);
        Ok(Plaintext::new(p, scale).with_value_bound(bound))
    }

    /// Encodes at the scale that makes a following `mul_plain` +
    /// `rescale` land back on the input ciphertext's scale: the prime
    /// that the rescale will drop.
    ///
    /// # Errors
    ///
    /// Fails as [`encode_at`](Evaluator::encode_at) does.
    pub fn encode_for_mul(
        &self,
        values: &[f64],
        level: usize,
    ) -> Result<Plaintext, EvalError> {
        if level < 1 || level > self.ctx.max_level() {
            return Err(EvalError::LevelOutOfRange {
                level,
                max: self.ctx.max_level(),
            });
        }
        let scale = self.ctx.dropped_prime_at(level) as f64;
        self.encode_at(values, scale, level)
    }

    fn check_same_scale(a: f64, b: f64) -> Result<(), EvalError> {
        if (a - b).abs() <= SCALE_TOLERANCE * a.abs().max(b.abs()) {
            Ok(())
        } else {
            Err(EvalError::ScaleMismatch { left: a, right: b })
        }
    }

    fn check_matching<A: EvalOps, B: EvalOps>(
        op: &'static str,
        a: &A,
        b: &B,
    ) -> Result<(), EvalError> {
        if a.level() != b.level() {
            return Err(EvalError::LevelMismatch {
                op,
                left: a.level(),
                right: b.level(),
            });
        }
        if a.size() != b.size() {
            return Err(EvalError::SizeMismatch {
                op,
                left: a.size(),
                right: b.size(),
            });
        }
        Self::check_same_scale(a.scale(), b.scale())
    }

    /// Ciphertext + ciphertext addition (CCadd, OP1) over any operand
    /// mix: owned ciphertexts or borrowed wire views, read in place.
    /// Bit-identical across the operand types — the limb kernels run on
    /// the same values either way.
    ///
    /// # Errors
    ///
    /// Fails on level, size or scale mismatch, or when the ambient
    /// budget has stopped.
    pub fn add<A: EvalOps, B: EvalOps>(
        &mut self,
        a: &A,
        b: &B,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        Self::check_matching("CCadd", a, b)?;
        let est = a
            .operand_estimate(self)
            .after_add(&b.operand_estimate(self))?;
        self.enforce_floor(&est)?;
        let moduli = self.ctx.moduli_at(a.level());
        let mut polys = Vec::with_capacity(a.size());
        for i in 0..a.size() {
            let mut p = self.take_scratch();
            p.copy_from_limbs(&a.limbs(i));
            p.add_assign(&b.limbs(i), moduli);
            polys.push(p);
        }
        let mut out = Ciphertext::new(polys, a.scale());
        Self::stamp_noise(
            &mut out,
            HeOpKind::CcAdd,
            &est,
            magnitude_add(a.operand_msg_bound(), b.operand_msg_bound()),
        );
        self.record(HeOpKind::CcAdd, a.level(), started);
        Ok(out)
    }

    /// Ciphertext - ciphertext subtraction (costed as CCadd).
    ///
    /// # Errors
    ///
    /// Fails as [`add`](Evaluator::add) does.
    pub fn sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        Self::check_matching("subtraction", a, b)?;
        let est = a.noise_estimate().after_add(&b.noise_estimate())?;
        self.enforce_floor(&est)?;
        let moduli = self.ctx.moduli_at(a.level());
        let mut out = a.clone();
        for i in 0..out.size() {
            out.poly_mut(i).sub_assign(b.poly(i), moduli);
        }
        Self::stamp_noise(&mut out, HeOpKind::CcAdd, &est, magnitude_add(a.msg_bound(), b.msg_bound()));
        self.record(HeOpKind::CcAdd, a.level(), started);
        Ok(out)
    }

    /// Plaintext + ciphertext addition (PCadd, OP1).
    ///
    /// # Errors
    ///
    /// Fails on level or scale mismatch, or when the ambient budget has
    /// stopped.
    pub fn add_plain(
        &mut self,
        a: &Ciphertext,
        pt: &Plaintext,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        if a.level() != pt.level() {
            return Err(EvalError::LevelMismatch {
                op: "PCadd",
                left: a.level(),
                right: pt.level(),
            });
        }
        Self::check_same_scale(a.scale(), pt.scale())?;
        // Adding an exact plaintext leaves the noise term untouched
        // (encoding rounding is absorbed by the estimate's slack).
        let est = a.noise_estimate();
        self.enforce_floor(&est)?;
        let moduli = self.ctx.moduli_at(a.level());
        let mut out = a.clone();
        out.poly_mut(0).add_assign(pt.poly(), moduli);
        Self::stamp_noise(&mut out, HeOpKind::PcAdd, &est, magnitude_add(a.msg_bound(), pt.value_bound()));
        self.record(HeOpKind::PcAdd, a.level(), started);
        Ok(out)
    }

    /// Plaintext - ciphertext subtraction: `ct - pt` (costed as PCadd).
    ///
    /// # Errors
    ///
    /// Fails as [`add_plain`](Evaluator::add_plain) does.
    pub fn sub_plain(
        &mut self,
        a: &Ciphertext,
        pt: &Plaintext,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        if a.level() != pt.level() {
            return Err(EvalError::LevelMismatch {
                op: "PCsub",
                left: a.level(),
                right: pt.level(),
            });
        }
        Self::check_same_scale(a.scale(), pt.scale())?;
        let est = a.noise_estimate();
        self.enforce_floor(&est)?;
        let moduli = self.ctx.moduli_at(a.level());
        let mut out = a.clone();
        out.poly_mut(0).sub_assign(pt.poly(), moduli);
        Self::stamp_noise(&mut out, HeOpKind::PcAdd, &est, magnitude_add(a.msg_bound(), pt.value_bound()));
        self.record(HeOpKind::PcAdd, a.level(), started);
        Ok(out)
    }

    /// Plaintext × ciphertext multiplication (PCmult, OP2) over an owned
    /// ciphertext or a borrowed wire view. The output scale is the
    /// product of the input scales; follow with
    /// [`rescale`](Evaluator::rescale) to bring it back down.
    ///
    /// # Errors
    ///
    /// Fails on level mismatch or when the ambient budget has stopped.
    pub fn mul_plain<A: EvalOps>(
        &mut self,
        a: &A,
        pt: &Plaintext,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        if a.level() != pt.level() {
            return Err(EvalError::LevelMismatch {
                op: "PCmult",
                left: a.level(),
                right: pt.level(),
            });
        }
        let est = a
            .operand_estimate(self)
            .after_mul_plain(pt.scale(), pt.value_bound());
        self.enforce_floor(&est)?;
        let moduli = self.ctx.moduli_at(a.level());
        let mut polys = Vec::with_capacity(a.size());
        for i in 0..a.size() {
            let mut p = self.take_scratch();
            p.copy_from_limbs(&a.limbs(i));
            p.mul_pointwise_assign(pt.poly(), moduli);
            polys.push(p);
        }
        let mut out = Ciphertext::new(polys, a.scale() * pt.scale());
        Self::stamp_noise(
            &mut out,
            HeOpKind::PcMult,
            &est,
            a.operand_msg_bound() * pt.value_bound(),
        );
        self.record(HeOpKind::PcMult, a.level(), started);
        Ok(out)
    }

    /// Ciphertext × ciphertext multiplication (CCmult, OP3) over any
    /// operand mix (owned or borrowed wire views), producing a
    /// 3-polynomial ciphertext; relinearize before rescaling or rotating.
    ///
    /// # Errors
    ///
    /// Fails unless both inputs are 2-polynomial ciphertexts at the
    /// same level, or when the ambient budget has stopped.
    pub fn mul<A: EvalOps, B: EvalOps>(
        &mut self,
        a: &A,
        b: &B,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        if !a.is_linear() || !b.is_linear() {
            return Err(EvalError::NonLinearProduct {
                size: if a.is_linear() { b.size() } else { a.size() },
            });
        }
        if a.level() != b.level() {
            return Err(EvalError::LevelMismatch {
                op: "CCmult",
                left: a.level(),
                right: b.level(),
            });
        }
        let est = a.operand_estimate(self).after_mul(
            &b.operand_estimate(self),
            a.operand_msg_bound(),
            b.operand_msg_bound(),
        )?;
        self.enforce_floor(&est)?;
        let moduli = self.ctx.moduli_at(a.level());

        // Each output polynomial costs one-to-two full pointwise passes
        // over l limbs; fan the three out when that clears the fixed
        // spawn floor (`par::SPAWN_FLOOR_ELEMS`; the per-product math
        // is unchanged, so the result is bit-identical to the scratch
        // path).
        let prod_grain = moduli
            .len()
            .saturating_mul(par::grain_linear(self.ctx.degree()));
        let (d0, d1, d2) = if par::planned_threads(3, prod_grain) > 1 {
            let n = self.ctx.degree();
            let mut prods = par::map_indexed(3, prod_grain, |k| {
                let mut out = RnsPoly::zero(n, 1, Domain::Ntt);
                match k {
                    0 => mul_pointwise_of(&a.limbs(0), &b.limbs(0), moduli, &mut out),
                    1 => {
                        // d1 = a0·b1 + a1·b0, fused so no cross-term
                        // temporary exists.
                        mul_pointwise_of(&a.limbs(0), &b.limbs(1), moduli, &mut out);
                        out.add_mul_pointwise(&a.limbs(1), &b.limbs(0), moduli);
                    }
                    _ => mul_pointwise_of(&a.limbs(1), &b.limbs(1), moduli, &mut out),
                }
                out
            });
            let d2 = prods.pop().expect("three products");
            let d1 = prods.pop().expect("three products");
            let d0 = prods.pop().expect("three products");
            (d0, d1, d2)
        } else {
            let mut d0 = self.take_scratch();
            mul_pointwise_of(&a.limbs(0), &b.limbs(0), moduli, &mut d0);

            // d1 = a0·b1 + a1·b0, fused so no cross-term temporary exists.
            let mut d1 = self.take_scratch();
            mul_pointwise_of(&a.limbs(0), &b.limbs(1), moduli, &mut d1);
            d1.add_mul_pointwise(&a.limbs(1), &b.limbs(0), moduli);

            let mut d2 = self.take_scratch();
            mul_pointwise_of(&a.limbs(1), &b.limbs(1), moduli, &mut d2);
            (d0, d1, d2)
        };

        self.record(HeOpKind::CcMult, a.level(), started);
        let mut out = Ciphertext::new(vec![d0, d1, d2], a.scale() * b.scale());
        Self::stamp_noise(
            &mut out,
            HeOpKind::CcMult,
            &est,
            a.operand_msg_bound() * b.operand_msg_bound(),
        );
        Ok(out)
    }

    /// Homomorphic squaring: CCmult of an operand with itself (the form
    /// used by the square activation layers of HE-CNNs), accepting owned
    /// ciphertexts and borrowed wire views alike.
    ///
    /// # Errors
    ///
    /// Fails as [`mul`](Evaluator::mul) does.
    pub fn square<A: EvalOps>(&mut self, a: &A) -> Result<Ciphertext, EvalError> {
        self.mul(a, a)
    }

    /// Relinearization (OP5 KeySwitch): reduces a 3-polynomial ciphertext
    /// back to 2 polynomials using the relinearization key.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is already linear, or when the ambient
    /// budget has stopped.
    pub fn relinearize(
        &mut self,
        ct: &Ciphertext,
        rk: &RelinKey,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        if ct.size() != 3 {
            return Err(EvalError::NotThreePoly { size: ct.size() });
        }
        let est = ct.noise_estimate().after_key_switch(self.ctx);
        self.enforce_floor(&est)?;
        let l = ct.level();
        let moduli = self.ctx.moduli_at(l);

        let (mut ks0, mut ks1) = self.key_switch(ct.poly(2), &rk.0, l);
        ks0.add_assign(ct.poly(0), moduli);
        ks1.add_assign(ct.poly(1), moduli);

        self.record(HeOpKind::Relinearize, l, started);
        let mut out = Ciphertext::new(vec![ks0, ks1], ct.scale());
        Self::stamp_noise(&mut out, HeOpKind::Relinearize, &est, ct.msg_bound());
        Ok(out)
    }

    /// Rescale (OP4): divides the ciphertext by the last prime of its
    /// level, dropping one RNS component and dividing the scale by that
    /// prime.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is not linear or already at level 1, or
    /// when the ambient budget has stopped.
    pub fn rescale(&mut self, ct: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        if !ct.is_linear() {
            return Err(EvalError::NotLinear { op: "rescaling" });
        }
        let l = ct.level();
        if l < 2 {
            return Err(EvalError::RescaleAtFloor);
        }
        let est = ct.noise_estimate().after_rescale(self.ctx)?;
        self.enforce_floor(&est)?;
        let ctx = self.ctx;
        let invs = ctx.rescale_inv_at(l);

        let mut removed = self.take_scratch();
        let mut polys = Vec::with_capacity(ct.size());
        for p in ct.polys() {
            let mut x = self.take_scratch();
            divide_by_last(ctx, p, l, invs, &mut removed, &mut x);
            polys.push(x);
        }
        self.put_scratch(removed);
        let mut out = Ciphertext::new(polys, ct.scale());
        out.set_scale(ct.scale() / ctx.dropped_prime_at(l) as f64);
        Self::stamp_noise(&mut out, HeOpKind::Rescale, &est, ct.msg_bound());
        self.record(HeOpKind::Rescale, l, started);
        Ok(out)
    }

    /// Modulus switch without scaling: drops RNS components down to
    /// `target_level`, leaving message and scale unchanged. Used to align
    /// ciphertext levels before additions.
    ///
    /// # Errors
    ///
    /// Fails if `target_level` is zero or above the current level, or
    /// when the ambient budget has stopped.
    pub fn mod_switch_to(
        &mut self,
        ct: &Ciphertext,
        target_level: usize,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        let l = ct.level();
        if target_level < 1 || target_level > l {
            return Err(EvalError::TargetLevelOutOfRange {
                target: target_level,
                current: l,
            });
        }
        if target_level == l {
            return Ok(ct.clone());
        }
        // Dropping primes without scaling leaves message, scale and
        // noise untouched — only the level changes.
        let est = NoiseEstimate {
            noise_std: ct.noise_std(),
            scale: ct.scale(),
            level: target_level,
        };
        self.enforce_floor(&est)?;
        let indices: Vec<usize> = (0..target_level).collect();
        let polys = ct
            .polys()
            .iter()
            .map(|p| p.select_components(&indices))
            .collect();
        // Recorded at the *input* level: that is the width of the RNS
        // components the switch reads (a no-op switch above returns
        // without recording — no work, no HOP).
        self.record(HeOpKind::ModSwitch, l, started);
        let mut out = Ciphertext::new(polys, ct.scale());
        Self::stamp_noise(&mut out, HeOpKind::ModSwitch, &est, ct.msg_bound());
        Ok(out)
    }

    /// Rotate (OP5 KeySwitch): left-rotates the slot vector by `steps`.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is not linear, the required Galois key is
    /// missing or cut below the ciphertext's level (see
    /// [`GaloisKeys::rotation_key`]), or when the ambient budget has
    /// stopped.
    pub fn rotate(
        &mut self,
        ct: &Ciphertext,
        steps: usize,
        gks: &GaloisKeys,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        if !ct.is_linear() {
            return Err(EvalError::NotLinear { op: "rotating" });
        }
        let g = self.ctx.galois_exponent(steps);
        if g == 1 {
            return Ok(ct.clone());
        }
        let key = gks.rotation_key(self.ctx, steps, ct.level())?;
        self.apply_galois(ct, None, g, key, HeOpKind::Rotate, started)
    }

    /// Expands the key-switch digits of `ct` once, for any number of
    /// [`rotate_hoisted`](Evaluator::rotate_hoisted) calls: every
    /// rotation of one ciphertext decomposes the same `c1`, so the
    /// `l` inverse and `dnum × (l + s)` forward transforms are shared
    /// and each rotation is left with the inner product and mod-down.
    /// Not a HOP: nothing is recorded until a rotation consumes it.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is not linear, or when the ambient
    /// budget has stopped.
    pub fn hoist<'c>(&mut self, ct: &'c Ciphertext) -> Result<HoistedDigits<'c>, EvalError> {
        self.budget_gate()?;
        if !ct.is_linear() {
            return Err(EvalError::NotLinear { op: "rotating" });
        }
        let ctx = self.ctx;
        let (n, l) = (ctx.degree(), ct.level());
        let c1 = ct.poly(1);
        let src = self.digit_sources(c1, l);
        let mut limbs: Vec<RnsPoly> = (0..l + ctx.special_moduli().len())
            .map(|_| RnsPoly::zero(n, 1, Domain::Ntt))
            .collect();
        let grain = ctx.active_digits(l).saturating_mul(par::grain_ntt(n));
        par::for_each_indexed(&mut limbs, grain, |t, buf| {
            expand_target(ctx, c1, &src, l, t, buf);
        });
        self.put_scratch(src);
        Ok(HoistedDigits { ct, limbs })
    }

    /// [`rotate`](Evaluator::rotate) of the ciphertext behind `h`,
    /// reading its pre-expanded digits through the automorphism's slot
    /// permutation instead of decomposing `σ_g(c1)` afresh. Booked,
    /// noise-estimated and floor-checked exactly as `rotate` is. The
    /// digits are `σ_g` of the canonical ones — coefficients in
    /// `(−q_j, q_j)` rather than `[0, q_j)` — so the output decrypts to
    /// the same message within the same noise estimate but is not
    /// bit-identical to `rotate`'s.
    ///
    /// # Errors
    ///
    /// Fails as [`rotate`](Evaluator::rotate) does on the key, or when
    /// the ambient budget has stopped.
    pub fn rotate_hoisted(
        &mut self,
        h: &HoistedDigits<'_>,
        steps: usize,
        gks: &GaloisKeys,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        let g = self.ctx.galois_exponent(steps);
        if g == 1 {
            return Ok(h.ct.clone());
        }
        let key = gks.rotation_key(self.ctx, steps, h.ct.level())?;
        self.apply_galois(h.ct, Some(&h.limbs), g, key, HeOpKind::Rotate, started)
    }

    /// Complex conjugation of the slot vector (Galois element `2N - 1`).
    ///
    /// For real-valued slot data this is (up to noise) the identity; it
    /// exists to support complex-slot pipelines and to cancel imaginary
    /// noise components. `key` must reach the ciphertext's level, as the
    /// top-level key of [`crate::KeyGenerator::conjugation_key`] does.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is not linear, or when the ambient
    /// budget has stopped.
    pub fn conjugate(
        &mut self,
        ct: &Ciphertext,
        key: &KeySwitchKey,
    ) -> Result<Ciphertext, EvalError> {
        self.budget_gate()?;
        let started = Instant::now();
        if !ct.is_linear() {
            return Err(EvalError::NotLinear { op: "conjugating" });
        }
        let g = self.ctx.conjugation_exponent();
        self.apply_galois(ct, None, g, key, HeOpKind::Conjugate, started)
    }

    /// The one Galois path behind Rotate and Conjugate:
    /// `(σ_g(c0) + ks0, ks1)` with `(ks0, ks1)` the key switch of
    /// `σ_g(c1)` under `key`. In the evaluation domain `σ_g` is a gather
    /// through the context's cached permutation, so neither polynomial
    /// is transformed for it. `hoisted` supplies pre-expanded digits of
    /// `c1` (see [`hoist`](Evaluator::hoist)).
    fn apply_galois(
        &mut self,
        ct: &Ciphertext,
        hoisted: Option<&[RnsPoly]>,
        g: usize,
        key: &KeySwitchKey,
        kind: HeOpKind,
        started: Instant,
    ) -> Result<Ciphertext, EvalError> {
        let est = ct.noise_estimate().after_rotate(self.ctx);
        self.enforce_floor(&est)?;
        let l = ct.level();
        let perm = self.ctx.galois_perm(g);

        let (mut ks0, ks1) = match hoisted {
            Some(limbs) => self.inner_product_mod_down(Digits::Hoisted(limbs, &perm), key, l),
            None => {
                let mut c1g = self.take_scratch();
                ct.poly(1).gather_into(&perm, &mut c1g);
                let ks = self.key_switch(&c1g, key, l);
                self.put_scratch(c1g);
                ks
            }
        };
        ks0.add_assign_gather(ct.poly(0), &perm, self.ctx.moduli_at(l));

        self.record(kind, l, started);
        let mut out = Ciphertext::new(vec![ks0, ks1], ct.scale());
        Self::stamp_noise(&mut out, kind, &est, ct.msg_bound());
        Ok(out)
    }

    /// Core hybrid key switch of the NTT-domain polynomial `d` at level
    /// `l`: returns the NTT-domain pair `(ks0, ks1)` at level `l` such
    /// that `ks0 + ks1·s ≈ d·s'`.
    ///
    /// Each of the `dnum` digits covers a group of coefficient primes.
    /// Single-prime digits lift exactly (a residue in `[0, q_i)` reduces
    /// into every other modulus); multi-prime digits use the fast
    /// (approximate) base conversion — its `+αD` error multiplies a
    /// gadget divisible by `Q_l·P` and vanishes, contributing only to
    /// the noise term that the special-prime mod-down suppresses.
    fn key_switch(&mut self, d: &RnsPoly, ksk: &KeySwitchKey, l: usize) -> (RnsPoly, RnsPoly) {
        let src = self.digit_sources(d, l);
        let ks = self.inner_product_mod_down(Digits::Lean(d, &src), ksk, l);
        self.put_scratch(src);
        ks
    }

    /// The coefficient-domain side of key-switch input `d`: its `l`
    /// inverse transforms — the only ones a switch needs, every lift
    /// reads them — with the limbs of multi-prime digits pre-multiplied
    /// by `[(D/q_i)^{-1}]_{q_i}`, the per-coefficient inner factor of
    /// their base conversion.
    fn digit_sources(&mut self, d: &RnsPoly, l: usize) -> RnsPoly {
        assert_eq!(d.domain(), Domain::Ntt, "key switch input in NTT domain");
        assert_eq!(d.level_count(), l, "key switch input level mismatch");
        he_metrics().decompositions.inc();
        let ctx = self.ctx;
        let mut src = self.take_scratch();
        src.copy_from(d);
        src.to_coeff(&ctx.tables_at(l));
        for j in 0..ctx.active_digits(l) {
            let lift = ctx.digit_lift(l, j);
            // `ghat_inv` is empty for single-prime digits.
            for (&i, &ghat_inv) in lift.indices.iter().zip(&lift.ghat_inv) {
                let q_i = ctx.coeff_moduli()[i];
                let ghat_inv = ShoupMul::new(ghat_inv % q_i, q_i);
                for x in src.component_mut(i) {
                    *x = ghat_inv.mul(*x);
                }
            }
        }
        src
    }

    /// `Σ_j digit_j·key_j` over the extended basis, then mod-down by
    /// `P`. Runs target-limb-outermost: a limb's `dnum` digit residues
    /// are all that is materialised at once (expanded on the spot, or
    /// borrowed from a hoist), and both inner products accumulate lazily
    /// in one pass over them against the key limb of the same prime
    /// ([`KeySwitchKey::limb_for`]; `ksk` reaches at least level `l`).
    /// Target limbs are independent, so workers take contiguous runs of
    /// them — each with its own digit buffer — and the result is
    /// bit-identical to the inline loop.
    fn inner_product_mod_down(
        &mut self,
        digits: Digits<'_>,
        ksk: &KeySwitchKey,
        l: usize,
    ) -> (RnsPoly, RnsPoly) {
        let ctx = self.ctx;
        let n = ctx.degree();
        let ext = l + ctx.special_moduli().len();
        let active = ctx.active_digits(l);

        let mut acc0 = self.take_scratch();
        acc0.reshape(n, ext, Domain::Ntt);
        let mut acc1 = self.take_scratch();
        acc1.reshape(n, ext, Domain::Ntt);

        let limb_grain = active.saturating_mul(par::grain_ntt(n));
        let run = ext.div_ceil(par::planned_threads(ext, limb_grain));
        let mut jobs: Vec<_> = acc0
            .components_mut()
            .chunks_mut(run)
            .zip(acc1.components_mut().chunks_mut(run))
            .map(|(out0, out1)| (out0, out1, self.take_scratch()))
            .collect();
        par::for_each_indexed(
            &mut jobs,
            run.saturating_mul(limb_grain),
            |w, (out0, out1, buf)| {
                for (off, (out0, out1)) in out0.iter_mut().zip(out1.iter_mut()).enumerate() {
                    let t = w * run + off;
                    let (residues, perm): (&RnsPoly, _) = match digits {
                        Digits::Lean(d, src) => {
                            expand_target(ctx, d, src, l, t, buf);
                            (buf, None)
                        }
                        Digits::Hoisted(limbs, perm) => (&limbs[t], Some(perm)),
                    };
                    let a: Vec<&[u64]> = (0..active).map(|j| residues.component(j)).collect();
                    let keys = &ksk.digits[..active];
                    let k = ksk.limb_for(ctx, l, t);
                    let b0: Vec<&[u64]> = keys.iter().map(|(b, _)| b.component(k)).collect();
                    let b1: Vec<&[u64]> = keys.iter().map(|(_, a)| a.component(k)).collect();
                    let red = ctx.reducer(ctx.extended_index(l, t));
                    dot2_lazy(&a, perm, &b0, &b1, red, out0, out1);
                }
            },
        );
        for (_, _, buf) in jobs {
            self.put_scratch(buf);
        }
        (self.mod_down(acc0, l), self.mod_down(acc1, l))
    }

    /// Divides an extended-basis NTT-form polynomial by the full special
    /// modulus `P = ∏ specials`, one special prime at a time (each step
    /// an exact centred division, see [`divide_by_last`]), leaving a
    /// level-`l` polynomial.
    fn mod_down(&mut self, mut acc: RnsPoly, l: usize) -> RnsPoly {
        let ctx = self.ctx;
        let mut removed = self.take_scratch();
        let mut out = self.take_scratch();
        for k in (0..ctx.special_moduli().len()).rev() {
            divide_by_last(ctx, &acc, l, ctx.moddown_inv(k), &mut removed, &mut out);
            std::mem::swap(&mut acc, &mut out);
        }
        self.put_scratch(removed);
        self.put_scratch(out);
        acc
    }

    /// Adds a constant (same value in every slot) without consuming a
    /// level: encodes at the ciphertext's scale and performs PCadd.
    ///
    /// # Errors
    ///
    /// Fails as [`encode_at`](Evaluator::encode_at) and
    /// [`add_plain`](Evaluator::add_plain) do.
    pub fn add_scalar(&mut self, ct: &Ciphertext, value: f64) -> Result<Ciphertext, EvalError> {
        let slots = self.ctx.degree() / 2;
        let pt = self.encode_at(&vec![value; slots], ct.scale(), ct.level())?;
        self.add_plain(ct, &pt)
    }

    /// Multiplies every slot by a scalar constant (a PCmult with the
    /// constant broadcast to all slots); follow with
    /// [`rescale`](Evaluator::rescale).
    ///
    /// # Errors
    ///
    /// Fails as [`encode_for_mul`](Evaluator::encode_for_mul) and
    /// [`mul_plain`](Evaluator::mul_plain) do.
    pub fn mul_scalar(&mut self, ct: &Ciphertext, value: f64) -> Result<Ciphertext, EvalError> {
        let slots = self.ctx.degree() / 2;
        let pt = self.encode_for_mul(&vec![value; slots], ct.level())?;
        self.mul_plain(ct, &pt)
    }

    /// Negates a ciphertext (free on hardware; not a HOP).
    pub fn negate(&mut self, ct: &Ciphertext) -> Ciphertext {
        let moduli = self.ctx.moduli_at(ct.level());
        let mut out = ct.clone();
        for i in 0..out.size() {
            out.poly_mut(i).neg_assign(moduli);
        }
        out
    }
}

/// The key-switch digits of one ciphertext's `c1`, expanded once by
/// [`Evaluator::hoist`] and shared by every
/// [`Evaluator::rotate_hoisted`] of that ciphertext. Borrows the
/// ciphertext (rotations still need its `c0`) and owns
/// `dnum × (l + s)` NTT-form limbs, freed on drop.
#[derive(Debug)]
pub struct HoistedDigits<'c> {
    ct: &'c Ciphertext,
    /// Per extended-basis limb, the active digits' residues (one
    /// component per digit).
    limbs: Vec<RnsPoly>,
}

impl<'c> HoistedDigits<'c> {
    /// The ciphertext these digits decompose.
    pub fn ciphertext(&self) -> &'c Ciphertext {
        self.ct
    }
}

/// Where the inner product reads a target limb's digit residues from.
#[derive(Clone, Copy)]
enum Digits<'a> {
    /// Expanded on the spot from the key-switch input (NTT form) and its
    /// [`Evaluator::digit_sources`].
    Lean(&'a RnsPoly, &'a RnsPoly),
    /// Borrowed from a hoist and read through a Galois permutation.
    Hoisted(&'a [RnsPoly], &'a [u32]),
}

/// Writes the NTT-form residue of every active key-switch digit of `d`
/// on limb `t` of the level-`l` extended basis into `buf`, one component
/// per digit; `src` is `d`'s [`Evaluator::digit_sources`].
fn expand_target(
    ctx: &CkksContext,
    d: &RnsPoly,
    src: &RnsPoly,
    l: usize,
    t: usize,
    buf: &mut RnsPoly,
) {
    let idx = ctx.extended_index(l, t);
    let (red, table) = (ctx.reducer(idx), ctx.table(idx));
    buf.reshape(ctx.degree(), ctx.active_digits(l), Domain::Ntt);
    for (j, out) in buf.components_mut().iter_mut().enumerate() {
        let lift = ctx.digit_lift(l, j);
        if lift.indices.contains(&t) {
            // On a prime of its own a digit is the input limb itself:
            // NTT∘iNTT = id, and in a multi-prime digit every other
            // conversion term carries a factor D/q_i ≡ 0 (mod q_t).
            out.copy_from_slice(d.component(t));
            continue;
        }
        match lift.indices[..] {
            // Exact lift: a residue in [0, q_i) reduces directly.
            [i] => lift_limb(src.component(i), ctx.coeff_moduli()[i], red, out),
            // Fast base conversion of a multi-prime digit,
            // y_t = Σ_i [x_i·ĝ_i^{-1}]_{q_i}·(D/q_i mod q_t), with the
            // bracketed factors already in `src`.
            _ => {
                for (k, o) in out.iter_mut().enumerate() {
                    let acc: u128 = lift
                        .indices
                        .iter()
                        .zip(&lift.ghat_mod)
                        .map(|(&i, ghat)| src.component(i)[k] as u128 * ghat[t] as u128)
                        .sum();
                    *o = red.reduce_u128(acc);
                }
            }
        }
        table.forward(out);
    }
}

/// Exact division of NTT-form `x` by the last prime of its basis (`l`
/// coefficient primes, then any special primes), centred so the
/// rounding error stays at ±1/2; the quotient over the remaining primes
/// lands in `out`. This is the core of both Rescale and each mod-down
/// step, and it inverse-transforms only the limb being removed: that
/// limb's centred residue goes forward into each remaining modulus and
/// `(x − r)·inv` finishes slot-wise. The NTT is linear, so the result is
/// the coefficient-domain division bit for bit. `invs` holds the removed
/// prime's inverses by [`CkksContext::reducer`] index; `removed` is
/// scratch.
fn divide_by_last(
    ctx: &CkksContext,
    x: &RnsPoly,
    l: usize,
    invs: &[u64],
    removed: &mut RnsPoly,
    out: &mut RnsPoly,
) {
    assert_eq!(x.domain(), Domain::Ntt, "division input in NTT domain");
    let n = ctx.degree();
    let last = x.level_count() - 1;
    let last_idx = ctx.extended_index(l, last);
    let p = ctx.reducer(last_idx).modulus();
    removed.reshape(n, 1, Domain::Coeff);
    removed.component_mut(0).copy_from_slice(x.component(last));
    ctx.table(last_idx).inverse(removed.component_mut(0));
    let removed = removed.component(0);

    out.reshape(n, last, Domain::Ntt);
    par::for_each_indexed(out.components_mut(), par::grain_ntt(n), |pos, r| {
        let idx = ctx.extended_index(l, pos);
        let red = ctx.reducer(idx);
        let m = red.modulus();
        lift_limb_centered(removed, p, red, r);
        ctx.table(idx).forward(r);
        sub_from_and_scale(r, x.component(pos), &ShoupMul::new(invs[idx] % m, m), m);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ctx: CkksContext,
    }

    struct Keys {
        pk: crate::keys::PublicKey,
        sk: crate::keys::SecretKey,
        rk: RelinKey,
        gks: GaloisKeys,
    }

    impl Fixture {
        fn new(levels: usize) -> (Self, Keys) {
            let ctx = CkksContext::new(CkksParams::insecure_toy(levels));
            let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(21));
            let keys = Keys {
                pk: kg.public_key(),
                sk: kg.secret_key(),
                rk: kg.relin_key(),
                gks: kg.galois_keys(&[1, 2, 4, 8]),
            };
            (Self { ctx }, keys)
        }
    }

    fn close(a: &[f64], b: &[f64], tol: f64) {
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "slot {i}: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn homomorphic_addition() {
        let (f, k) = Fixture::new(2);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(1));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let a = [1.5, -2.0, 3.0];
        let b = [0.25, 4.0, -1.0];
        let ca = enc.encrypt(&a);
        let cb = enc.encrypt(&b);
        let sum = ev.add(&ca, &cb).unwrap();
        close(&dec.decrypt(&sum)[..3], &[1.75, 2.0, 2.0], 1e-2);
        let diff = ev.sub(&ca, &cb).unwrap();
        close(&dec.decrypt(&diff)[..3], &[1.25, -6.0, 4.0], 1e-2);
    }

    #[test]
    fn plain_multiplication_with_rescale() {
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(2));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let a = [1.5, -2.0, 3.0, 0.5];
        let w = [2.0, 0.5, -1.0, 4.0];
        let ca = enc.encrypt(&a);
        let pw = ev.encode_for_mul(&w, ca.level()).unwrap();
        let prod = ev.mul_plain(&ca, &pw).unwrap();
        let scaled = ev.rescale(&prod).unwrap();
        assert_eq!(scaled.level(), ca.level() - 1);
        // scale should be back near the original
        let ratio = scaled.scale() / ca.scale();
        assert!((ratio - 1.0).abs() < 1e-9, "scale ratio {ratio}");
        close(
            &dec.decrypt(&scaled)[..4],
            &[3.0, -1.0, -3.0, 2.0],
            1e-2,
        );
    }

    #[test]
    fn ciphertext_multiplication_with_relin() {
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(3));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let a = [1.5, -2.0, 3.0];
        let b = [2.0, 3.0, -1.5];
        let ca = enc.encrypt(&a);
        let cb = enc.encrypt(&b);
        let prod3 = ev.mul(&ca, &cb).unwrap();
        assert_eq!(prod3.size(), 3);
        // 3-poly ciphertexts decrypt correctly too
        let direct = dec.decrypt(&prod3);
        close(&direct[..3], &[3.0, -6.0, -4.5], 1e-1);
        // relinearize, then rescale
        let lin = ev.relinearize(&prod3, &k.rk).unwrap();
        assert_eq!(lin.size(), 2);
        let out = ev.rescale(&lin).unwrap();
        close(&dec.decrypt(&out)[..3], &[3.0, -6.0, -4.5], 1e-1);
    }

    #[test]
    fn squaring_matches_mul_self() {
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(4));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let a = [1.5, -2.0, 0.5, 3.0];
        let ca = enc.encrypt(&a);
        let sq = ev.square(&ca).unwrap();
        let lin = ev.relinearize(&sq, &k.rk).unwrap();
        let out = ev.rescale(&lin).unwrap();
        close(&dec.decrypt(&out)[..4], &[2.25, 4.0, 0.25, 9.0], 1e-1);
    }

    #[test]
    fn rotation_left_shifts_slots() {
        let (f, k) = Fixture::new(2);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(5));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let slots = f.ctx.degree() / 2;
        let values: Vec<f64> = (0..slots).map(|i| (i % 50) as f64).collect();
        let ct = enc.encrypt(&values);
        for steps in [1usize, 2, 4, 8] {
            let rot = ev.rotate(&ct, steps, &k.gks).unwrap();
            let out = dec.decrypt(&rot);
            for i in 0..8 {
                let expected = values[(i + steps) % slots];
                assert!(
                    (out[i] - expected).abs() < 1e-2,
                    "steps {steps} slot {i}: {} vs {expected}",
                    out[i]
                );
            }
        }
    }

    #[test]
    fn rotate_by_zero_is_identity() {
        let (f, k) = Fixture::new(2);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(6));
        let mut ev = Evaluator::new(&f.ctx);
        let ct = enc.encrypt(&[1.0, 2.0]);
        let rot = ev.rotate(&ct, 0, &k.gks).unwrap();
        assert_eq!(rot, ct);
    }

    #[test]
    fn rotate_and_add_computes_slot_sums() {
        // The rotate-and-sum pattern of LoLa's FC layers: log2(k) rotations
        // accumulate the first k slots.
        let (f, k) = Fixture::new(2);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(7));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let mut acc = enc.encrypt(&values);
        for shift in [4usize, 2, 1] {
            let rot = ev.rotate(&acc, shift, &k.gks).unwrap();
            acc = ev.add(&acc, &rot).unwrap();
        }
        let out = dec.decrypt(&acc);
        assert!((out[0] - 36.0).abs() < 1e-1, "sum = {}", out[0]);
    }

    #[test]
    fn mod_switch_preserves_message() {
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(8));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let values = [2.5, -1.0, 0.75];
        let ct = enc.encrypt(&values);
        let dropped = ev.mod_switch_to(&ct, 1).unwrap();
        assert_eq!(dropped.level(), 1);
        assert_eq!(dropped.scale(), ct.scale());
        close(&dec.decrypt(&dropped)[..3], &values, 1e-2);
    }

    #[test]
    fn trace_records_operations_with_levels() {
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(9));
        let mut ev = Evaluator::new(&f.ctx);
        ev.start_trace();
        let ca = enc.encrypt(&[1.0]);
        let cb = enc.encrypt(&[2.0]);
        let s = ev.add(&ca, &cb).unwrap();
        let sq = ev.square(&s).unwrap();
        let lin = ev.relinearize(&sq, &k.rk).unwrap();
        let _ = ev.rescale(&lin).unwrap();
        let t = ev.take_trace().unwrap();
        assert_eq!(t.hop_count(), 4);
        assert_eq!(t.count_of(HeOpKind::CcAdd), 1);
        assert_eq!(t.count_of(HeOpKind::CcMult), 1);
        assert_eq!(t.count_of(HeOpKind::Relinearize), 1);
        assert_eq!(t.count_of(HeOpKind::Rescale), 1);
        assert_eq!(t.key_switch_count(), 1);
        // all at top level
        assert!(t.records().iter().all(|r| r.level == 3));
        assert!(ev.take_trace().is_none(), "trace is consumed");
    }

    #[test]
    fn spans_time_each_op_without_touching_trace() {
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(41));
        let mut ev = Evaluator::new(&f.ctx);
        ev.start_trace();
        ev.start_spans();
        let ca = enc.encrypt(&[1.0]);
        let cb = enc.encrypt(&[2.0]);
        let s = ev.add(&ca, &cb).unwrap();
        let sq = ev.square(&s).unwrap();
        let lin = ev.relinearize(&sq, &k.rk).unwrap();
        let _ = ev.rescale(&lin).unwrap();
        let spans = ev.take_spans().unwrap();
        let trace = ev.take_trace().unwrap();
        assert_eq!(spans.len(), trace.hop_count(), "one span per recorded op");
        // Span labels mirror the trace (kind, level) in execution order.
        for (span, rec) in spans.spans().iter().zip(trace.records()) {
            assert_eq!(span.label, (rec.kind, rec.level));
        }
        assert!(ev.take_spans().is_none(), "span log is consumed");
    }

    #[test]
    fn trace_records_mod_switch_at_input_level() {
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(31));
        let mut ev = Evaluator::new(&f.ctx);
        ev.start_trace();
        let ct = enc.encrypt(&[1.0, 2.0]);
        let same = ev.mod_switch_to(&ct, ct.level()).unwrap(); // no-op: no record
        assert_eq!(same.level(), ct.level());
        let dropped = ev.mod_switch_to(&ct, 1).unwrap();
        assert_eq!(dropped.level(), 1);
        let t = ev.take_trace().unwrap();
        assert_eq!(t.hop_count(), 1);
        assert_eq!(t.count_of(HeOpKind::ModSwitch), 1);
        assert_eq!(t.records()[0].level, 3, "recorded at the input level");
        assert_eq!(t.key_switch_count(), 0, "mod switch is not a key switch");
    }

    #[test]
    fn trace_distinguishes_conjugate_from_rotate() {
        let ctx = CkksContext::new(CkksParams::insecure_toy(2));
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(32));
        let pk = kg.public_key();
        let conj = kg.conjugation_key();
        let gks = kg.galois_keys(&[1]);
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(33));
        let mut ev = Evaluator::new(&ctx);
        ev.start_trace();
        let ct = enc.encrypt(&[1.0, -2.0]);
        let _ = ev.rotate(&ct, 1, &gks).unwrap();
        let _ = ev.conjugate(&ct, &conj).unwrap();
        let t = ev.take_trace().unwrap();
        assert_eq!(t.count_of(HeOpKind::Rotate), 1);
        assert_eq!(t.count_of(HeOpKind::Conjugate), 1);
        assert_eq!(t.key_switch_count(), 2, "both are OP5 key switches");
    }

    #[test]
    fn multiplication_depth_chain() {
        // Use all levels: ((x^2)^2) with rescale after each square.
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(10));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let x = 1.2f64;
        let mut ct = enc.encrypt(&[x]);
        for _ in 0..2 {
            let sq = ev.square(&ct).unwrap();
            let lin = ev.relinearize(&sq, &k.rk).unwrap();
            ct = ev.rescale(&lin).unwrap();
        }
        assert_eq!(ct.level(), 1);
        let out = dec.decrypt(&ct);
        let expected = x.powi(4);
        assert!(
            (out[0] - expected).abs() < 0.05,
            "{} vs {expected}",
            out[0]
        );
    }

    #[test]
    fn add_rejects_mismatched_scales() {
        let (f, k) = Fixture::new(2);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(11));
        let mut ev = Evaluator::new(&f.ctx);
        let a = enc.encrypt_at(&[1.0], (2f64).powi(30));
        let b = enc.encrypt_at(&[1.0], (2f64).powi(20));
        let err = ev.add(&a, &b).unwrap_err();
        assert!(err.to_string().contains("scale mismatch"), "{err}");
    }

    #[test]
    fn rescale_rejects_three_poly() {
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(12));
        let mut ev = Evaluator::new(&f.ctx);
        let a = enc.encrypt(&[1.0]);
        let sq = ev.square(&a).unwrap();
        let err = ev.rescale(&sq).unwrap_err();
        assert!(
            err.to_string().contains("relinearize before rescaling"),
            "{err}"
        );
    }

    #[test]
    fn rotate_without_key_fails() {
        let (f, k) = Fixture::new(2);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(13));
        let mut ev = Evaluator::new(&f.ctx);
        let ct = enc.encrypt(&[1.0]);
        // only 1,2,4,8 were generated
        let err = ev.rotate(&ct, 3, &k.gks).unwrap_err();
        assert!(err.to_string().contains("missing Galois key"), "{err}");
    }

    #[test]
    fn conjugation_fixes_real_slot_data() {
        let (f, k) = Fixture::new(2);
        let mut kg2 = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(21));
        // NOTE: a fresh generator has a different secret; we need the
        // conjugation key for the *fixture's* secret, so regenerate the
        // whole key set from one generator.
        let _ = (&k, &mut kg2);
        let ctx = CkksContext::new(CkksParams::insecure_toy(2));
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(22));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let conj = kg.conjugation_key();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(23));
        let dec = Decryptor::new(&ctx, sk);
        let mut ev = Evaluator::new(&ctx);
        let values = [1.5, -2.0, 3.25, 0.5];
        let ct = enc.encrypt(&values);
        let cc = ev.conjugate(&ct, &conj).unwrap();
        let out = dec.decrypt(&cc);
        close(&out[..4], &values, 1e-2);
    }

    #[test]
    fn add_scalar_shifts_all_slots() {
        let (f, k) = Fixture::new(2);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(14));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let ct = enc.encrypt(&[1.0, -2.0]);
        let shifted = ev.add_scalar(&ct, 10.0).unwrap();
        let out = dec.decrypt(&shifted);
        assert!((out[0] - 11.0).abs() < 1e-2);
        assert!((out[1] - 8.0).abs() < 1e-2);
    }

    #[test]
    fn sub_plain_and_mul_scalar() {
        let (f, k) = Fixture::new(3);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(16));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let ct = enc.encrypt(&[5.0, -1.0]);
        let pt = ev.encode_at(&[2.0, 3.0], ct.scale(), ct.level()).unwrap();
        let diff = ev.sub_plain(&ct, &pt).unwrap();
        let out = dec.decrypt(&diff);
        assert!((out[0] - 3.0).abs() < 1e-2);
        assert!((out[1] + 4.0).abs() < 1e-2);

        let prod = ev.mul_scalar(&ct, 2.5).unwrap();
        let scaled = ev.rescale(&prod).unwrap();
        let out2 = dec.decrypt(&scaled);
        assert!((out2[0] - 12.5).abs() < 0.05, "{}", out2[0]);
        assert!((out2[1] + 2.5).abs() < 0.05, "{}", out2[1]);
    }

    #[test]
    fn negate_flips_sign() {
        let (f, k) = Fixture::new(2);
        let mut enc = Encryptor::new(&f.ctx, k.pk, StdRng::seed_from_u64(15));
        let dec = Decryptor::new(&f.ctx, k.sk);
        let mut ev = Evaluator::new(&f.ctx);
        let ct = enc.encrypt(&[3.0, -4.0]);
        let neg = ev.negate(&ct);
        let out = dec.decrypt(&neg);
        assert!((out[0] + 3.0).abs() < 1e-2);
        assert!((out[1] - 4.0).abs() < 1e-2);
    }
}
