//! Functional HE-CNN execution: runs a network homomorphically through
//! `fxhenn-ckks`, as the evaluator backend of the one walk the lowering
//! also runs (`walk.rs`). The executed operation trace is the
//! lowered program's, record for record, and the decrypted result can be
//! checked against the plaintext network.
//!
//! An executor runs one [`LoweringProfile`]. `Optimized` (the default)
//! is the fast path: the first convolution and the linear layers take
//! their plaintext operands encoded from the network's
//! [`PlaintextCache`](crate::PlaintextCache). `PaperFaithful` executes
//! the program the hardware model prices, encoding per request — the
//! witness that the priced program computes the network.

use crate::error::ExecError;
use crate::layers::SignRelu;
use crate::lowering::{LinearPlan, LoweringProfile};
use crate::model::Network;
use crate::packing::{
    conv_offset_pack, dense_bias, dense_weight, linear_diagonal, operand_values, CtLayout,
};
use crate::plain_cache::{cached, LayerOperands, OperandSet};
use crate::telemetry::{nn_metrics, LayerSpanLog};
use crate::tensor::Tensor;
use crate::walk::{front_conv, walk, At, Backend, Item, Operand, Source, Step};
use fxhenn_ckks::{
    Ciphertext, Decryptor, Encryptor, EvalError, Evaluator, GaloisKeys, LinearTransform,
    OpSpanLog, Plaintext, RelinKey,
};
use fxhenn_math::budget::{self, Budget, Progress};
use fxhenn_math::par;
use rand::Rng;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Levels a layer needs at entry: every layer type multiplies once and
/// rescales once, and a rescale needs a prime to drop (level >= 2).
const LAYER_LEVEL_NEED: usize = 2;

/// The encrypted, offset-packed input of a network, packed for one
/// [`LoweringProfile`]: per output-map group, one ciphertext per kernel
/// offset (`PaperFaithful`, LoLa's packing) or per block of taps
/// (`Optimized`, where the network allows tap blocks).
#[derive(Debug, Clone)]
pub struct EncryptedInput {
    /// `groups[g][c]` is input ciphertext `c` of group `g`: kernel offset
    /// `c`, or offsets `c·k .. c·k + k` in `k` tap blocks.
    pub groups: Vec<Vec<Ciphertext>>,
}

/// The encrypted result of a network run plus the slot layout needed to
/// read the logits back out.
#[derive(Debug, Clone)]
pub struct EncryptedOutput {
    /// Output ciphertexts.
    pub cts: Vec<Ciphertext>,
    /// Where each logical output value lives.
    pub layout: CtLayout,
}

impl EncryptedOutput {
    /// Decrypts and gathers the logical output values.
    pub fn decrypt(&self, dec: &Decryptor<'_>) -> Vec<f64> {
        let decrypted: Vec<Vec<f64>> = self.cts.iter().map(|ct| dec.decrypt(ct)).collect();
        self.layout.gather(&decrypted)
    }
}

/// Encrypts an input image with the offset packing the network's first
/// convolution expects under [`LoweringProfile::Optimized`], the profile
/// [`HeCnnExecutor::new`] runs; [`try_encrypt_input_for`] packs for
/// either. Returns an [`ExecError`] when the network has no convolution
/// front end or the image carries non-finite values.
pub fn try_encrypt_input<R: Rng>(
    net: &Network,
    image: &Tensor,
    enc: &mut Encryptor<'_, R>,
    slots: usize,
) -> Result<EncryptedInput, ExecError> {
    try_encrypt_input_for(net, image, enc, slots, LoweringProfile::Optimized)
}

/// [`try_encrypt_input`] packed for `profile`: an executor of another
/// profile refuses the input with [`ExecError::PackingMismatch`] when
/// the two packings differ.
pub fn try_encrypt_input_for<R: Rng>(
    net: &Network,
    image: &Tensor,
    enc: &mut Encryptor<'_, R>,
    slots: usize,
    profile: LoweringProfile,
) -> Result<EncryptedInput, ExecError> {
    let front = front_conv(net, slots, profile)?;
    if let Some(index) = image.data().iter().position(|v| !v.is_finite()) {
        return Err(ExecError::Eval {
            layer: front.name.to_string(),
            source: EvalError::NonFiniteValue { index },
        });
    }
    let packed = conv_offset_pack(image, front.conv, slots, front.taps_per_ct);
    let groups = packed
        .iter()
        .map(|cts| cts.iter().map(|v| enc.encrypt(v)).collect())
        .collect();
    Ok(EncryptedInput { groups })
}

/// Encrypts an input image with the offset packing the network's first
/// convolution expects under [`LoweringProfile::Optimized`].
///
/// # Panics
///
/// Panics if the first layer is not a convolution or the image shape
/// mismatches. [`try_encrypt_input`] returns these as [`ExecError`]s.
pub fn encrypt_input<R: Rng>(
    net: &Network,
    image: &Tensor,
    enc: &mut Encryptor<'_, R>,
    slots: usize,
) -> EncryptedInput {
    try_encrypt_input(net, image, enc, slots).expect("input packing")
}

/// Runs networks homomorphically.
#[derive(Debug)]
pub struct HeCnnExecutor<'a> {
    ev: Evaluator<'a>,
    rk: &'a RelinKey,
    gks: &'a GaloisKeys,
    layer_spans: Option<LayerSpanLog>,
    profile: LoweringProfile,
    /// The network's operand cache, during an `Optimized` run.
    operands: Option<Arc<OperandSet>>,
    /// The layer being run, and since when.
    layer: String,
    started: Instant,
}

impl<'a> HeCnnExecutor<'a> {
    /// Creates an executor of the [`LoweringProfile::Optimized`]
    /// schedule over a context with the given evaluation keys.
    pub fn new(ctx: &'a fxhenn_ckks::CkksContext, rk: &'a RelinKey, gks: &'a GaloisKeys) -> Self {
        Self::with_profile(ctx, rk, gks, LoweringProfile::Optimized)
    }

    /// Creates an executor of the given profile. Keys generated from
    /// either profile's lowered program serve both.
    pub fn with_profile(
        ctx: &'a fxhenn_ckks::CkksContext,
        rk: &'a RelinKey,
        gks: &'a GaloisKeys,
        profile: LoweringProfile,
    ) -> Self {
        Self {
            ev: Evaluator::new(ctx),
            rk,
            gks,
            layer_spans: None,
            profile,
            operands: None,
            layer: String::new(),
            started: Instant::now(),
        }
    }

    /// Sets the noise floor (in remaining budget bits) below which any
    /// evaluator operation fails typed. Propagated to the fan-out child
    /// evaluators, so enforcement is uniform across the run.
    pub fn set_noise_floor_bits(&mut self, bits: f64) {
        self.ev.set_noise_floor_bits(bits);
    }

    /// The configured noise floor in budget bits.
    pub fn noise_floor_bits(&self) -> f64 {
        self.ev.noise_floor_bits()
    }

    /// Starts recording the executed HE operations.
    pub fn start_trace(&mut self) {
        self.ev.start_trace();
    }

    /// Returns the recorded trace, if tracing was started.
    pub fn take_trace(&mut self) -> Option<fxhenn_ckks::OpTrace> {
        self.ev.take_trace()
    }

    /// Starts recording per-op wall-time spans (fan-out work items
    /// merge their spans back in index order, like the trace).
    pub fn start_spans(&mut self) {
        self.ev.start_spans();
    }

    /// Returns the recorded op spans, if span timing was started.
    pub fn take_spans(&mut self) -> Option<OpSpanLog> {
        self.ev.take_spans()
    }

    /// Starts recording one wall-time span per executed network layer.
    pub fn start_layer_spans(&mut self) {
        self.layer_spans = Some(LayerSpanLog::new());
    }

    /// Returns the recorded layer spans, if layer timing was started.
    pub fn take_layer_spans(&mut self) -> Option<LayerSpanLog> {
        self.layer_spans.take()
    }

    /// Runs the full network on an encrypted input, returning an
    /// [`ExecError`] instead of panicking when the input packing does
    /// not match the network, an evaluator precondition fails (missing
    /// Galois key, level floor), or the analytic noise estimate predicts
    /// the result would decrypt to garbage.
    pub fn try_run(
        &mut self,
        net: &Network,
        input: &EncryptedInput,
    ) -> Result<EncryptedOutput, ExecError> {
        let ctx = self.ev.context();
        let slots = ctx.degree() / 2;
        let profile = self.profile;
        let front = front_conv(net, slots, profile)?;
        let mismatch = |what, expected, got| ExecError::PackingMismatch {
            layer: front.name.to_string(),
            what,
            expected,
            got,
        };
        if input.groups.len() != front.groups {
            return Err(mismatch("group count", front.groups, input.groups.len()));
        }
        let cts = front.cts_per_group();
        if let Some(got) = input.groups.iter().map(Vec::len).find(|&n| n != cts) {
            return Err(mismatch("offset count", cts, got));
        }
        let first = input.groups.first().and_then(|g| g.first());
        self.operands = (profile == LoweringProfile::Optimized)
            .then(|| net.plaintext_cache().for_run(ctx, first, net.layer_count()));
        let ran = walk(self, net, &input.groups, slots, profile);
        self.operands = None;
        let (cts, layout) = ran?;
        let layout = CtLayout::new(slots, layout.ct_count(), layout.placements(slots));
        Ok(EncryptedOutput { cts, layout })
    }

    /// Runs the full network on an encrypted input.
    ///
    /// # Panics
    ///
    /// Panics if the input packing does not match the network, a Galois
    /// key is missing, or the level budget is exhausted. [`Self::try_run`]
    /// returns these as [`ExecError`]s.
    pub fn run(&mut self, net: &Network, input: &EncryptedInput) -> EncryptedOutput {
        self.try_run(net, input).expect("HE execution")
    }

    /// Runs the network under an explicit execution [`Budget`]: the
    /// budget is installed as the thread's ambient for the duration of
    /// the run, so the layer loop, every evaluator operation, and work
    /// items running on `par` worker threads all observe the deadline
    /// and cancellation token. Returns [`ExecError::Cancelled`] (or an
    /// [`EvalError::Cancelled`] wrapped in [`ExecError::Eval`]) once the
    /// budget is exhausted.
    pub fn try_run_with_budget(
        &mut self,
        net: &Network,
        input: &EncryptedInput,
        budget: &Budget,
    ) -> Result<EncryptedOutput, ExecError> {
        budget::with_budget(budget, || self.try_run(net, input))
    }

    /// Runs evaluator operations, naming the current layer on failure.
    fn eval<T>(
        &mut self,
        f: impl FnOnce(&mut Evaluator<'a>, Option<&OperandSet>) -> Result<T, EvalError>,
    ) -> Result<T, ExecError> {
        f(&mut self.ev, self.operands.as_deref()).map_err(|source| ExecError::Eval {
            layer: self.layer.clone(),
            source,
        })
    }

    /// A child executor for one fan-out work item: same keys, profile,
    /// operands, noise floor and recording, on its own evaluator.
    fn fork(&self) -> Self {
        let mut ev = Evaluator::new(self.ev.context());
        ev.set_noise_floor_bits(self.ev.noise_floor_bits());
        if self.ev.is_tracing() {
            ev.start_trace();
        }
        if self.ev.is_timing() {
            ev.start_spans();
        }
        let (operands, layer) = (self.operands.clone(), self.layer.clone());
        Self { ev, layer_spans: None, operands, layer, ..*self }
    }
}

impl Backend for HeCnnExecutor<'_> {
    type Ct = Ciphertext;
    type Error = ExecError;

    fn level(ct: &Ciphertext) -> usize {
        ct.level()
    }

    /// Stops at a layer boundary once the budget has, and fails the
    /// layer, naming it, before it would rescale below the last prime.
    fn enter(&mut self, at: &At<'_>) -> Result<(), ExecError> {
        budget::check("layer", Progress::of(at.index as u64, at.count as u64))?;
        if at.level < LAYER_LEVEL_NEED {
            return Err(ExecError::InsufficientLevels {
                layer: at.name.to_string(),
                have: at.level,
                need: LAYER_LEVEL_NEED,
            });
        }
        self.layer = at.name.to_string();
        self.started = Instant::now();
        Ok(())
    }

    /// Layer-boundary defense-in-depth on the noise state the evaluator
    /// stamps into every ciphertext (its own per-op floor usually fires
    /// first, as [`ExecError::Eval`]), then the always-on layer metrics
    /// and the opt-in layer span.
    fn leave(&mut self, at: &At<'_>, step: &Step<Ciphertext>) -> Result<(), ExecError> {
        let budget_bits = step.out.iter().map(Ciphertext::budget_bits).fold(f64::INFINITY, f64::min);
        if budget_bits <= self.ev.noise_floor_bits() {
            return Err(ExecError::NoiseBudgetExhausted {
                layer: at.name.to_string(),
                op: step.op,
                budget_bits,
            });
        }
        let nanos = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let m = nn_metrics();
        m.layers.inc();
        m.latency.observe(nanos);
        if let Some(spans) = &mut self.layer_spans {
            spans.record(at.name.to_string(), nanos);
        }
        Ok(())
    }

    fn mul_plain(&mut self, x: &Ciphertext, w: Operand<'_>) -> Result<Ciphertext, ExecError> {
        self.eval(|ev, set| {
            let pt = plaintext(set, ev, w, x, true)?;
            ev.mul_plain(x, &pt)
        })
    }

    fn add_plain(&mut self, x: &Ciphertext, b: Operand<'_>) -> Result<Ciphertext, ExecError> {
        self.eval(|ev, set| {
            let pt = plaintext(set, ev, b, x, false)?;
            ev.add_plain(x, &pt)
        })
    }

    fn add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, ExecError> {
        self.eval(|ev, _| ev.add(a, b))
    }

    fn rescale(&mut self, x: &Ciphertext) -> Result<Ciphertext, ExecError> {
        self.eval(|ev, _| ev.rescale(x))
    }

    fn rotate(&mut self, x: &Ciphertext, step: usize) -> Result<Ciphertext, ExecError> {
        let gks = self.gks;
        self.eval(|ev, _| ev.rotate(x, step, gks))
    }

    fn square(&mut self, x: &Ciphertext) -> Result<Ciphertext, ExecError> {
        let rk = self.rk;
        self.eval(|ev, _| {
            let sq = ev.square(x)?;
            let lin = ev.relinearize(&sq, rk)?;
            ev.rescale(&lin)
        })
    }

    fn relu(&mut self, x: &Ciphertext, relu: &SignRelu) -> Result<Ciphertext, ExecError> {
        let rk = self.rk;
        self.eval(|ev, _| fxhenn_ckks::relu_approx(ev, x, rk, relu.preset, relu.bound))
    }

    /// One [`LinearTransform`] and its bias, encoded once per network and
    /// context, hoisted baby steps included.
    fn linear(&mut self, x: &Ciphertext, plan: &LinearPlan, src: Source<'_>) -> Result<Ciphertext, ExecError> {
        let gks = self.gks;
        self.eval(|ev, set| {
            let fresh;
            let operands = match set {
                Some(set) => cached(&set.layers[src.index], || linear_operands(ev, x, plan, src))?,
                None => {
                    fresh = linear_operands(ev, x, plan, src)?;
                    &fresh
                }
            };
            let LayerOperands::Linear(transform, bias) = operands else {
                unreachable!("a layer's operand kind is fixed by the network");
            };
            let y = transform.apply(ev, x, gks)?;
            ev.add_plain(&y, bias)
        })
    }

    /// One item runs here; more fan out over child evaluators, whose
    /// traces and spans are merged back in index order, as a serial run
    /// records them.
    fn items(&mut self, n: usize, item: &Item<'_, Self>) -> Result<Vec<Ciphertext>, ExecError> {
        if n == 1 {
            return Ok(vec![item(self, 0)?]);
        }
        let this = &*self;
        let results = par::map_indexed(n, par::GRAIN_COARSE, |i| {
            let mut child = this.fork();
            let ct = item(&mut child, i);
            (ct, child.ev.take_trace(), child.ev.take_spans())
        });
        let mut out = Vec::with_capacity(n);
        for (ct, trace, spans) in results {
            let ct = ct?;
            if let Some(t) = &trace {
                self.ev.merge_trace(t);
            }
            if let Some(s) = &spans {
                self.ev.merge_spans(s);
            }
            out.push(ct);
        }
        Ok(out)
    }
}

/// `op` encoded for `x` — as the factor of a product, or as a summand at
/// `x`'s scale — from the run's operand cache where it keeps `op` (the
/// first convolution's), freshly otherwise.
fn plaintext<'s>(
    set: Option<&'s OperandSet>,
    ev: &Evaluator<'_>,
    op: Operand<'_>,
    x: &Ciphertext,
    product: bool,
) -> Result<Cow<'s, Plaintext>, EvalError> {
    let encode = || {
        let values = operand_values(op);
        if product {
            ev.encode_for_mul(&values, x.level())
        } else {
            ev.encode_at(&values, x.scale(), x.level())
        }
    };
    match set.and_then(|set| set.conv_slot(op)) {
        Some(slot) => cached(slot, encode).map(Cow::Borrowed),
        None => encode().map(Cow::Owned),
    }
}

/// A linear layer's transform and bias, for inputs at `x`'s level and
/// scale; the bias at the scale the transform's rescale leaves.
fn linear_operands(
    ev: &Evaluator<'_>,
    x: &Ciphertext,
    plan: &LinearPlan,
    src: Source<'_>,
) -> Result<LayerOperands, EvalError> {
    let (level, slots) = (x.level(), src.slots);
    let weight = |k: usize, v: usize| dense_weight(src, k, v);
    let transform = LinearTransform::new(ev, plan.schedule.clone(), level, |g, b| {
        linear_diagonal(src.input, plan, src.d_out, slots, &weight, g, b)
    })?;
    let mut bias = vec![0.0; slots];
    for (k, (_, at)) in plan.output.placements(slots).into_iter().enumerate() {
        bias[at] = dense_bias(src, k);
    }
    let q = ev.context().dropped_prime_at(level) as f64;
    let bias = ev.encode_at(&bias, x.scale() * q / q, level - 1)?;
    Ok(LayerOperands::Linear(transform, bias))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LowerError;
    use crate::layers::{Conv2d, Dense, Layer, Square};
    use crate::lowering::{lower_network, plan_dense, plan_linear, try_lower_network_with, Layout};
    use crate::model::{synthetic_input, toy_mnist_like, Network};
    use crate::packing::next_pow2;
    use fxhenn_ckks::{CkksContext, CkksParams, KeyGenerator, PublicKey, SecretKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A toy context (N = 1024, L = 7) with keys for a network.
    struct Rig {
        ctx: CkksContext,
        pk: PublicKey,
        sk: SecretKey,
        rk: RelinKey,
        gks: GaloisKeys,
    }

    fn rig_for(net: &Network) -> Rig {
        let ctx = CkksContext::new(CkksParams::insecure_toy(7));
        let steps = lower_network(net, ctx.degree(), ctx.max_level()).required_rotations();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(31));
        let (pk, sk, rk) = (kg.public_key(), kg.secret_key(), kg.relin_key());
        let gks = kg.galois_keys(&steps);
        Rig { ctx, pk, sk, rk, gks }
    }

    impl Rig {
        fn encrypt(&self, net: &Network, image: &Tensor) -> Result<EncryptedInput, ExecError> {
            self.encrypt_for(net, image, LoweringProfile::Optimized)
        }

        fn encrypt_for(
            &self,
            net: &Network,
            image: &Tensor,
            profile: LoweringProfile,
        ) -> Result<EncryptedInput, ExecError> {
            let mut enc = Encryptor::new(&self.ctx, self.pk.clone(), StdRng::seed_from_u64(32));
            try_encrypt_input_for(net, image, &mut enc, self.ctx.degree() / 2, profile)
        }

        /// `net`'s synthetic image of seed 7, encrypted.
        fn input(&self, net: &Network) -> EncryptedInput {
            self.encrypt(net, &synthetic_input(net, 7)).expect("packs")
        }

        fn exec(&self) -> HeCnnExecutor<'_> {
            HeCnnExecutor::new(&self.ctx, &self.rk, &self.gks)
        }

        fn decrypt(&self, out: &EncryptedOutput) -> Vec<f64> {
            out.decrypt(&Decryptor::new(&self.ctx, self.sk.clone()))
        }
    }

    fn run_and_compare(net: &Network, tol: f64) {
        let rig = rig_for(net);
        let got = rig.decrypt(&rig.exec().run(net, &rig.input(net)));
        let expected = net.forward(&synthetic_input(net, 7));
        assert_eq!(got.len(), expected.len());
        for (i, (&g, &e)) in got.iter().zip(expected.data()).enumerate() {
            assert!((g - e).abs() < tol, "output {i}: HE {g} vs plaintext {e} (tol {tol})");
        }
    }

    /// The first `layers` layers of a toy network.
    fn toy_prefix(seed: u64, layers: usize) -> Network {
        Network::new("prefix", &[1, 9, 9], toy_mnist_like(seed).layers()[..layers].to_vec())
    }

    /// Runs the toy network of `seed` with its first convolution doctored
    /// by `poison` on an input the healthy network packs.
    fn run_poisoned(seed: u64, poison: impl Fn(&mut Conv2d)) -> ExecError {
        let src = toy_mnist_like(seed);
        let mut layers = src.layers().to_vec();
        let Layer::Conv(conv) = &mut layers[0].1 else {
            panic!("toy net starts with a conv");
        };
        poison(conv);
        let rig = rig_for(&src);
        let input = rig.input(&src);
        rig.exec()
            .try_run(&Network::new("poisoned", &[1, 9, 9], layers), &input)
            .expect_err("must fail")
    }

    #[test]
    fn conv_only_network_matches_plaintext() {
        run_and_compare(&toy_prefix(11, 1), 1e-2);
    }

    #[test]
    fn conv_act_matches_plaintext() {
        run_and_compare(&toy_prefix(12, 2), 1e-2);
    }

    #[test]
    fn conv_act_fc_matches_plaintext() {
        run_and_compare(&toy_prefix(13, 3), 5e-2);
    }

    #[test]
    fn full_toy_network_matches_plaintext() {
        run_and_compare(&toy_mnist_like(14), 0.1);
    }

    #[test]
    fn linear_plans_compute_dense_layers_slot_for_slot() {
        // Two dense layers through plan_linear in exact small-integer
        // arithmetic, no encryption: hybrid diagonals over the stacked
        // input, then window packing over its blocked output with the
        // fold residue still in place.
        let mut rng = StdRng::seed_from_u64(91);
        for (slots, d_in, d_mid, d_out) in [(4096, 845, 100, 10), (512, 32, 8, 4), (64, 13, 7, 3)] {
            let mut ints = |n: usize| -> Vec<f64> {
                (0..n).map(|_| f64::from(rng.gen_range(-3i32..=3))).collect()
            };
            let (w1, w2, x) = (ints(d_mid * d_in), ints(d_out * d_mid), ints(d_in));
            let dense = |w: &[f64], cols: usize, v: &[f64]| -> Vec<f64> {
                w.chunks(cols).map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum()).collect()
            };
            let hidden = dense(&w1, d_in, &x);
            let logits = dense(&w2, d_mid, &hidden);

            let contig = Layout::SingleContig { n: d_in };
            let first = plan_linear(&contig, d_mid, slots).expect("stackable input");
            let mut stacked = vec![0.0; slots];
            stacked[..d_in].copy_from_slice(&x);
            for &shift in &first.stack_shifts {
                let before = stacked.clone();
                for (j, s) in stacked.iter_mut().enumerate() {
                    *s += before[(j + shift) % slots];
                }
            }
            let h = first.schedule.apply_plain(&stacked, |g, b| {
                linear_diagonal(&contig, &first, d_mid, slots, &|k, v| w1[k * d_in + v], g, b)
            });
            let got: Vec<f64> = first.output.placements(slots).iter().map(|&(_, s)| h[s]).collect();
            assert_eq!(got, hidden, "{slots} slots: hybrid diagonals");

            let second = plan_linear(&first.output, d_out, slots).expect("fits the windows");
            assert!(second.stack_shifts.is_empty());
            let y = second.schedule.apply_plain(&h, |g, b| {
                let weight = |k: usize, v: usize| w2[k * d_mid + v];
                linear_diagonal(&first.output, &second, d_out, slots, &weight, g, b)
            });
            let got: Vec<f64> = second.output.placements(slots).iter().map(|&(_, s)| y[s]).collect();
            assert_eq!(got, logits, "{slots} slots: window packing");

            let faithful = plan_dense(&contig, d_mid, slots);
            let keys = [faithful.stack_shifts, faithful.sum_shifts].concat();
            let steps = [first.schedule.rotation_steps(), first.stack_shifts].concat();
            for step in steps.into_iter().chain(second.schedule.rotation_steps()) {
                let across_blocks = step >= next_pow2(d_in);
                assert!(keys.contains(&step) || across_blocks, "step {step} needs a new key");
            }
        }
    }

    #[test]
    fn measured_trace_matches_analytic_plan() {
        use fxhenn_math::par::{with_parallelism, Parallelism};
        let net = toy_mnist_like(15);
        let rig = rig_for(&net);
        for profile in [LoweringProfile::PaperFaithful, LoweringProfile::Optimized] {
            let input = rig.encrypt_for(&net, &synthetic_input(&net, 7), profile).expect("packs");
            let (degree, levels) = (rig.ctx.degree(), rig.ctx.max_level());
            let prog = try_lower_network_with(&net, degree, levels, profile).expect("lowers");
            for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
                let mut exec = HeCnnExecutor::with_profile(&rig.ctx, &rig.rk, &rig.gks, profile);
                exec.start_trace();
                with_parallelism(parallelism, || exec.run(&net, &input));
                let measured = exec.take_trace().expect("trace started");
                assert_eq!(measured, prog.total_trace(), "{profile:?} {parallelism:?}");
            }
        }
    }

    #[test]
    fn tap_blocks_input_of_the_other_profile_is_refused_typed() {
        // The toy network packs its 9 taps into one ciphertext of 16
        // blocks for `Optimized`, into 9 for `PaperFaithful`: an input
        // packed for one profile is refused by the other's executor
        // before a single operation.
        use LoweringProfile::{Optimized, PaperFaithful};
        let net = toy_mnist_like(24);
        let rig = rig_for(&net);
        let image = synthetic_input(&net, 7);
        let cases = [(PaperFaithful, Optimized, 1, 9), (Optimized, PaperFaithful, 9, 1)];
        for (packed_for, run_as, expected, got) in cases {
            let input = rig.encrypt_for(&net, &image, packed_for).expect("packs");
            let mut exec = HeCnnExecutor::with_profile(&rig.ctx, &rig.rk, &rig.gks, run_as);
            exec.start_trace();
            let err = exec.try_run(&net, &input).expect_err("the packings differ");
            let what = "offset count";
            let refused = ExecError::PackingMismatch { layer: "Cnv1".into(), what, expected, got };
            assert_eq!(err, refused, "{packed_for:?} input on a {run_as:?} executor");
            assert_eq!(exec.take_trace().expect("trace started").hop_count(), 0, "no HOP booked");
        }
    }

    #[test]
    fn spans_and_layer_spans_cover_the_whole_run() {
        let net = toy_mnist_like(23);
        let rig = rig_for(&net);
        let mut exec = rig.exec();
        exec.start_trace();
        exec.start_spans();
        exec.start_layer_spans();
        let _ = exec.run(&net, &rig.input(&net));
        let trace = exec.take_trace().expect("trace started");
        let spans = exec.take_spans().expect("spans started");
        let layers = exec.take_layer_spans().expect("layer spans started");
        assert_eq!(spans.len(), trace.records().len(), "one span per recorded op");
        for (span, record) in spans.spans().iter().zip(trace.records()) {
            assert_eq!(span.label, (record.kind, record.level));
        }
        let names: Vec<_> = layers.spans().iter().map(|s| s.label.as_str()).collect();
        let expected: Vec<_> = net.layers().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, expected, "one span per layer, in execution order");
        assert!(layers.total_nanos() > 0, "layers take nonzero wall time");
    }

    #[test]
    fn mid_network_conv_executes_as_dense() {
        // Cnv -> Act -> Cnv (the CIFAR10 structure) at toy scale.
        let weights = [0.25, -0.5, 0.125, 0.375, -0.25, 0.5, 0.0625, -0.125];
        let weights = [weights, [0.3, -0.2, 0.15, 0.05, -0.1, 0.2, 0.25, -0.3]].concat();
        let conv2 = Conv2d::new(2, 2, (2, 2), (1, 1), weights, vec![0.1, -0.1]);
        let mut layers = toy_prefix(16, 1).layers().to_vec();
        layers.push(("Act1".to_string(), Layer::Activation(Square)));
        layers.push(("Cnv2".to_string(), Layer::Conv(conv2)));
        run_and_compare(&Network::new("conv-act-conv", &[1, 9, 9], layers), 0.1);
    }

    #[test]
    fn consolidation_path_matches_plaintext() {
        // Conv output 8 maps of 6x6 = 288 values > 256 = slots/2, so the
        // dense layer cannot stack: it runs one output per round, and its
        // 40 rounds (> CONSOLIDATE_THRESHOLD) fold into one ciphertext.
        let mut rng = StdRng::seed_from_u64(44);
        let mut w = |n: usize, s: f64| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-s..s)).collect() };
        let (d_in, d_out) = (8 * 36, 40);
        let conv = Conv2d::new(8, 1, (3, 3), (1, 1), w(72, 0.3), w(8, 0.1));
        let fc = Dense::new(d_out, d_in, w(d_out * d_in, 0.05), w(d_out, 0.1));
        let layers = vec![
            ("Cnv1".to_string(), Layer::Conv(conv)),
            ("Fc1".to_string(), Layer::Dense(fc)),
        ];
        run_and_compare(&Network::new("wide-fc", &[1, 8, 8], layers), 0.1);
    }

    #[test]
    fn conv_sign_relu_matches_plaintext_polynomial() {
        // The plaintext SignRelu runs the same composite polynomial the
        // evaluator does, so HE and plaintext agree to encryption noise
        // — including inside the sign dead band.
        let relu = crate::layers::SignRelu::new(fxhenn_ckks::SignPreset::Low, 1.0);
        let conv = Conv2d::new(1, 1, (1, 1), (1, 1), vec![1.0], vec![0.0]);
        let layers = vec![
            ("Cnv1".to_string(), Layer::Conv(conv)),
            ("Sgn1".to_string(), Layer::SignAct(relu)),
        ];
        let net = Network::new("conv-sgn", &[1, 2, 2], layers);
        let image = Tensor::from_data(&[1, 2, 2], vec![-0.9, -0.2, 0.45, 0.8]);
        let expected = net.forward(&image);
        // The Low sign ReLU needs 3·2 + 4 levels. Eleven leave it exactly
        // that many after Cnv1; ten leave it 3·2 + 3, which the lowering
        // and the run both refuse, typed, before any sign stage.
        for levels in [11, 10] {
            let ctx = CkksContext::new(CkksParams::insecure_toy(levels));
            let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(77));
            let (pk, sk, rk) = (kg.public_key(), kg.secret_key(), kg.relin_key());
            let gks = kg.galois_keys(&[]);
            let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(78));
            let input = encrypt_input(&net, &image, &mut enc, ctx.degree() / 2);
            let mut exec = HeCnnExecutor::new(&ctx, &rk, &gks);
            exec.start_trace();
            let ran = exec.try_run(&net, &input);
            let lowered =
                try_lower_network_with(&net, ctx.degree(), levels, LoweringProfile::Optimized);
            if levels == 10 {
                let refused =
                    LowerError::LevelBudgetExhausted { layer: "Sgn1".into(), max_level: 10 };
                assert_eq!(lowered, Err(refused.clone()));
                assert_eq!(ran.expect_err("one level short"), ExecError::Lower(refused));
                continue;
            }
            let planned = lowered.expect("deep enough").total_trace();
            assert_eq!(exec.take_trace(), Some(planned), "record for record");
            let got = ran.expect("deep enough").decrypt(&Decryptor::new(&ctx, sk));
            assert_eq!(got.len(), expected.len());
            for (i, (&g, &e)) in got.iter().zip(expected.data()).enumerate() {
                assert!((g - e).abs() < 2e-2, "slot {i}: HE {g} vs plaintext polynomial {e}");
            }
        }
    }

    #[test]
    fn logits_argmax_agrees_with_plaintext() {
        let net = toy_mnist_like(17);
        let rig = rig_for(&net);
        let image = synthetic_input(&net, 9);
        let input = rig.encrypt(&net, &image).expect("packs");
        let got = rig.decrypt(&rig.exec().run(&net, &input));
        let he_argmax = (0..got.len()).max_by(|&a, &b| got[a].total_cmp(&got[b]));
        assert_eq!(he_argmax, Some(net.forward(&image).argmax()), "classification must agree");
    }

    #[test]
    fn missing_galois_key_yields_typed_error() {
        let net = toy_mnist_like(18);
        let rig = rig_for(&net);
        // Keys for no rotations at all: the first dense layer must fail.
        let empty_gks = KeyGenerator::new(&rig.ctx, StdRng::seed_from_u64(31)).galois_keys(&[]);
        let mut exec = HeCnnExecutor::new(&rig.ctx, &rig.rk, &empty_gks);
        let err = exec.try_run(&net, &rig.input(&net)).expect_err("must fail");
        assert!(matches!(err.eval_source(), Some(EvalError::MissingGaloisKey { .. })), "{err}");
    }

    #[test]
    fn non_conv_front_end_yields_typed_error() {
        let src = toy_mnist_like(19);
        let dense = src.layers().iter().find(|(_, l)| matches!(l, Layer::Dense(_))).cloned();
        let net = Network::new("dense-first", &[1, 9, 9], vec![dense.expect("a dense layer")]);
        let err = rig_for(&src).encrypt(&net, &synthetic_input(&src, 7)).expect_err("must fail");
        assert_eq!(err, ExecError::Lower(LowerError::FirstLayerNotConv));
    }

    #[test]
    fn nan_weights_yield_typed_error_not_garbage() {
        let err = run_poisoned(20, |conv| conv.weights[0] = f64::NAN);
        assert!(matches!(err.eval_source(), Some(EvalError::NonFiniteValue { .. })), "{err}");
    }

    #[test]
    fn huge_weights_exhaust_noise_budget_typed() {
        let err = run_poisoned(21, |conv| conv.weights.fill(1e60));
        // The evaluator's per-op floor usually refuses the operation
        // first (wrapped with the layer name); the executor's layer
        // boundary check is the fallback. Either way the run must fail
        // typed instead of decrypting garbage.
        let exhausted = matches!(err, ExecError::NoiseBudgetExhausted { .. })
            || matches!(err.eval_source(), Some(EvalError::NoiseBudgetExhausted { .. }));
        assert!(exhausted, "expected NoiseBudgetExhausted, got {err:?}");
    }

    #[test]
    fn nan_image_rejected_at_encryption() {
        let net = toy_mnist_like(22);
        let mut image = synthetic_input(&net, 7);
        image.data_mut()[0] = f64::NAN;
        let err = rig_for(&net).encrypt(&net, &image).expect_err("must fail");
        assert!(matches!(err.eval_source(), Some(EvalError::NonFiniteValue { .. })), "{err}");
    }

    #[test]
    fn argmax_with_nan_logit_is_stable() {
        // total_cmp orders NaN above every finite value, so a NaN logit
        // is selected deterministically instead of panicking.
        let logits = [0.3, f64::NAN, 0.9];
        let idx = (0..logits.len()).max_by(|&a, &b| logits[a].total_cmp(&logits[b]));
        assert_eq!(idx, Some(1), "NaN sorts greatest under total_cmp");
    }
}
