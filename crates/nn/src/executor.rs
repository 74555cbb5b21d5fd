//! Functional HE-CNN execution: runs a network homomorphically through
//! `fxhenn-ckks`, using exactly the lowering decisions of
//! [`crate::lowering`] (shared via [`plan_dense`] and [`plan_linear`]),
//! so that the measured operation trace can be compared one-to-one
//! against the analytic plan and the decrypted result against the
//! plaintext network.
//!
//! An executor runs one [`LoweringProfile`]. `Optimized` (the default)
//! is the fast path: plaintext operands come encoded from the network's
//! [`PlaintextCache`](crate::PlaintextCache) and dense layers are single
//! linear transforms on the executor's own evaluator. `PaperFaithful`
//! executes the lowering the hardware model prices, operation for
//! operation — the witness that the priced program computes the network.

use crate::error::ExecError;
use crate::layers::{Conv2d, Layer};
use crate::lowering::{plan_dense, plan_linear, DensePlan, Layout, LinearPlan, LoweringProfile};
use crate::model::Network;
use crate::packing::{conv_bias_vectors, conv_offset_pack, conv_offset_weights, CtLayout};
use crate::plain_cache::LayerOperands;
use crate::telemetry::{nn_metrics, LayerSpanLog};
use crate::tensor::Tensor;
use fxhenn_ckks::{
    Ciphertext, Decryptor, Encryptor, EvalError, Evaluator, GaloisKeys, LinearTransform,
    OpSpanLog, OpTrace, RelinKey,
};
use fxhenn_math::budget::{self, Budget, Progress};
use fxhenn_math::par;
use rand::Rng;
use std::sync::OnceLock;
use std::time::Instant;

/// Levels a layer needs at entry: every layer type multiplies once and
/// rescales once, and a rescale needs a prime to drop (level >= 2).
const LAYER_LEVEL_NEED: usize = 2;

/// What one parallel work item (an output ciphertext) produces: the
/// ciphertext (carrying its analytic noise state, stamped by every
/// evaluator op) and the child evaluator's trace and span log (when
/// tracing/timing). Merged back into the executor in index order, so
/// trace and spans are structured identically to a serial run's.
type ItemResult = Result<(Ciphertext, Option<OpTrace>, Option<OpSpanLog>), ExecError>;

/// The encrypted, offset-packed input of a network: one ciphertext per
/// (output-map group, kernel offset).
#[derive(Debug, Clone)]
pub struct EncryptedInput {
    /// `groups[g][i]` is the ciphertext for group `g`, kernel offset `i`.
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
/// convolution expects, returning an [`ExecError`] when the network has
/// no convolution front end or the image carries non-finite values.
pub fn try_encrypt_input<R: Rng>(
    net: &Network,
    image: &Tensor,
    enc: &mut Encryptor<'_, R>,
    slots: usize,
) -> Result<EncryptedInput, ExecError> {
    let Some((name, first)) = net.layers().first() else {
        return Err(ExecError::EmptyNetwork);
    };
    let Layer::Conv(conv) = first else {
        return Err(ExecError::FirstLayerNotConv);
    };
    if let Some(index) = image.data().iter().position(|v| !v.is_finite()) {
        return Err(ExecError::Eval {
            layer: name.clone(),
            source: EvalError::NonFiniteValue { index },
        });
    }
    let packed = conv_offset_pack(image, conv, slots);
    let groups = packed
        .iter()
        .map(|offsets| offsets.iter().map(|v| enc.encrypt(v)).collect())
        .collect();
    Ok(EncryptedInput { groups })
}

/// Encrypts an input image with the offset packing the network's first
/// convolution expects.
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
}

/// A layer's slot in the network's operand cache (`None` when the
/// profile encodes per request).
type OperandSlot<'s> = Option<&'s OnceLock<LayerOperands>>;

/// The slot's operands, encoded by `build` if this is the first run to
/// reach the layer. Two first runs racing both encode; one result is kept.
fn cached(
    slot: &OnceLock<LayerOperands>,
    build: impl FnOnce() -> Result<LayerOperands, EvalError>,
) -> Result<&LayerOperands, EvalError> {
    match slot.get() {
        Some(operands) => Ok(operands),
        None => {
            let built = build()?;
            Ok(slot.get_or_init(|| built))
        }
    }
}

struct RunState {
    cts: Vec<Ciphertext>,
    abstract_layout: Layout,
    concrete: CtLayout,
    shape: Vec<usize>,
}

/// Wraps an [`EvalError`] with the layer it occurred in.
fn at_layer(layer: &str) -> impl Fn(EvalError) -> ExecError + '_ {
    move |source| ExecError::Eval {
        layer: layer.to_string(),
        source,
    }
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

    /// Accounts one completed layer: the always-on global metrics, and
    /// the opt-in layer span log.
    fn note_layer(&mut self, name: &str, started: Instant) {
        let nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let m = nn_metrics();
        m.layers.inc();
        m.latency.observe(nanos);
        if let Some(spans) = &mut self.layer_spans {
            spans.record(name.to_string(), nanos);
        }
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
        let slots = self.ev.context().degree() / 2;
        let mut state: Option<RunState> = None;
        let mut shape = net.input_shape().to_vec();
        let total_layers = net.layers().len() as u64;
        let operands = (self.profile == LoweringProfile::Optimized).then(|| {
            let first = input.groups.first().and_then(|g| g.first());
            net.plaintext_cache()
                .for_run(self.ev.context(), first, net.layer_count())
        });

        for (idx, (name, layer)) in net.layers().iter().enumerate() {
            let slot: OperandSlot<'_> = operands.as_ref().map(|set| &set.layers[idx]);
            if idx == 0 && !matches!(layer, Layer::Conv(_)) {
                return Err(ExecError::FirstLayerNotConv);
            }
            budget::check("layer", Progress::of(idx as u64, total_layers))
                .map_err(ExecError::Cancelled)?;
            self.preflight_levels(name, state.as_ref(), input)?;
            let layer_started = Instant::now();
            let need_input = |state: &mut Option<RunState>| {
                state.take().ok_or_else(|| ExecError::MissingInput {
                    layer: name.clone(),
                })
            };
            match layer {
                Layer::Conv(conv) if idx == 0 => {
                    let s = self.run_first_conv(name, conv, &shape, input, slots, slot)?;
                    shape = s.shape.clone();
                    state = Some(s);
                }
                Layer::Conv(conv) => {
                    let st = need_input(&mut state)?;
                    let (oh, ow) = conv.output_size(st.shape[1], st.shape[2]);
                    let d_out = conv.out_channels * oh * ow;
                    let in_shape = st.shape.clone();
                    let conv2 = conv.clone();
                    let next = self.run_dense_like(
                        name,
                        st,
                        d_out,
                        &|k, v| conv_dense_weight(&conv2, &in_shape, k, v),
                        &|k| conv2.bias[k / (oh * ow)],
                        slot,
                    )?;
                    shape = vec![conv.out_channels, oh, ow];
                    state = Some(RunState { shape: shape.clone(), ..next });
                }
                Layer::Activation(_) => {
                    let st = need_input(&mut state)?;
                    state = Some(self.run_activation(name, st)?);
                }
                Layer::Dense(d) => {
                    let st = need_input(&mut state)?;
                    if st.abstract_layout.value_count() != d.in_features {
                        return Err(ExecError::DenseSizeMismatch {
                            layer: name.clone(),
                            expected: d.in_features,
                            got: st.abstract_layout.value_count(),
                        });
                    }
                    let d2 = d.clone();
                    let next = self.run_dense_like(
                        name,
                        st,
                        d.out_features,
                        &|k, v| d2.weight(k, v),
                        &|k| d2.bias[k],
                        slot,
                    )?;
                    shape = vec![d.out_features];
                    state = Some(RunState { shape: shape.clone(), ..next });
                }
                Layer::AvgPool(pool) => {
                    let st = need_input(&mut state)?;
                    let in_shape = st.shape.clone();
                    let (oh, ow) = pool.output_size(in_shape[1], in_shape[2]);
                    let d_out = in_shape[0] * oh * ow;
                    let p2 = *pool;
                    let next = self.run_dense_like(
                        name,
                        st,
                        d_out,
                        &|k, v| p2.dense_weight(&in_shape, k, v),
                        &|_| 0.0,
                        slot,
                    )?;
                    shape = vec![in_shape[0], oh, ow];
                    state = Some(RunState { shape: shape.clone(), ..next });
                }
                Layer::Scale(cs) => {
                    let st = need_input(&mut state)?;
                    state = Some(self.run_channel_scale(name, st, cs, slots)?);
                }
                Layer::SignAct(relu) => {
                    let st = need_input(&mut state)?;
                    state = Some(self.run_sign_activation(name, st, relu)?);
                }
            }
            self.note_layer(name, layer_started);
        }

        let st = state.ok_or(ExecError::EmptyNetwork)?;
        Ok(EncryptedOutput {
            cts: st.cts,
            layout: st.concrete,
        })
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

    /// Pre-flight level check at a layer boundary: verifies the carried
    /// ciphertexts still have the levels the layer's multiply + rescale
    /// needs, so the run fails *here*, naming the layer, instead of
    /// hitting [`EvalError::RescaleAtFloor`] deep inside the evaluator.
    fn preflight_levels(
        &self,
        name: &str,
        state: Option<&RunState>,
        input: &EncryptedInput,
    ) -> Result<(), ExecError> {
        let have = match state {
            Some(st) => st.cts.first().map(Ciphertext::level),
            None => input
                .groups
                .first()
                .and_then(|g| g.first())
                .map(Ciphertext::level),
        };
        match have {
            Some(have) if have < LAYER_LEVEL_NEED => Err(ExecError::InsufficientLevels {
                layer: name.to_string(),
                have,
                need: LAYER_LEVEL_NEED,
            }),
            _ => Ok(()),
        }
    }

    /// Layer-boundary defense-in-depth on the noise state the evaluator
    /// stamps into every ciphertext: fails the run, naming the layer,
    /// once the worst carried ciphertext has no predicted budget left.
    /// The evaluator's own per-op floor usually fires first (wrapped as
    /// [`ExecError::Eval`]); this check catches state assembled outside
    /// evaluator ops.
    fn check_budget(
        &self,
        layer: &str,
        op: &'static str,
        cts: &[Ciphertext],
    ) -> Result<(), ExecError> {
        let budget_bits = cts
            .iter()
            .map(Ciphertext::budget_bits)
            .fold(f64::INFINITY, f64::min);
        if budget_bits <= self.ev.noise_floor_bits() {
            return Err(ExecError::NoiseBudgetExhausted {
                layer: layer.to_string(),
                op,
                budget_bits,
            });
        }
        Ok(())
    }

    fn run_first_conv(
        &mut self,
        name: &str,
        conv: &Conv2d,
        shape: &[usize],
        input: &EncryptedInput,
        slots: usize,
        slot: OperandSlot<'_>,
    ) -> Result<RunState, ExecError> {
        let (oh, ow) = conv.output_size(shape[1], shape[2]);
        let positions = oh * ow;
        let maps_per_group = (slots / positions).min(conv.out_channels).max(1);
        let groups = conv.out_channels.div_ceil(maps_per_group);
        if input.groups.len() != groups {
            return Err(ExecError::PackingMismatch {
                layer: name.to_string(),
                what: "group count",
                expected: groups,
                got: input.groups.len(),
            });
        }
        for offsets in &input.groups {
            if offsets.len() != conv.offset_count() {
                return Err(ExecError::PackingMismatch {
                    layer: name.to_string(),
                    what: "offset count",
                    expected: conv.offset_count(),
                    got: offsets.len(),
                });
            }
        }

        let out = match slot {
            Some(slot) => self.first_conv_summed(name, conv, positions, input, slots, slot)?,
            None => self.first_conv_per_tap(name, conv, positions, input, slots)?,
        };
        self.check_budget(name, "PCmult", &out)?;

        let n_values = conv.out_channels * positions;
        let concrete = crate::packing::conv_output_layout(conv, positions, slots);
        let abstract_layout = if out.len() == 1 {
            Layout::SingleContig { n: n_values }
        } else {
            Layout::MultiContig {
                n: n_values,
                cts: out.len(),
            }
        };
        Ok(RunState {
            cts: out,
            abstract_layout,
            concrete,
            shape: vec![conv.out_channels, oh, ow],
        })
    }

    /// The `PaperFaithful` first convolution: every tap product is
    /// rescaled on its own, as Listing 1 of the paper does.
    fn first_conv_per_tap(
        &mut self,
        name: &str,
        conv: &Conv2d,
        positions: usize,
        input: &EncryptedInput,
        slots: usize,
    ) -> Result<Vec<Ciphertext>, ExecError> {
        let weights = conv_offset_weights(conv, positions, slots);
        let biases = conv_bias_vectors(conv, positions, slots);
        // Each group produces one independent output ciphertext: fan the
        // groups out over a child evaluator per work item and merge the
        // traces back in index order (identical to a serial run, since a
        // serial run records each group's ops contiguously).
        let ctx = self.ev.context();
        let tracing = self.ev.is_tracing();
        let timing = self.ev.is_timing();
        let floor = self.ev.noise_floor_bits();
        let results: Vec<ItemResult> = par::map_indexed(input.groups.len(), par::GRAIN_COARSE, |g| {
            let err = at_layer(name);
            let mut ev = Evaluator::new(ctx);
            ev.set_noise_floor_bits(floor);
            if tracing {
                ev.start_trace();
            }
            if timing {
                ev.start_spans();
            }
            let offsets = &input.groups[g];
            let mut acc: Option<Ciphertext> = None;
            for (i, ct) in offsets.iter().enumerate() {
                let pw = ev
                    .encode_for_mul(&weights[g][i], ct.level())
                    .map_err(&err)?;
                let prod = ev.mul_plain(ct, &pw).map_err(&err)?;
                let rs = ev.rescale(&prod).map_err(&err)?;
                acc = Some(match acc {
                    None => rs,
                    Some(a) => ev.add(&a, &rs).map_err(&err)?,
                });
            }
            let acc = acc.expect("at least one offset");
            let bias_pt = ev
                .encode_at(&biases[g], acc.scale(), acc.level())
                .map_err(&err)?;
            let out_ct = ev.add_plain(&acc, &bias_pt).map_err(&err)?;
            Ok((out_ct, ev.take_trace(), ev.take_spans()))
        });
        self.merge_items(results)
    }

    /// The `Optimized` first convolution: the tap products of a group are
    /// summed at scale Δ² and rescaled once, with cached plaintexts.
    fn first_conv_summed(
        &mut self,
        name: &str,
        conv: &Conv2d,
        positions: usize,
        input: &EncryptedInput,
        slots: usize,
        slot: &OnceLock<LayerOperands>,
    ) -> Result<Vec<Ciphertext>, ExecError> {
        let err = at_layer(name);
        let first = &input.groups[0][0];
        let (level, out_scale) = (first.level(), self.scale_after_layer(first));
        let ev = &self.ev;
        let operands = cached(slot, || {
            let weights = conv_offset_weights(conv, positions, slots);
            let biases = conv_bias_vectors(conv, positions, slots);
            let groups = weights.iter().zip(&biases).map(|(taps, bias)| {
                let taps = taps.iter().map(|w| ev.encode_for_mul(w, level));
                Ok((
                    taps.collect::<Result<_, _>>()?,
                    ev.encode_at(bias, out_scale, level - 1)?,
                ))
            });
            Ok(LayerOperands::Conv(groups.collect::<Result<_, EvalError>>()?))
        })
        .map_err(&err)?;
        let LayerOperands::Conv(groups) = operands else {
            unreachable!("a layer's operand kind is fixed by the network");
        };

        let mut out = Vec::with_capacity(groups.len());
        for (offsets, (taps, bias)) in input.groups.iter().zip(groups) {
            let mut acc: Option<Ciphertext> = None;
            for (ct, tap) in offsets.iter().zip(taps) {
                let prod = self.ev.mul_plain(ct, tap).map_err(&err)?;
                acc = Some(match acc {
                    None => prod,
                    Some(a) => self.ev.add(&a, &prod).map_err(&err)?,
                });
            }
            let sum = self.ev.rescale(&acc.expect("at least one offset")).map_err(&err)?;
            out.push(self.ev.add_plain(&sum, bias).map_err(&err)?);
        }
        Ok(out)
    }

    /// The scale a layer's `PCmult` + `Rescale` leaves `ct` at, computed
    /// the way the evaluator will so a bias encoded ahead of time matches.
    fn scale_after_layer(&self, ct: &Ciphertext) -> f64 {
        let q = self.ev.context().dropped_prime_at(ct.level()) as f64;
        ct.scale() * q / q
    }

    /// Collects fan-out results in index order, folding each child
    /// evaluator's trace and spans into the executor's.
    fn merge_items(&mut self, results: Vec<ItemResult>) -> Result<Vec<Ciphertext>, ExecError> {
        let mut cts = Vec::with_capacity(results.len());
        for res in results {
            let (ct, trace, spans) = res?;
            if let Some(t) = &trace {
                self.ev.merge_trace(t);
            }
            if let Some(s) = &spans {
                self.ev.merge_spans(s);
            }
            cts.push(ct);
        }
        Ok(cts)
    }

    fn run_activation(&mut self, name: &str, st: RunState) -> Result<RunState, ExecError> {
        let err = at_layer(name);
        let mut cts = Vec::with_capacity(st.cts.len());
        for ct in &st.cts {
            let sq = self.ev.square(ct).map_err(&err)?;
            let lin = self.ev.relinearize(&sq, self.rk).map_err(&err)?;
            cts.push(self.ev.rescale(&lin).map_err(&err)?);
        }
        self.check_budget(name, "CCmult", &cts)?;
        Ok(RunState { cts, ..st })
    }

    fn run_sign_activation(
        &mut self,
        name: &str,
        st: RunState,
        relu: &crate::layers::SignRelu,
    ) -> Result<RunState, ExecError> {
        let err = at_layer(name);
        let mut cts = Vec::with_capacity(st.cts.len());
        for ct in &st.cts {
            cts.push(
                fxhenn_ckks::relu_approx(&mut self.ev, ct, self.rk, relu.preset, relu.bound)
                    .map_err(&err)?,
            );
        }
        self.check_budget(name, "Sign", &cts)?;
        Ok(RunState { cts, ..st })
    }

    fn run_channel_scale(
        &mut self,
        name: &str,
        st: RunState,
        cs: &crate::layers::ChannelScale,
        slots: usize,
    ) -> Result<RunState, ExecError> {
        let err = at_layer(name);
        if st.shape.len() != 3 {
            return Err(ExecError::NotChw {
                layer: name.to_string(),
                rank: st.shape.len(),
            });
        }
        let per_map = st.shape[1] * st.shape[2];
        let mut cts = Vec::with_capacity(st.cts.len());
        for (m, ct) in st.cts.iter().enumerate() {
            let mut factors = vec![0.0; slots];
            let mut shifts = vec![0.0; slots];
            for (v, &(ct_idx, slot)) in st.concrete.placements().iter().enumerate() {
                if ct_idx == m {
                    let c = v / per_map;
                    factors[slot] = cs.factors[c];
                    shifts[slot] = cs.shifts[c];
                }
            }
            let pf = self
                .ev
                .encode_for_mul(&factors, ct.level())
                .map_err(&err)?;
            let prod = self.ev.mul_plain(ct, &pf).map_err(&err)?;
            let scaled = self.ev.rescale(&prod).map_err(&err)?;
            let ps = self
                .ev
                .encode_at(&shifts, scaled.scale(), scaled.level())
                .map_err(&err)?;
            cts.push(self.ev.add_plain(&scaled, &ps).map_err(&err)?);
        }
        self.check_budget(name, "PCmult", &cts)?;
        Ok(RunState { cts, ..st })
    }

    fn run_dense_like(
        &mut self,
        name: &str,
        st: RunState,
        d_out: usize,
        weight: &(dyn Fn(usize, usize) -> f64 + Sync),
        bias: &(dyn Fn(usize) -> f64 + Sync),
        slot: OperandSlot<'_>,
    ) -> Result<RunState, ExecError> {
        let slots = self.ev.context().degree() / 2;
        if let (Some(slot), Some(plan)) = (slot, plan_linear(&st.abstract_layout, d_out, slots)) {
            return self.dense_linear(name, st, d_out, slots, &plan, weight, bias, slot);
        }
        let plan = plan_dense(&st.abstract_layout, d_out, slots);
        let (round_cts, out_abstract, out_concrete) = if plan.stacked {
            self.dense_stacked(name, &st, d_out, slots, &plan, weight, bias)?
        } else {
            self.dense_per_output(name, &st, d_out, slots, &plan, weight, bias)?
        };
        self.check_budget(name, "PCmult", &round_cts)?;

        if plan.consolidate {
            let (ct, abstract_layout, concrete) =
                self.consolidate(name, &round_cts, d_out, slots, &plan, &out_abstract)?;
            self.check_budget(name, "consolidate", std::slice::from_ref(&ct))?;
            Ok(RunState {
                cts: vec![ct],
                abstract_layout,
                concrete,
                shape: st.shape,
            })
        } else {
            Ok(RunState {
                cts: round_cts,
                abstract_layout: out_abstract,
                concrete: out_concrete,
                shape: st.shape,
            })
        }
    }

    /// A dense layer as one cached [`LinearTransform`] (see
    /// [`plan_linear`]) on the executor's own evaluator.
    #[allow(clippy::too_many_arguments)]
    fn dense_linear(
        &mut self,
        name: &str,
        st: RunState,
        d_out: usize,
        slots: usize,
        plan: &LinearPlan,
        weight: &(dyn Fn(usize, usize) -> f64 + Sync),
        bias: &(dyn Fn(usize) -> f64 + Sync),
        slot: &OnceLock<LayerOperands>,
    ) -> Result<RunState, ExecError> {
        let err = at_layer(name);
        let mut x = st.cts[0].clone();
        for &shift in &plan.stack_shifts {
            let rot = self.ev.rotate(&x, shift, self.gks).map_err(&err)?;
            x = self.ev.add(&x, &rot).map_err(&err)?;
        }
        let placements = plan
            .output
            .placements(slots)
            .expect("linear plans place their outputs by slot");

        let (level, out_scale) = (x.level(), self.scale_after_layer(&x));
        let ev = &self.ev;
        let operands = cached(slot, || {
            let transform = LinearTransform::new(ev, plan.schedule.clone(), level, |g, b| {
                linear_diagonal(&st.abstract_layout, plan, d_out, slots, weight, g, b)
            })?;
            let mut bv = vec![0.0; slots];
            for (k, &(_, at)) in placements.iter().enumerate() {
                bv[at] = bias(k);
            }
            let bias_pt = ev.encode_at(&bv, out_scale, level - 1)?;
            Ok(LayerOperands::Linear(transform, bias_pt))
        })
        .map_err(&err)?;
        let LayerOperands::Linear(transform, bias_pt) = operands else {
            unreachable!("a layer's operand kind is fixed by the network");
        };

        let y = transform.apply(&mut self.ev, &x, self.gks).map_err(&err)?;
        let out = self.ev.add_plain(&y, bias_pt).map_err(&err)?;
        self.check_budget(name, "PCmult", std::slice::from_ref(&out))?;
        Ok(RunState {
            cts: vec![out],
            abstract_layout: plan.output.clone(),
            concrete: CtLayout::new(slots, 1, placements),
            shape: st.shape,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn dense_stacked(
        &mut self,
        name: &str,
        st: &RunState,
        d_out: usize,
        slots: usize,
        plan: &DensePlan,
        weight: &(dyn Fn(usize, usize) -> f64 + Sync),
        bias: &(dyn Fn(usize) -> f64 + Sync),
    ) -> Result<(Vec<Ciphertext>, Layout, CtLayout), ExecError> {
        let err = at_layer(name);
        let d_in = st.abstract_layout.value_count();
        // Replicate the input into `copies` stacked copies. The stacking
        // prologue is a sequential dependency chain, so it runs on the
        // executor's own evaluator; only the rounds fan out.
        let mut x = st.cts[0].clone();
        for &shift in &plan.stack_shifts {
            let rot = self.ev.rotate(&x, shift, self.gks).map_err(&err)?;
            x = self.ev.add(&x, &rot).map_err(&err)?;
        }

        // Each round produces one independent output ciphertext from the
        // shared stacked input.
        let ctx = self.ev.context();
        let tracing = self.ev.is_tracing();
        let timing = self.ev.is_timing();
        let floor = self.ev.noise_floor_bits();
        let gks = self.gks;
        let x_ref = &x;
        let results: Vec<ItemResult> = par::map_indexed(plan.rounds, par::GRAIN_COARSE, |r| {
            let err = at_layer(name);
            let mut ev = Evaluator::new(ctx);
            ev.set_noise_floor_bits(floor);
            if tracing {
                ev.start_trace();
            }
            if timing {
                ev.start_spans();
            }
            // Weight vector: output r·copies+s in segment s.
            let mut wv = vec![0.0; slots];
            for s in 0..plan.copies {
                let k = r * plan.copies + s;
                if k >= d_out {
                    break;
                }
                for v in 0..d_in {
                    wv[s * plan.seg + v] = weight(k, v);
                }
            }
            let pw = ev.encode_for_mul(&wv, x_ref.level()).map_err(&err)?;
            let prod = ev.mul_plain(x_ref, &pw).map_err(&err)?;
            let mut acc = ev.rescale(&prod).map_err(&err)?;
            for &shift in &plan.sum_shifts {
                let rot = ev.rotate(&acc, shift, gks).map_err(&err)?;
                acc = ev.add(&acc, &rot).map_err(&err)?;
            }
            let mut bv = vec![0.0; slots];
            for s in 0..plan.copies {
                let k = r * plan.copies + s;
                if k < d_out {
                    bv[s * plan.seg] = bias(k);
                }
            }
            let bias_pt = ev
                .encode_at(&bv, acc.scale(), acc.level())
                .map_err(&err)?;
            let out_ct = ev.add_plain(&acc, &bias_pt).map_err(&err)?;
            Ok((out_ct, ev.take_trace(), ev.take_spans()))
        });

        let round_cts = self.merge_items(results)?;
        let abstract_layout = Layout::Segmented {
            n: d_out,
            copies: plan.copies,
            seg: plan.seg,
            cts: plan.rounds,
        };
        let concrete = CtLayout::segmented(d_out, plan.copies, plan.seg, slots);
        Ok((round_cts, abstract_layout, concrete))
    }

    #[allow(clippy::too_many_arguments)]
    fn dense_per_output(
        &mut self,
        name: &str,
        st: &RunState,
        d_out: usize,
        slots: usize,
        plan: &DensePlan,
        weight: &(dyn Fn(usize, usize) -> f64 + Sync),
        bias: &(dyn Fn(usize) -> f64 + Sync),
    ) -> Result<(Vec<Ciphertext>, Layout, CtLayout), ExecError> {
        // Each output k is computed independently from the shared input
        // ciphertexts: fan out with one child evaluator per output.
        let ctx = self.ev.context();
        let tracing = self.ev.is_tracing();
        let timing = self.ev.is_timing();
        let floor = self.ev.noise_floor_bits();
        let gks = self.gks;
        let results: Vec<ItemResult> = par::map_indexed(d_out, par::GRAIN_COARSE, |k| {
            let err = at_layer(name);
            let mut ev = Evaluator::new(ctx);
            ev.set_noise_floor_bits(floor);
            if tracing {
                ev.start_trace();
            }
            if timing {
                ev.start_spans();
            }
            let mut prod_acc: Option<Ciphertext> = None;
            for (m, ct) in st.cts.iter().enumerate() {
                let mut wv = vec![0.0; slots];
                for (v, &(ct_idx, slot)) in st.concrete.placements().iter().enumerate() {
                    if ct_idx == m {
                        wv[slot] = weight(k, v);
                    }
                }
                let pw = ev.encode_for_mul(&wv, ct.level()).map_err(&err)?;
                let prod = ev.mul_plain(ct, &pw).map_err(&err)?;
                prod_acc = Some(match prod_acc {
                    None => prod,
                    Some(a) => ev.add(&a, &prod).map_err(&err)?,
                });
            }
            let prod_acc = prod_acc.expect("at least one input ct");
            let mut acc = ev.rescale(&prod_acc).map_err(&err)?;
            for &shift in &plan.sum_shifts {
                let rot = ev.rotate(&acc, shift, gks).map_err(&err)?;
                acc = ev.add(&acc, &rot).map_err(&err)?;
            }
            let mut bv = vec![0.0; slots];
            bv[0] = bias(k);
            let bias_pt = ev
                .encode_at(&bv, acc.scale(), acc.level())
                .map_err(&err)?;
            let out_ct = ev.add_plain(&acc, &bias_pt).map_err(&err)?;
            Ok((out_ct, ev.take_trace(), ev.take_spans()))
        });

        let round_cts = self.merge_items(results)?;
        let abstract_layout = Layout::PerOutput { n: d_out };
        let concrete = CtLayout::new(slots, d_out, (0..d_out).map(|k| (k, 0)).collect());
        Ok((round_cts, abstract_layout, concrete))
    }

    #[allow(clippy::too_many_arguments)]
    fn consolidate(
        &mut self,
        name: &str,
        round_cts: &[Ciphertext],
        d_out: usize,
        slots: usize,
        plan: &DensePlan,
        out_abstract: &Layout,
    ) -> Result<(Ciphertext, Layout, CtLayout), ExecError> {
        let err = at_layer(name);
        let mut acc: Option<Ciphertext> = None;
        for (r, ct) in round_cts.iter().enumerate() {
            // Mask keeps only this round's valid output slots.
            let mut mask = vec![0.0; slots];
            match out_abstract {
                Layout::Segmented { copies, seg, .. } => {
                    for s in 0..*copies {
                        if r * copies + s < d_out {
                            mask[s * seg] = 1.0;
                        }
                    }
                }
                Layout::PerOutput { .. } => mask[0] = 1.0,
                other => {
                    return Err(ExecError::Unconsolidatable {
                        layer: name.to_string(),
                        layout: format!("{other:?}"),
                    })
                }
            }
            let pw = self.ev.encode_for_mul(&mask, ct.level()).map_err(&err)?;
            let prod = self.ev.mul_plain(ct, &pw).map_err(&err)?;
            let mut masked = self.ev.rescale(&prod).map_err(&err)?;
            if r > 0 {
                masked = self
                    .ev
                    .rotate(&masked, plan.consolidate_shifts[r - 1], self.gks)
                    .map_err(&err)?;
            }
            acc = Some(match acc {
                None => masked,
                Some(a) => self.ev.add(&a, &masked).map_err(&err)?,
            });
        }
        let (copies, seg) = match out_abstract {
            Layout::Segmented { copies, seg, .. } => (*copies, *seg),
            Layout::PerOutput { .. } => (1usize, 1usize),
            other => {
                return Err(ExecError::Unconsolidatable {
                    layer: name.to_string(),
                    layout: format!("{other:?}"),
                })
            }
        };
        let abstract_layout = Layout::ScatteredSingle {
            n: d_out,
            copies,
            seg,
            rounds: plan.rounds,
        };
        let placements = (0..d_out)
            .map(|k| (0usize, (k % copies) * seg + k / copies))
            .collect();
        let concrete = CtLayout::new(slots, 1, placements);
        let out = acc.expect("at least one round");
        Ok((out, abstract_layout, concrete))
    }
}

/// The slot vector that multiplies `rot(x, g·stride + b)` in a dense
/// layer planned by [`plan_linear`] — the form [`LinearTransform::new`]
/// and [`fxhenn_ckks::LinearSchedule::apply_plain`] take diagonals in.
fn linear_diagonal(
    input: &Layout,
    plan: &LinearPlan,
    d_out: usize,
    slots: usize,
    weight: &dyn Fn(usize, usize) -> f64,
    g: usize,
    b: usize,
) -> Vec<f64> {
    let d_in = input.value_count();
    let shift = g * plan.schedule.stride + b;
    let mut diag = vec![0.0; slots];
    match (input, &plan.output) {
        // Hybrid diagonals over the stacked input: block c computes
        // outputs m·c .. m·c + m, and diagonal `shift` pairs slot p of a
        // block with input (p + shift) mod seg.
        (Layout::SingleContig { .. }, &Layout::Blocked { m, seg, .. }) => {
            for (j, d) in diag.iter_mut().enumerate() {
                let (c, p) = (j / seg, j % seg);
                let (k, v) = (m * c + p % m, (p + shift) % seg);
                if k < d_out && v < d_in {
                    *d = weight(k, v);
                }
            }
        }
        // Output g's weight row over the blocked input; the schedule
        // moves the product `shift` slots left, into window g.
        (&Layout::Blocked { m, seg, .. }, Layout::Windowed { .. }) => {
            for v in 0..d_in {
                diag[(v / m) * seg + v % m] = weight(g, v);
            }
            diag.rotate_left(shift % slots);
        }
        other => unreachable!("plan_linear pairs no such layouts: {other:?}"),
    }
    diag
}

/// The weight a mid-network convolution contributes between flattened
/// input value `v` and flattened output value `k`, treating the conv as
/// a (sparse) dense matrix.
pub fn conv_dense_weight(conv: &Conv2d, in_shape: &[usize], k: usize, v: usize) -> f64 {
    let (h, w) = (in_shape[1], in_shape[2]);
    let (oh, ow) = conv.output_size(h, w);
    let map = k / (oh * ow);
    let rest = k % (oh * ow);
    let oy = rest / ow;
    let ox = rest % ow;

    let c = v / (h * w);
    let rest_v = v % (h * w);
    let y = rest_v / w;
    let x = rest_v % w;

    let base_y = oy * conv.stride.0;
    let base_x = ox * conv.stride.1;
    if y >= base_y && y < base_y + conv.kernel.0 && x >= base_x && x < base_x + conv.kernel.1 {
        conv.weight(map, c, y - base_y, x - base_x)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Square};
    use crate::lowering::lower_network;
    use crate::packing::next_pow2;
    use crate::model::{synthetic_input, toy_mnist_like, Network};
    use fxhenn_ckks::{CkksContext, CkksParams, KeyGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Rig {
        ctx: CkksContext,
    }

    struct RigKeys {
        pk: fxhenn_ckks::PublicKey,
        sk: fxhenn_ckks::SecretKey,
        rk: RelinKey,
        gks: GaloisKeys,
    }

    fn rig_for(net: &Network) -> (Rig, RigKeys) {
        let ctx = CkksContext::new(CkksParams::insecure_toy(7));
        let prog = lower_network(net, ctx.degree(), ctx.max_level());
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(31));
        let keys = RigKeys {
            pk: kg.public_key(),
            sk: kg.secret_key(),
            rk: kg.relin_key(),
            gks: kg.galois_keys(&prog.required_rotations()),
        };
        (Rig { ctx }, keys)
    }

    fn run_and_compare(net: &Network, tol: f64) {
        let (rig, keys) = rig_for(net);
        let image = synthetic_input(net, 7);
        let expected = net.forward(&image);

        let mut enc = Encryptor::new(&rig.ctx, keys.pk.clone(), StdRng::seed_from_u64(32));
        let input = encrypt_input(net, &image, &mut enc, rig.ctx.degree() / 2);
        let mut exec = HeCnnExecutor::new(&rig.ctx, &keys.rk, &keys.gks);
        let out = exec.run(net, &input);

        let dec = Decryptor::new(&rig.ctx, keys.sk.clone());
        let got = out.decrypt(&dec);
        assert_eq!(got.len(), expected.len());
        for (i, (&g, &e)) in got.iter().zip(expected.data()).enumerate() {
            assert!(
                (g - e).abs() < tol,
                "output {i}: HE {g} vs plaintext {e} (tol {tol})"
            );
        }
    }

    #[test]
    fn conv_only_network_matches_plaintext() {
        let mut net_src = toy_mnist_like(11);
        let layers = vec![net_src.layers()[0].clone()];
        net_src = Network::new("conv-only", &[1, 9, 9], layers);
        run_and_compare(&net_src, 1e-2);
    }

    #[test]
    fn conv_act_matches_plaintext() {
        let src = toy_mnist_like(12);
        let layers = src.layers()[..2].to_vec();
        let net = Network::new("conv-act", &[1, 9, 9], layers);
        run_and_compare(&net, 1e-2);
    }

    #[test]
    fn conv_act_fc_matches_plaintext() {
        let src = toy_mnist_like(13);
        let layers = src.layers()[..3].to_vec();
        let net = Network::new("conv-act-fc", &[1, 9, 9], layers);
        run_and_compare(&net, 5e-2);
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
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(91);
        for (slots, d_in, d_mid, d_out) in [(4096, 845, 100, 10), (512, 32, 8, 4), (64, 13, 7, 3)] {
            let mut ints = |n: usize| -> Vec<f64> {
                (0..n).map(|_| f64::from(rng.gen_range(-3i32..=3))).collect()
            };
            let (w1, w2, x) = (ints(d_mid * d_in), ints(d_out * d_mid), ints(d_in));
            let dense = |w: &[f64], cols: usize, v: &[f64]| -> Vec<f64> {
                w.chunks(cols)
                    .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
                    .collect()
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
            let at = first.output.placements(slots).expect("blocked");
            let got: Vec<f64> = at.iter().map(|&(_, slot)| h[slot]).collect();
            assert_eq!(got, hidden, "{slots} slots: hybrid diagonals");

            let second = plan_linear(&first.output, d_out, slots).expect("fits the windows");
            assert!(second.stack_shifts.is_empty());
            let y = second.schedule.apply_plain(&h, |g, b| {
                let weight = |k: usize, v: usize| w2[k * d_mid + v];
                linear_diagonal(&first.output, &second, d_out, slots, &weight, g, b)
            });
            let at = second.output.placements(slots).expect("windowed");
            let got: Vec<f64> = at.iter().map(|&(_, slot)| y[slot]).collect();
            assert_eq!(got, logits, "{slots} slots: window packing");

            let keys = plan_dense(&contig, d_mid, slots).rotation_steps();
            for step in first.rotation_steps().into_iter().chain(second.rotation_steps()) {
                let across_blocks = step >= next_pow2(d_in);
                assert!(keys.contains(&step) || across_blocks, "step {step} needs a new key");
            }
        }
    }

    #[test]
    fn measured_trace_matches_analytic_plan() {
        use crate::lowering::try_lower_network_with;
        let net = toy_mnist_like(15);
        let (rig, keys) = rig_for(&net);
        let image = synthetic_input(&net, 7);
        let mut enc = Encryptor::new(&rig.ctx, keys.pk.clone(), StdRng::seed_from_u64(33));
        let input = encrypt_input(&net, &image, &mut enc, rig.ctx.degree() / 2);

        for profile in [LoweringProfile::PaperFaithful, LoweringProfile::Optimized] {
            let prog =
                try_lower_network_with(&net, rig.ctx.degree(), rig.ctx.max_level(), profile)
                    .expect("toy net lowers");
            let mut exec = HeCnnExecutor::with_profile(&rig.ctx, &keys.rk, &keys.gks, profile);
            exec.start_trace();
            let _ = exec.run(&net, &input);
            let measured = exec.take_trace().expect("trace started");
            let planned = prog.total_trace();
            if profile == LoweringProfile::Optimized {
                assert_eq!(measured, planned, "record for record");
                continue;
            }
            // The faithful executor interleaves ops that the plan records
            // in batches: kinds and levels must agree as multisets.
            let key = |r: &fxhenn_ckks::HeOpRecord| (r.kind, r.level);
            let mut m: Vec<_> = measured.records().iter().map(key).collect();
            let mut p: Vec<_> = planned.records().iter().map(key).collect();
            m.sort_unstable();
            p.sort_unstable();
            assert_eq!(m, p, "per-level operation multisets must agree");
        }
    }

    #[test]
    fn spans_and_layer_spans_cover_the_whole_run() {
        let net = toy_mnist_like(23);
        let (rig, keys) = rig_for(&net);
        let image = synthetic_input(&net, 7);
        let mut enc = Encryptor::new(&rig.ctx, keys.pk.clone(), StdRng::seed_from_u64(40));
        let input = encrypt_input(&net, &image, &mut enc, rig.ctx.degree() / 2);
        let mut exec = HeCnnExecutor::new(&rig.ctx, &keys.rk, &keys.gks);
        exec.start_trace();
        exec.start_spans();
        exec.start_layer_spans();
        let _ = exec.run(&net, &input);
        let trace = exec.take_trace().expect("trace started");
        let spans = exec.take_spans().expect("spans started");
        let layers = exec.take_layer_spans().expect("layer spans started");
        assert_eq!(
            spans.len(),
            trace.records().len(),
            "one span per recorded op"
        );
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
        let mut rng_net = toy_mnist_like(16);
        let conv1 = rng_net.layers()[0].clone();
        let conv2 = Conv2d::new(
            2,
            2,
            (2, 2),
            (1, 1),
            vec![0.25, -0.5, 0.125, 0.375, -0.25, 0.5, 0.0625, -0.125,
                 0.3, -0.2, 0.15, 0.05, -0.1, 0.2, 0.25, -0.3],
            vec![0.1, -0.1],
        );
        let net = Network::new(
            "conv-act-conv",
            &[1, 9, 9],
            vec![
                conv1,
                ("Act1".to_string(), Layer::Activation(Square)),
                ("Cnv2".to_string(), Layer::Conv(conv2)),
            ],
        );
        rng_net = net.clone();
        run_and_compare(&rng_net, 0.1);
    }

    #[test]
    fn consolidation_path_matches_plaintext() {
        // A dense layer with many outputs (> CONSOLIDATE_THRESHOLD) from a
        // multi-ct... use per-output path by making input non-stackable:
        // d_in large relative to slots/2 = 256.
        let mut rng = StdRng::seed_from_u64(44);
        use rand::Rng as _;
        let d_in = 8 * 36; // conv out: 8 maps of 6x6 = 288 > 256 -> not stackable
        let d_out = 40; // > CONSOLIDATE_THRESHOLD
        let conv = Conv2d::new(
            8,
            1,
            (3, 3),
            (1, 1),
            (0..72).map(|_| rng.gen_range(-0.3..0.3)).collect(),
            (0..8).map(|_| rng.gen_range(-0.1..0.1)).collect(),
        );
        let fc = Dense::new(
            d_out,
            d_in,
            (0..d_out * d_in).map(|_| rng.gen_range(-0.05..0.05)).collect(),
            (0..d_out).map(|_| rng.gen_range(-0.1..0.1)).collect(),
        );
        let net = Network::new(
            "wide-fc",
            &[1, 8, 8],
            vec![
                ("Cnv1".to_string(), Layer::Conv(conv)),
                ("Fc1".to_string(), Layer::Dense(fc)),
            ],
        );
        run_and_compare(&net, 0.1);
    }

    #[test]
    fn conv_sign_relu_matches_plaintext_polynomial() {
        // The plaintext SignRelu runs the same composite polynomial the
        // evaluator does, so HE and plaintext agree to encryption noise
        // — including inside the sign dead band.
        use crate::layers::SignRelu;
        let conv = Conv2d::new(1, 1, (1, 1), (1, 1), vec![1.0], vec![0.0]);
        let net = Network::new(
            "conv-sgn",
            &[1, 2, 2],
            vec![
                ("Cnv1".to_string(), Layer::Conv(conv)),
                (
                    "Sgn1".to_string(),
                    Layer::SignAct(SignRelu::new(fxhenn_ckks::SignPreset::Low, 1.0)),
                ),
            ],
        );
        let ctx = CkksContext::new(CkksParams::insecure_toy(11));
        let prog = lower_network(&net, ctx.degree(), ctx.max_level());
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(77));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&prog.required_rotations());
        let image = Tensor::from_data(&[1, 2, 2], vec![-0.9, -0.2, 0.45, 0.8]);
        let expected = net.forward(&image);

        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(78));
        let input = encrypt_input(&net, &image, &mut enc, ctx.degree() / 2);
        let mut exec = HeCnnExecutor::new(&ctx, &rk, &gks);
        exec.start_trace();
        let out = exec.run(&net, &input);
        let measured = exec.take_trace().expect("trace started");
        assert_eq!(
            measured.count_of(fxhenn_ckks::HeOpKind::Sign),
            prog.total_trace().count_of(fxhenn_ckks::HeOpKind::Sign),
            "measured Sign macro records match the plan"
        );

        let dec = Decryptor::new(&ctx, sk);
        let got = out.decrypt(&dec);
        assert_eq!(got.len(), expected.len());
        for (i, (&g, &e)) in got.iter().zip(expected.data()).enumerate() {
            assert!(
                (g - e).abs() < 2e-2,
                "slot {i}: HE {g} vs plaintext polynomial {e}"
            );
        }
    }

    #[test]
    fn logits_argmax_agrees_with_plaintext() {
        let net = toy_mnist_like(17);
        let (rig, keys) = rig_for(&net);
        let image = synthetic_input(&net, 9);
        let expected = net.forward(&image);

        let mut enc = Encryptor::new(&rig.ctx, keys.pk.clone(), StdRng::seed_from_u64(34));
        let input = encrypt_input(&net, &image, &mut enc, rig.ctx.degree() / 2);
        let mut exec = HeCnnExecutor::new(&rig.ctx, &keys.rk, &keys.gks);
        let out = exec.run(&net, &input);
        let dec = Decryptor::new(&rig.ctx, keys.sk);
        let got = out.decrypt(&dec);
        let he_argmax = got
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty logits");
        assert_eq!(he_argmax, expected.argmax(), "classification must agree");
    }

    #[test]
    fn missing_galois_key_yields_typed_error() {
        let net = toy_mnist_like(18);
        let (rig, keys) = rig_for(&net);
        let image = synthetic_input(&net, 7);
        let mut enc = Encryptor::new(&rig.ctx, keys.pk.clone(), StdRng::seed_from_u64(35));
        let input = encrypt_input(&net, &image, &mut enc, rig.ctx.degree() / 2);
        // Keys for no rotations at all: the first dense layer must fail.
        let mut kg = KeyGenerator::new(&rig.ctx, StdRng::seed_from_u64(31));
        let empty_gks = kg.galois_keys(&[]);
        let mut exec = HeCnnExecutor::new(&rig.ctx, &keys.rk, &empty_gks);
        let err = exec.try_run(&net, &input).expect_err("must fail");
        match err.eval_source() {
            Some(fxhenn_ckks::EvalError::MissingGaloisKey { .. }) => {}
            other => panic!("expected MissingGaloisKey, got {other:?}"),
        }
    }

    #[test]
    fn non_conv_front_end_yields_typed_error() {
        let src = toy_mnist_like(19);
        let dense = src
            .layers()
            .iter()
            .find(|(_, l)| matches!(l, Layer::Dense(_)))
            .cloned()
            .expect("toy net has a dense layer");
        let net = Network::new("dense-first", &[1, 9, 9], vec![dense]);
        let (rig, keys) = rig_for(&toy_mnist_like(19));
        let image = synthetic_input(&toy_mnist_like(19), 7);
        let mut enc = Encryptor::new(&rig.ctx, keys.pk.clone(), StdRng::seed_from_u64(36));
        let err = try_encrypt_input(&net, &image, &mut enc, rig.ctx.degree() / 2)
            .expect_err("must fail");
        assert!(matches!(err, ExecError::FirstLayerNotConv));
    }

    #[test]
    fn nan_weights_yield_typed_error_not_garbage() {
        let mut src = toy_mnist_like(20);
        let mut layers = src.layers().to_vec();
        if let Layer::Conv(ref mut conv) = layers[0].1 {
            conv.weights[0] = f64::NAN;
        } else {
            panic!("toy net starts with a conv");
        }
        let poisoned = Network::new("nan-weights", &[1, 9, 9], layers);
        src = toy_mnist_like(20);
        let (rig, keys) = rig_for(&src);
        let image = synthetic_input(&src, 7);
        let mut enc = Encryptor::new(&rig.ctx, keys.pk.clone(), StdRng::seed_from_u64(37));
        let input = encrypt_input(&src, &image, &mut enc, rig.ctx.degree() / 2);
        let mut exec = HeCnnExecutor::new(&rig.ctx, &keys.rk, &keys.gks);
        let err = exec.try_run(&poisoned, &input).expect_err("must fail");
        match err.eval_source() {
            Some(fxhenn_ckks::EvalError::NonFiniteValue { .. }) => {}
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
    }

    #[test]
    fn huge_weights_exhaust_noise_budget_typed() {
        let mut src = toy_mnist_like(21);
        let mut layers = src.layers().to_vec();
        if let Layer::Conv(ref mut conv) = layers[0].1 {
            for w in conv.weights.iter_mut() {
                *w = 1e60;
            }
        } else {
            panic!("toy net starts with a conv");
        }
        let poisoned = Network::new("huge-weights", &[1, 9, 9], layers);
        src = toy_mnist_like(21);
        let (rig, keys) = rig_for(&src);
        let image = synthetic_input(&src, 7);
        let mut enc = Encryptor::new(&rig.ctx, keys.pk.clone(), StdRng::seed_from_u64(38));
        let input = encrypt_input(&src, &image, &mut enc, rig.ctx.degree() / 2);
        let mut exec = HeCnnExecutor::new(&rig.ctx, &keys.rk, &keys.gks);
        let err = exec.try_run(&poisoned, &input).expect_err("must fail");
        // The evaluator's per-op floor usually refuses the operation
        // first (wrapped with the layer name); the executor's layer
        // boundary check is the fallback. Either way the run must fail
        // typed instead of decrypting garbage.
        let exhausted = matches!(err, ExecError::NoiseBudgetExhausted { .. })
            || matches!(
                err.eval_source(),
                Some(fxhenn_ckks::EvalError::NoiseBudgetExhausted { .. })
            );
        assert!(exhausted, "expected NoiseBudgetExhausted, got {err:?}");
    }

    #[test]
    fn nan_image_rejected_at_encryption() {
        let net = toy_mnist_like(22);
        let (rig, keys) = rig_for(&net);
        let mut image = synthetic_input(&net, 7);
        image.data_mut()[0] = f64::NAN;
        let mut enc = Encryptor::new(&rig.ctx, keys.pk.clone(), StdRng::seed_from_u64(39));
        let err = try_encrypt_input(&net, &image, &mut enc, rig.ctx.degree() / 2)
            .expect_err("must fail");
        match err.eval_source() {
            Some(fxhenn_ckks::EvalError::NonFiniteValue { .. }) => {}
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
    }

    #[test]
    fn argmax_with_nan_logit_is_stable() {
        // total_cmp orders NaN above every finite value, so a NaN logit
        // is selected deterministically instead of panicking.
        let logits = [0.3, f64::NAN, 0.9];
        let idx = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty");
        assert_eq!(idx, 1, "NaN sorts greatest under total_cmp");
    }
}
