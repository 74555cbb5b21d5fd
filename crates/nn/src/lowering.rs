//! Lowering a CNN into a per-layer HE operation program.
//!
//! This is the analytic counterpart of the functional executor: it walks
//! the network and emits, for every layer, the exact sequence of HE
//! operations (with levels) that the LoLa-style packing performs —
//! without touching any ciphertext. The result drives the hardware
//! model, the DSE and the benchmark tables (HOP/KS counts of Tables IV,
//! VI, VII).
//!
//! ## Lowering rules
//!
//! * **First convolution** (offset packing, an "NKS" layer): per output
//!   group, one `PCmult` + `Rescale` per kernel tap, `CCadd` to
//!   accumulate, one `PCadd` for the bias (Listing 1 of the paper).
//! * **Square activation** ("KS"): `CCmult` + `Relinearize` + `Rescale`
//!   per ciphertext.
//! * **Dense / mid-network convolution** ("KS"): rotate-and-sum. A
//!   single-ciphertext input whose span allows it uses the *stacked*
//!   variant (several outputs per round); otherwise one output per round
//!   across all input ciphertexts. Very wide layers consolidate their
//!   round outputs back into one ciphertext with a masked
//!   rotate-accumulate, spending one extra level.
//!
//! These rules are the [`LoweringProfile::PaperFaithful`] lowering, the
//! one every table and the hardware model are judged on.
//! [`LoweringProfile::Optimized`] is what the CPU executor runs by
//! default: the first convolution rescales once, and a dense layer over
//! one contiguous or blocked ciphertext becomes a single
//! [`LinearSchedule`] (see [`plan_linear`], DESIGN.md §16).

use crate::error::LowerError;
use crate::layers::{Conv2d, Layer};
use crate::model::Network;
use crate::packing::next_pow2;
use crate::stats::op_he_macs;
use fxhenn_ckks::{HeOpKind, LinearSchedule, OpTrace, RotationSet};

/// Round-count threshold above which a dense layer's outputs are
/// consolidated into a single ciphertext (at the cost of one level).
pub const CONSOLIDATE_THRESHOLD: usize = 32;

/// Which schedule a network is lowered to. Both compute the same
/// function from the same Galois keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LoweringProfile {
    /// The LoLa lowering of the paper: what the hardware model, the DSE,
    /// the simulator and Tables IV/VI/VII price.
    #[default]
    PaperFaithful,
    /// Fewest key switches on the keys `PaperFaithful` already needs:
    /// one rescale for the first convolution, dense layers as
    /// baby-step/giant-step diagonals.
    Optimized,
}

/// The paper's two-way layer classification (Sec. V-A): layers with
/// KeySwitch operations pipeline differently from layers without.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeLayerClass {
    /// No KeySwitch operations (first convolution).
    Nks,
    /// Contains KeySwitch operations (activations, dense layers).
    Ks,
}

impl std::fmt::Display for HeLayerClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeLayerClass::Nks => f.write_str("NKS"),
            HeLayerClass::Ks => f.write_str("KS"),
        }
    }
}

/// Where a layer boundary's values live, abstractly (enough to decide
/// the next layer's lowering strategy and to rebuild the concrete slot
/// layout in the functional executor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// One ciphertext, values at slots `0..n`.
    SingleContig { n: usize },
    /// Contiguous across several ciphertexts.
    MultiContig { n: usize, cts: usize },
    /// Stacked dense output: round ciphertexts with values at `s·seg`.
    Segmented {
        n: usize,
        copies: usize,
        seg: usize,
        cts: usize,
    },
    /// One ciphertext per output, value at slot 0.
    PerOutput { n: usize },
    /// Consolidated dense output: one ciphertext, values at `s·seg + r`.
    ScatteredSingle {
        n: usize,
        copies: usize,
        seg: usize,
        rounds: usize,
    },
    /// Hybrid-diagonal dense output: one ciphertext, value `k` at slot
    /// `(k / m)·seg + k % m`; the other slots hold fold residue that the
    /// next layer's zero weights mask.
    Blocked { n: usize, m: usize, seg: usize },
    /// Window-packed dense output: one ciphertext, value `k` at slot
    /// `(slots − m·k) mod slots`, residue elsewhere.
    Windowed { n: usize, m: usize },
}

/// The rotate-and-sum and replication shifts a dense lowering uses, all
/// expressed as left-rotation step counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensePlan {
    /// True when the stacked (multi-output-per-round) variant applies.
    pub stacked: bool,
    /// Segment width (power of two) of the stacked layout.
    pub seg: usize,
    /// Stacked copies per ciphertext (power of two), 1 when not stacked.
    pub copies: usize,
    /// Number of rounds (= output ciphertexts before consolidation).
    pub rounds: usize,
    /// True when round outputs are consolidated into one ciphertext.
    pub consolidate: bool,
    /// Left-rotation steps replicating the input into stacked copies.
    pub stack_shifts: Vec<usize>,
    /// Left-rotation steps of the per-round rotate-and-sum.
    pub sum_shifts: Vec<usize>,
    /// Left-rotation steps of the consolidation pass (round 1..).
    pub consolidate_shifts: Vec<usize>,
}

impl DensePlan {
    /// All distinct rotation steps this plan needs Galois keys for.
    pub fn rotation_steps(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .stack_shifts
            .iter()
            .chain(&self.sum_shifts)
            .chain(&self.consolidate_shifts)
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Computes the dense lowering decisions for an input layout, output
/// width and slot count — shared by the analytic lowering and the
/// functional executor so they can never diverge.
pub fn plan_dense(input: &Layout, d_out: usize, slots: usize) -> DensePlan {
    let d_in = input.value_count();
    let stacked = matches!(input, Layout::SingleContig { .. }) && next_pow2(d_in) * 2 <= slots;
    if stacked {
        let seg = next_pow2(d_in);
        let copies = slots / seg;
        let rounds = d_out.div_ceil(copies);
        let stack_shifts = (0..copies.trailing_zeros())
            .map(|t| slots - seg * (1 << t))
            .collect();
        let sum_shifts = (0..seg.trailing_zeros()).map(|t| 1usize << t).collect();
        let consolidate = rounds > CONSOLIDATE_THRESHOLD;
        let consolidate_shifts = if consolidate {
            (1..rounds).map(|r| (slots - r % slots) % slots).collect()
        } else {
            Vec::new()
        };
        DensePlan {
            stacked,
            seg,
            copies,
            rounds,
            consolidate,
            stack_shifts,
            sum_shifts,
            consolidate_shifts,
        }
    } else {
        let rounds = d_out;
        let sum_shifts = input.rotate_sum_shifts(slots);
        let consolidate = rounds > CONSOLIDATE_THRESHOLD;
        let consolidate_shifts = if consolidate {
            (1..rounds).map(|r| (slots - r % slots) % slots).collect()
        } else {
            Vec::new()
        };
        DensePlan {
            stacked,
            seg: 1,
            copies: 1,
            rounds,
            consolidate,
            stack_shifts: Vec::new(),
            sum_shifts,
            consolidate_shifts,
        }
    }
}

impl Layout {
    /// Number of logical values at this boundary.
    pub fn value_count(&self) -> usize {
        match *self {
            Layout::SingleContig { n }
            | Layout::MultiContig { n, .. }
            | Layout::Segmented { n, .. }
            | Layout::PerOutput { n }
            | Layout::ScatteredSingle { n, .. }
            | Layout::Blocked { n, .. }
            | Layout::Windowed { n, .. } => n,
        }
    }

    /// Number of ciphertexts at this boundary.
    pub fn ct_count(&self) -> usize {
        match *self {
            Layout::SingleContig { .. }
            | Layout::ScatteredSingle { .. }
            | Layout::Blocked { .. }
            | Layout::Windowed { .. } => 1,
            Layout::MultiContig { cts, .. } | Layout::Segmented { cts, .. } => cts,
            Layout::PerOutput { n } => n,
        }
    }

    /// Left-rotation steps of a full rotate-and-sum collapsing every
    /// value of one (possibly ct-accumulated) ciphertext into slot 0.
    pub fn rotate_sum_shifts(&self, slots: usize) -> Vec<usize> {
        match *self {
            Layout::SingleContig { n } => {
                (0..next_pow2(n).trailing_zeros()).map(|t| 1usize << t).collect()
            }
            Layout::MultiContig { .. } => (0..next_pow2(slots).trailing_zeros())
                .map(|t| 1usize << t)
                .collect(),
            Layout::Segmented { copies, seg, .. } => (0..next_pow2(copies).trailing_zeros())
                .map(|t| seg << t)
                .collect(),
            Layout::PerOutput { .. } => Vec::new(),
            Layout::ScatteredSingle { copies, seg, rounds, .. } => {
                let within: Vec<usize> = (0..next_pow2(rounds).trailing_zeros())
                    .map(|t| 1usize << t)
                    .collect();
                let across = (0..next_pow2(copies).trailing_zeros()).map(|t| seg << t);
                within.into_iter().chain(across).collect()
            }
            Layout::Blocked { m, seg, .. } => pow2_steps(1, m).chain(pow2_steps(seg, slots)).collect(),
            Layout::Windowed { m, .. } => pow2_steps(m, slots).collect(),
        }
    }

    /// Where each value lives, slot for slot (`None` for the layouts
    /// whose placement also depends on how they were produced).
    pub fn placements(&self, slots: usize) -> Option<Vec<(usize, usize)>> {
        match *self {
            Layout::Blocked { n, m, seg } => {
                Some((0..n).map(|k| (0, (k / m) * seg + k % m)).collect())
            }
            Layout::Windowed { n, m } => {
                Some((0..n).map(|k| (0, (slots - m * k % slots) % slots)).collect())
            }
            _ => None,
        }
    }
}

/// The doubling steps `from, 2·from, …` below `to` (both powers of two).
fn pow2_steps(from: usize, to: usize) -> impl Iterator<Item = usize> {
    (from.trailing_zeros()..to.trailing_zeros()).map(|t| 1usize << t)
}

/// A dense layer as one [`LinearSchedule`]: the [`LoweringProfile::Optimized`]
/// counterpart of [`DensePlan`], shared by the lowering and the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearPlan {
    /// Left-rotation steps replicating a contiguous input into stacked
    /// copies first (empty for a blocked input).
    pub stack_shifts: Vec<usize>,
    /// The diagonal schedule.
    pub schedule: LinearSchedule,
    /// Where the outputs land.
    pub output: Layout,
}

impl LinearPlan {
    /// All distinct rotation steps this plan needs Galois keys for.
    pub fn rotation_steps(&self) -> Vec<usize> {
        let mut v = self.schedule.rotation_steps();
        v.extend(&self.stack_shifts);
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Plans a dense layer as a single linear transform, when its input
/// allows one; `None` keeps the [`plan_dense`] schedule.
///
/// * A stackable contiguous input (`seg = next_pow2(d_in)`,
///   `copies = slots/seg`) becomes GAZELLE-style hybrid diagonals: block
///   `c` of the stacked input computes outputs `m·c … m·c + m − 1` with
///   `m = next_pow2(⌈d_out/copies⌉)` diagonals, then folds by
///   `m, 2m, …, seg/2`. Output `k` lands at `(k / m)·seg + k % m`.
/// * A blocked input whose layer fits `d_out·m ≤ seg` multiplies once
///   per output and packs the products into disjoint `m`-wide windows,
///   then folds within windows and across blocks. Output `k` lands at
///   `(slots − m·k) mod slots`.
///
/// Every step is a power of two below `seg`, or one of the stacking
/// steps — all steps the `plan_dense` schedule of the same layer chain
/// already uses.
pub fn plan_linear(input: &Layout, d_out: usize, slots: usize) -> Option<LinearPlan> {
    match *input {
        Layout::SingleContig { .. } => {
            let dense = plan_dense(input, d_out, slots);
            let m = next_pow2(d_out.div_ceil(dense.copies));
            (dense.stacked && m <= dense.seg).then(|| LinearPlan {
                stack_shifts: dense.stack_shifts,
                schedule: LinearSchedule::bsgs(m, pow2_steps(m, dense.seg).collect()),
                output: Layout::Blocked {
                    n: d_out,
                    m,
                    seg: dense.seg,
                },
            })
        }
        Layout::Blocked { m, seg, .. } if d_out * m <= seg => Some(LinearPlan {
            stack_shifts: Vec::new(),
            schedule: LinearSchedule::packed(d_out, m, input.rotate_sum_shifts(slots)),
            output: Layout::Windowed { n: d_out, m },
        }),
        _ => None,
    }
}

/// The HE plan of one layer: class, operation trace, ciphertext counts
/// and levels.
#[derive(Debug, Clone, PartialEq)]
pub struct HeLayerPlan {
    /// Layer name (Cnv1, Act1, …).
    pub name: String,
    /// NKS/KS classification.
    pub class: HeLayerClass,
    /// The exact HE operations this layer performs, with levels.
    pub trace: OpTrace,
    /// Number of input ciphertexts (`N_in` of Eqs. 1–2).
    pub input_cts: usize,
    /// Number of output ciphertexts.
    pub output_cts: usize,
    /// Ciphertext level on entry.
    pub level_in: usize,
    /// Ciphertext level on exit.
    pub level_out: usize,
    /// Words of encoded plaintext operands this layer streams from
    /// off-chip memory (weights, biases, masks).
    pub plaintext_words: usize,
    /// Distinct left-rotation steps this layer needs Galois keys for,
    /// each at the highest level it rotates at here: the layer's entry
    /// level, or the other profile's for a step only that profile takes.
    pub rotation_steps: RotationSet,
}

impl HeLayerPlan {
    /// HOP count of this layer.
    pub fn hop_count(&self) -> usize {
        self.trace.hop_count()
    }

    /// KeySwitch count of this layer.
    pub fn key_switch_count(&self) -> usize {
        self.trace.key_switch_count()
    }

    /// HE word-MACs of this layer (paper Table IV "MACs of HOPs").
    pub fn he_macs(&self, degree: usize) -> u64 {
        self.trace
            .records()
            .iter()
            .map(|r| op_he_macs(r.kind, r.level, degree))
            .sum()
    }
}

/// A fully lowered HE-CNN: per-layer plans plus ring parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HeCnnProgram {
    /// Source network name.
    pub network_name: String,
    /// Ring degree `N`.
    pub degree: usize,
    /// Starting (maximum) level `L`.
    pub max_level: usize,
    /// Per-layer plans in execution order.
    pub layers: Vec<HeLayerPlan>,
}

impl HeCnnProgram {
    /// Total HOP count (paper Table VI/VII "HOP").
    pub fn hop_count(&self) -> usize {
        self.layers.iter().map(|l| l.hop_count()).sum()
    }

    /// Total KeySwitch count (paper Table VII "KS").
    pub fn key_switch_count(&self) -> usize {
        self.layers.iter().map(|l| l.key_switch_count()).sum()
    }

    /// Concatenated operation trace.
    pub fn total_trace(&self) -> OpTrace {
        let mut t = OpTrace::new();
        for l in &self.layers {
            t.extend_from(&l.trace);
        }
        t
    }

    /// Encoded-plaintext model size in bytes (paper Table VI "Mod.Size").
    pub fn model_size_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.plaintext_words * std::mem::size_of::<u64>())
            .sum()
    }

    /// Total HE word-MACs.
    pub fn total_he_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.he_macs(self.degree)).sum()
    }

    /// The plan for a layer by name, if present.
    pub fn layer(&self, name: &str) -> Option<&HeLayerPlan> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// All distinct rotation steps the program needs Galois keys for,
    /// each at the highest level any layer rotates by it in either
    /// profile: the set to cut the keys to
    /// ([`fxhenn_ckks::KeyGenerator::galois_keys_at`]).
    pub fn required_rotations(&self) -> RotationSet {
        self.layers
            .iter()
            .flat_map(|l| l.rotation_steps.with_levels())
            .collect()
    }
}

/// Lowers a network into an HE program for ring degree `degree` with
/// `max_level` starting level, returning a [`LowerError`] when the
/// network's structure or budget makes lowering impossible. This is the
/// [`LoweringProfile::PaperFaithful`] lowering.
pub fn try_lower_network(
    net: &Network,
    degree: usize,
    max_level: usize,
) -> Result<HeCnnProgram, LowerError> {
    try_lower_network_with(net, degree, max_level, LoweringProfile::PaperFaithful)
}

/// [`try_lower_network`] under an explicit profile.
///
/// Keys are generated from one program but must serve an executor of
/// either profile, so each layer's `rotation_steps` also lists the steps
/// the other profile would add to the program's key set, or would need
/// at a higher level (no built-in network gains a step; pooled
/// FxHENN-MNIST at N = 8192 gains levels); everything else describes
/// `profile` alone.
pub fn try_lower_network_with(
    net: &Network,
    degree: usize,
    max_level: usize,
    profile: LoweringProfile,
) -> Result<HeCnnProgram, LowerError> {
    let (mut program, other_steps) = lower_profile(net, degree, max_level, profile)?;
    add_missing_steps(&mut program, &other_steps);
    Ok(program)
}

/// Adds to each layer of `program` the rotation steps among `other` (the
/// same layer's steps under the other profile) that no layer of
/// `program` has at that level or above.
fn add_missing_steps(program: &mut HeCnnProgram, other: &[RotationSet]) {
    let have = program.required_rotations();
    for (layer, other) in program.layers.iter_mut().zip(other) {
        for (step, level) in other.with_levels() {
            if have.level(step).is_none_or(|l| l < level) {
                layer.rotation_steps.insert(step, level);
            }
        }
    }
}

/// Rotation steps, output layout and levels consumed of a dense-like
/// layer under `profile` — the part of its lowering that needs no trace,
/// which is all the *other* profile is followed for.
fn dense_route(
    input: &Layout,
    d_out: usize,
    slots: usize,
    profile: LoweringProfile,
) -> (Vec<usize>, Layout, usize) {
    if let (LoweringProfile::Optimized, Some(plan)) = (profile, plan_linear(input, d_out, slots)) {
        return (plan.rotation_steps(), plan.output, 1);
    }
    let plan = plan_dense(input, d_out, slots);
    let (copies, seg) = (plan.copies, plan.seg);
    let output = match (plan.stacked, plan.consolidate) {
        (true, false) => Layout::Segmented { n: d_out, copies, seg, cts: plan.rounds },
        (false, false) => Layout::PerOutput { n: d_out },
        // Consolidated: one ciphertext (a per-output plan has copies = seg = 1).
        (_, true) => Layout::ScatteredSingle { n: d_out, copies, seg, rounds: plan.rounds },
    };
    (plan.rotation_steps(), output, 1 + usize::from(plan.consolidate))
}

/// A layer boundary under the profile being lowered (`own`) and under
/// the other one, which is followed only for its rotation steps and the
/// level it reaches them at.
#[derive(Clone)]
struct Boundary {
    own: Layout,
    other: Layout,
    other_level: usize,
}

/// Lowers `net` under `profile` alone; the second value lists, per
/// layer, the rotation steps the other profile takes there, at its entry
/// level.
fn lower_profile(
    net: &Network,
    degree: usize,
    max_level: usize,
    profile: LoweringProfile,
) -> Result<(HeCnnProgram, Vec<RotationSet>), LowerError> {
    let slots = degree / 2;
    let mut level = max_level;
    let mut shape = net.input_shape().to_vec();
    let mut layout: Option<Boundary> = None;
    let mut plans = Vec::with_capacity(net.layer_count());
    let mut other_steps = vec![RotationSet::default(); net.layer_count()];
    if net.layer_count() == 0 {
        return Err(LowerError::EmptyNetwork);
    }
    let other_profile = match profile {
        LoweringProfile::PaperFaithful => LoweringProfile::Optimized,
        LoweringProfile::Optimized => LoweringProfile::PaperFaithful,
    };
    let dense = |name: &str, at: &Boundary, d_out: usize, level: usize| {
        let (plan, own) = lower_dense_like(name, &at.own, d_out, slots, level, profile);
        let (steps, other, used) = dense_route(&at.other, d_out, slots, other_profile);
        let steps = RotationSet::at_level(steps, at.other_level);
        let other_level = at.other_level.saturating_sub(used);
        (plan, Boundary { own, other, other_level }, steps)
    };

    for (idx, (name, layer)) in net.layers().iter().enumerate() {
        if idx == 0 && !matches!(layer, Layer::Conv(_)) {
            return Err(LowerError::FirstLayerNotConv);
        }
        let need_input = |layout: &Option<Boundary>| {
            layout.clone().ok_or_else(|| LowerError::MissingInput {
                layer: name.clone(),
            })
        };
        let plan = match layer {
            Layer::Conv(conv) => {
                if idx == 0 {
                    let (p, l2) = lower_first_conv(name, conv, &shape, slots, level, profile)?;
                    let (oh, ow) = conv.output_size(shape[1], shape[2]);
                    shape = vec![conv.out_channels, oh, ow];
                    layout = Some(Boundary {
                        own: l2.clone(),
                        other: l2,
                        other_level: p.level_out,
                    });
                    level = p.level_out;
                    p
                } else {
                    // Mid-network convolution: lowered as a dense layer
                    // over the flattened input (rotation-based).
                    let (oh, ow) = conv.output_size(shape[1], shape[2]);
                    let d_out = conv.out_channels * oh * ow;
                    let (p, l2, steps) = dense(name, &need_input(&layout)?, d_out, level);
                    other_steps[idx] = steps;
                    shape = vec![conv.out_channels, oh, ow];
                    layout = Some(l2);
                    level = p.level_out;
                    p
                }
            }
            Layer::Activation(_) => {
                let p = lower_activation(name, &need_input(&layout)?.own, level);
                level = p.level_out;
                same_drop(&mut layout, &p);
                p
            }
            Layer::Dense(d) => {
                let lay = need_input(&layout)?;
                if lay.own.value_count() != d.in_features {
                    return Err(LowerError::DenseSizeMismatch {
                        layer: name.clone(),
                        expected: d.in_features,
                        got: lay.own.value_count(),
                    });
                }
                let (p, l2, steps) = dense(name, &lay, d.out_features, level);
                other_steps[idx] = steps;
                shape = vec![d.out_features];
                layout = Some(l2);
                level = p.level_out;
                p
            }
            Layer::AvgPool(pool) => {
                // Average pooling is a sparse linear map: lowered exactly
                // like a dense layer (rotate-and-sum).
                let lay = need_input(&layout)?;
                if shape.len() != 3 {
                    return Err(LowerError::NotChw {
                        layer: name.clone(),
                        rank: shape.len(),
                    });
                }
                let (oh, ow) = pool.output_size(shape[1], shape[2]);
                let d_out = shape[0] * oh * ow;
                let (p, l2, steps) = dense(name, &lay, d_out, level);
                other_steps[idx] = steps;
                shape = vec![shape[0], oh, ow];
                layout = Some(l2);
                level = p.level_out;
                p
            }
            Layer::Scale(cs) => {
                // Per-channel affine map: one PCmult + Rescale + PCadd per
                // ciphertext — an NKS layer that preserves the layout.
                let lay = need_input(&layout)?;
                if shape.len() != 3 {
                    return Err(LowerError::NotChw {
                        layer: name.clone(),
                        rank: shape.len(),
                    });
                }
                if shape[0] != cs.factors.len() {
                    return Err(LowerError::ChannelMismatch {
                        layer: name.clone(),
                        scales: cs.factors.len(),
                        channels: shape[0],
                    });
                }
                let p = lower_channel_scale(name, &lay.own, slots, level);
                level = p.level_out;
                same_drop(&mut layout, &p);
                p
            }
            Layer::SignAct(relu) => {
                let lay = need_input(&layout)?;
                let depth = 3 * relu.preset.stages().len() + 2;
                if level < depth + 1 {
                    return Err(LowerError::LevelBudgetExhausted {
                        layer: name.clone(),
                        max_level,
                    });
                }
                let p = lower_sign_activation(name, &lay.own, relu.preset, level);
                level = p.level_out;
                same_drop(&mut layout, &p);
                p
            }
        };
        if plan.level_out < 1 {
            return Err(LowerError::LevelBudgetExhausted {
                layer: name.clone(),
                max_level,
            });
        }
        plans.push(plan);
    }

    let program = HeCnnProgram {
        network_name: net.name().to_string(),
        degree,
        max_level,
        layers: plans,
    };
    Ok((program, other_steps))
}

/// A layer lowered the same way under both profiles takes the other
/// profile's level down by as much as its own.
fn same_drop(layout: &mut Option<Boundary>, plan: &HeLayerPlan) {
    if let Some(b) = layout {
        b.other_level = b.other_level.saturating_sub(plan.level_in - plan.level_out);
    }
}

/// Lowers a network into an HE program for ring degree `degree` with
/// `max_level` starting level.
///
/// # Panics
///
/// Panics if the network exhausts the level budget (`level` would drop
/// below 1), if a convolution output map does not fit in the slots, or
/// if the first layer is not a convolution (LoLa packing assumes a conv
/// front end). [`try_lower_network`] returns these as [`LowerError`]s.
pub fn lower_network(net: &Network, degree: usize, max_level: usize) -> HeCnnProgram {
    try_lower_network(net, degree, max_level).expect("lowering")
}

fn lower_first_conv(
    name: &str,
    conv: &Conv2d,
    shape: &[usize],
    slots: usize,
    level: usize,
    profile: LoweringProfile,
) -> Result<(HeLayerPlan, Layout), LowerError> {
    let (oh, ow) = conv.output_size(shape[1], shape[2]);
    let positions = oh * ow;
    if positions > slots {
        return Err(LowerError::ConvDoesNotFitSlots {
            layer: name.to_string(),
            positions,
            slots,
        });
    }
    let maps_per_group = (slots / positions).min(conv.out_channels).max(1);
    let groups = conv.out_channels.div_ceil(maps_per_group);
    let k = conv.offset_count();

    let mut trace = OpTrace::new();
    for _g in 0..groups {
        match profile {
            LoweringProfile::PaperFaithful => {
                trace.record_many(HeOpKind::PcMult, level, k);
                trace.record_many(HeOpKind::Rescale, level, k);
                trace.record_many(HeOpKind::CcAdd, level - 1, k - 1);
            }
            // The taps are summed at scale Δ² and rescaled once.
            LoweringProfile::Optimized => {
                trace.record(HeOpKind::PcMult, level);
                for _ in 1..k {
                    trace.record(HeOpKind::PcMult, level);
                    trace.record(HeOpKind::CcAdd, level);
                }
                trace.record(HeOpKind::Rescale, level);
            }
        }
        trace.record(HeOpKind::PcAdd, level - 1);
    }
    let n_values = conv.out_channels * positions;
    let layout = if groups == 1 {
        Layout::SingleContig { n: n_values }
    } else {
        Layout::MultiContig {
            n: n_values,
            cts: groups,
        }
    };
    let plan = HeLayerPlan {
        name: name.to_string(),
        class: HeLayerClass::Nks,
        trace,
        input_cts: groups * k,
        output_cts: groups,
        level_in: level,
        level_out: level - 1,
        plaintext_words: groups * (k + 1) * slots * 2 * level,
        rotation_steps: RotationSet::default(),
    };
    Ok((plan, layout))
}

fn lower_activation(name: &str, layout: &Layout, level: usize) -> HeLayerPlan {
    let cts = layout.ct_count();
    let mut trace = OpTrace::new();
    for _ in 0..cts {
        trace.record(HeOpKind::CcMult, level);
        trace.record(HeOpKind::Relinearize, level);
        trace.record(HeOpKind::Rescale, level);
    }
    HeLayerPlan {
        name: name.to_string(),
        class: HeLayerClass::Ks,
        trace,
        input_cts: cts,
        output_cts: cts,
        level_in: level,
        level_out: level - 1,
        plaintext_words: 0,
        rotation_steps: RotationSet::default(),
    }
}

/// Lowers a sign-composition ReLU: one composite [`HeOpKind::Sign`]
/// macro record per preset stage (each consuming three levels:
/// square, coefficient fold, closing product), then the selection
/// `x·(1+sgn)/2` — a halving PCmult and the ciphertext product with the
/// mod-switched input — for two more levels.
fn lower_sign_activation(
    name: &str,
    layout: &Layout,
    preset: fxhenn_ckks::SignPreset,
    level: usize,
) -> HeLayerPlan {
    let cts = layout.ct_count();
    let stages = preset.stages().len();
    let mut trace = OpTrace::new();
    for _ in 0..cts {
        let mut lv = level;
        for _ in 0..stages {
            trace.record(HeOpKind::Sign, lv);
            lv -= 3;
        }
        trace.record(HeOpKind::PcMult, lv);
        trace.record(HeOpKind::Rescale, lv);
        trace.record(HeOpKind::CcMult, lv - 1);
        trace.record(HeOpKind::Relinearize, lv - 1);
        trace.record(HeOpKind::Rescale, lv - 1);
    }
    HeLayerPlan {
        name: name.to_string(),
        class: HeLayerClass::Ks,
        trace,
        input_cts: cts,
        output_cts: cts,
        level_in: level,
        level_out: level - (3 * stages + 2),
        plaintext_words: 0,
        rotation_steps: RotationSet::default(),
    }
}

fn lower_channel_scale(name: &str, layout: &Layout, slots: usize, level: usize) -> HeLayerPlan {
    let cts = layout.ct_count();
    let mut trace = OpTrace::new();
    for _ in 0..cts {
        trace.record(HeOpKind::PcMult, level);
        trace.record(HeOpKind::Rescale, level);
        trace.record(HeOpKind::PcAdd, level - 1);
    }
    HeLayerPlan {
        name: name.to_string(),
        class: HeLayerClass::Nks,
        trace,
        input_cts: cts,
        output_cts: cts,
        level_in: level,
        level_out: level - 1,
        plaintext_words: cts * slots * 2 * (2 * level - 1),
        rotation_steps: RotationSet::default(),
    }
}

fn lower_dense_like(
    name: &str,
    input: &Layout,
    d_out: usize,
    slots: usize,
    level: usize,
    profile: LoweringProfile,
) -> (HeLayerPlan, Layout) {
    let mut trace = OpTrace::new();
    let (steps, output, _) = dense_route(input, d_out, slots, profile);
    let rotation_steps = RotationSet::at_level(steps, level);
    if let (LoweringProfile::Optimized, Some(plan)) = (profile, plan_linear(input, d_out, slots)) {
        for _ in &plan.stack_shifts {
            trace.record(HeOpKind::Rotate, level);
            trace.record(HeOpKind::CcAdd, level);
        }
        plan.schedule.record(level, &mut trace);
        trace.record(HeOpKind::PcAdd, level - 1);
        let he_plan = HeLayerPlan {
            name: name.to_string(),
            class: HeLayerClass::Ks,
            trace,
            input_cts: 1,
            output_cts: 1,
            level_in: level,
            level_out: level - 1,
            plaintext_words: slots * 2 * (plan.schedule.term_count() * level + level - 1),
            rotation_steps,
        };
        return (he_plan, output);
    }
    let plan = plan_dense(input, d_out, slots);
    let mut plaintext_words = 0usize;

    if plan.stacked {
        // replicate input into `copies` stacked copies
        trace.record_many(HeOpKind::Rotate, level, plan.stack_shifts.len());
        trace.record_many(HeOpKind::CcAdd, level, plan.stack_shifts.len());
        // per round: weights multiply + rescale, rotate-and-sum within
        // segments, bias add
        let rs = plan.sum_shifts.len();
        for _ in 0..plan.rounds {
            trace.record(HeOpKind::PcMult, level);
            trace.record(HeOpKind::Rescale, level);
            trace.record_many(HeOpKind::Rotate, level - 1, rs);
            trace.record_many(HeOpKind::CcAdd, level - 1, rs);
            trace.record(HeOpKind::PcAdd, level - 1);
        }
        plaintext_words += plan.rounds * slots * 2 * level; // weight plaintexts
        plaintext_words += plan.rounds * slots * 2 * (level - 1); // bias plaintexts
    } else {
        // One output per round across all input ciphertexts.
        let m = input.ct_count();
        let rs = plan.sum_shifts.len();
        for _ in 0..d_out {
            trace.record_many(HeOpKind::PcMult, level, m);
            trace.record_many(HeOpKind::CcAdd, level, m - 1);
            trace.record(HeOpKind::Rescale, level);
            trace.record_many(HeOpKind::Rotate, level - 1, rs);
            trace.record_many(HeOpKind::CcAdd, level - 1, rs);
            trace.record(HeOpKind::PcAdd, level - 1);
        }
        plaintext_words += d_out * m * slots * 2 * level;
        plaintext_words += d_out * slots * 2 * (level - 1);
    }
    let mut level_out = level - 1;

    // Consolidation: wide layers fold their round ciphertexts back into
    // one via mask + rotate + add, spending one more level.
    if plan.consolidate {
        let lv = level_out;
        for r in 0..plan.rounds {
            trace.record(HeOpKind::PcMult, lv); // mask
            trace.record(HeOpKind::Rescale, lv);
            if r > 0 {
                trace.record(HeOpKind::Rotate, lv - 1);
                trace.record(HeOpKind::CcAdd, lv - 1);
            }
        }
        plaintext_words += plan.rounds * slots * 2 * lv; // mask plaintexts
        level_out = lv - 1;
    }

    let he_plan = HeLayerPlan {
        name: name.to_string(),
        class: HeLayerClass::Ks,
        trace,
        input_cts: input.ct_count(),
        output_cts: output.ct_count(),
        level_in: level,
        level_out,
        plaintext_words,
        rotation_steps,
    };
    (he_plan, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{fxhenn_cifar10, fxhenn_mnist, toy_mnist_like};

    #[test]
    fn mnist_cnv1_matches_table4_hops() {
        // Table IV: Cnv1 has 75 HOPs (25 PCmult + 25 Rescale + 24 CCadd +
        // 1 PCadd in our honest accounting).
        let prog = lower_network(&fxhenn_mnist(1), 8192, 7);
        let cnv1 = prog.layer("Cnv1").unwrap();
        assert_eq!(cnv1.hop_count(), 75);
        assert_eq!(cnv1.class, HeLayerClass::Nks);
        assert_eq!(cnv1.key_switch_count(), 0);
        assert_eq!(cnv1.input_cts, 25);
        assert_eq!(cnv1.output_cts, 1, "845 values fit one ciphertext");
    }

    #[test]
    fn mnist_totals_in_paper_range() {
        // Paper Table VII: FxHENN-MNIST has 826 HOPs and 280 KS. Our
        // honest lowering (counting every CCadd) lands within ~1.6x on
        // HOPs and ~7% on KS; EXPERIMENTS.md records the delta.
        let prog = lower_network(&fxhenn_mnist(1), 8192, 7);
        let hops = prog.hop_count();
        let ks = prog.key_switch_count();
        assert!((700..=1500).contains(&hops), "MNIST HOPs = {hops}");
        assert!((230..=420).contains(&ks), "MNIST KS = {ks}");
    }

    #[test]
    fn mnist_layer_classes_match_table2() {
        let prog = lower_network(&fxhenn_mnist(1), 8192, 7);
        let classes: Vec<HeLayerClass> = prog.layers.iter().map(|l| l.class).collect();
        assert_eq!(
            classes,
            [
                HeLayerClass::Nks,
                HeLayerClass::Ks,
                HeLayerClass::Ks,
                HeLayerClass::Ks,
                HeLayerClass::Ks
            ]
        );
    }

    #[test]
    fn mnist_levels_descend_within_budget() {
        let prog = lower_network(&fxhenn_mnist(1), 8192, 7);
        let mut lv = 7;
        for layer in &prog.layers {
            assert_eq!(layer.level_in, lv, "{} enters at {lv}", layer.name);
            assert!(layer.level_out < layer.level_in);
            assert!(layer.level_out >= 1);
            lv = layer.level_out;
        }
        // depth 5 from level 7 ends at level 2
        assert_eq!(prog.layers.last().unwrap().level_out, 2);
    }

    #[test]
    fn mnist_fc1_dominates_keyswitches() {
        let prog = lower_network(&fxhenn_mnist(1), 8192, 7);
        let fc1 = prog.layer("Fc1").unwrap();
        assert!(
            fc1.key_switch_count() * 2 > prog.key_switch_count(),
            "Fc1 carries most KS ops ({}/{})",
            fc1.key_switch_count(),
            prog.key_switch_count()
        );
        // Fc1 = 25 rounds: 250 rotate-and-sum rotations + 2 stacking
        assert_eq!(fc1.key_switch_count(), 252);
    }

    #[test]
    fn cifar10_totals_two_orders_above_mnist() {
        let mnist = lower_network(&fxhenn_mnist(1), 8192, 7);
        let cifar = lower_network(&fxhenn_cifar10(1), 16384, 7);
        // Paper Table VI: 0.83e3 vs 82.73e3 HOPs (~100x).
        let ratio = cifar.hop_count() as f64 / mnist.hop_count() as f64;
        assert!(
            (40.0..=200.0).contains(&ratio),
            "CIFAR/MNIST HOP ratio = {ratio}"
        );
        assert!(
            (30_000..=120_000).contains(&cifar.key_switch_count()),
            "CIFAR KS = {}",
            cifar.key_switch_count()
        );
    }

    #[test]
    fn cifar10_consolidates_wide_conv2() {
        let prog = lower_network(&fxhenn_cifar10(1), 16384, 7);
        let cnv2 = prog.layer("Cnv2").unwrap();
        assert_eq!(cnv2.output_cts, 1, "2800 outputs consolidated to one ct");
        assert_eq!(
            cnv2.level_out,
            cnv2.level_in - 2,
            "consolidation costs one extra level"
        );
        // Act2 then squares a single ciphertext.
        let act2 = prog.layer("Act2").unwrap();
        assert_eq!(act2.hop_count(), 3);
    }

    #[test]
    fn model_size_matches_paper_order() {
        // Table VI: MNIST 15.57 MB, CIFAR10 2471 MB.
        let mnist = lower_network(&fxhenn_mnist(1), 8192, 7);
        let mb = mnist.model_size_bytes() as f64 / (1024.0 * 1024.0);
        assert!((5.0..=80.0).contains(&mb), "MNIST model = {mb} MB");
        let cifar = lower_network(&fxhenn_cifar10(1), 16384, 7);
        let gb = cifar.model_size_bytes() as f64 / (1024.0 * 1024.0 * 1024.0);
        assert!((1.0..=12.0).contains(&gb), "CIFAR model = {gb} GB");
    }

    #[test]
    fn he_macs_explode_relative_to_plain_macs() {
        // Table IV: Cnv1 2.11e4 plain MACs vs 1.198e8 HE MACs (~5700x).
        let net = fxhenn_mnist(1);
        let prog = lower_network(&net, 8192, 7);
        let cnv1 = prog.layer("Cnv1").unwrap();
        let he = cnv1.he_macs(8192);
        let plain = 21_125u64;
        let factor = he / plain;
        assert!(
            (1000..=20_000).contains(&factor),
            "HE/plain MAC factor = {factor}"
        );
    }

    #[test]
    fn optimized_mnist_is_35_key_switches_on_the_faithful_keys() {
        let fast = try_lower_network_with(&fxhenn_mnist(1), 8192, 7, LoweringProfile::Optimized)
            .unwrap();
        let per_layer: Vec<(usize, usize)> = fast
            .layers
            .iter()
            .map(|l| (l.hop_count(), l.key_switch_count()))
            .collect();
        // Cnv1 25 PCmult + 24 CCadd + Rescale + PCadd; Fc1 2 stack + 7
        // baby + 3 giant + 5 fold rotations; Fc2 9 packing + 7 fold.
        assert_eq!(per_layer, [(51, 0), (3, 1), (89, 17), (3, 1), (44, 16)]);
        let fc2 = fast.layer("Fc2").unwrap();
        assert_eq!(fc2.trace.count_of(HeOpKind::PcMult), 10);
        assert_eq!((fc2.input_cts, fc2.output_cts), (1, 1));
        assert_eq!(fast.layers.last().unwrap().level_out, 2);
    }

    #[test]
    fn optimized_profile_adds_no_key_to_the_builtin_networks() {
        use crate::model::{fxhenn_mnist_pooled, toy_cryptonets_like};
        let nets = [
            (fxhenn_mnist(1), 8192, 7),
            (fxhenn_cifar10(1), 16384, 7),
            (toy_mnist_like(1), 1024, 7),
            (fxhenn_mnist_pooled(1), 8192, 9),
            (toy_cryptonets_like(1), 1024, 7),
        ];
        for (net, degree, levels) in nets {
            let own = |profile| {
                let (pure, _) = lower_profile(&net, degree, levels, profile).unwrap();
                pure.required_rotations()
            };
            let faithful = own(LoweringProfile::PaperFaithful);
            let fast = own(LoweringProfile::Optimized);
            let extra: Vec<_> = fast.iter().filter(|s| !faithful.contains(s)).collect();
            assert!(extra.is_empty(), "{}: new steps {extra:?}", net.name());
            // So the public lowering is the faithful one, untouched but
            // for the level a key must reach: pooled MNIST's optimized
            // Fc1 skips Pool1's consolidation and rotates a level higher.
            let mut public = lower_network(&net, degree, levels);
            let (pure, _) =
                lower_profile(&net, degree, levels, LoweringProfile::PaperFaithful).unwrap();
            let raised = public.required_rotations() != pure.required_rotations();
            assert_eq!(raised, net.name() == "FxHENN-MNIST-pooled", "{}", net.name());
            for (layer, own) in public.layers.iter_mut().zip(&pure.layers) {
                assert_eq!(*layer.rotation_steps, *own.rotation_steps, "{}", net.name());
                layer.rotation_steps = own.rotation_steps.clone();
            }
            assert_eq!(public, pure, "{}", net.name());
        }
    }

    #[test]
    fn optimized_steps_stay_inside_the_faithful_key_set_across_architectures() {
        use crate::builder::NetworkBuilder;
        let mut lowered = 0;
        for (maps, kernel, stride) in [(1, 2, 1), (2, 3, 1), (3, 3, 2), (3, 2, 2)] {
            for extra in 0..3 {
                for (hidden, outputs) in [(2, 2), (5, 6), (10, 3), (18, 20), (40, 4), (70, 33)] {
                    let mut b = NetworkBuilder::new("arch", [1, 9, 9], 3)
                        .conv(maps, kernel, stride)
                        .square();
                    match extra {
                        1 => b = b.avg_pool(2, 2),
                        2 => b = b.batch_norm(),
                        _ => {}
                    }
                    let net = b.dense(hidden).square().dense(outputs).build(9).unwrap();
                    let own = |profile| lower_profile(&net, 1024, 9, profile);
                    let (Ok((faithful, other)), Ok((fast, _))) =
                        (own(LoweringProfile::PaperFaithful), own(LoweringProfile::Optimized))
                    else {
                        continue;
                    };
                    // What the faithful walk says the optimized profile
                    // takes is what the optimized lowering takes.
                    let fast_steps: Vec<_> = fast.layers.iter().map(|l| l.rotation_steps.clone()).collect();
                    assert_eq!(other, fast_steps);
                    let keys = faithful.required_rotations();
                    for step in fast.required_rotations().iter() {
                        assert!(keys.contains(step), "{maps}/{kernel}/{stride}/{extra}/{hidden}/{outputs}: step {step}");
                    }
                    lowered += 1;
                }
            }
        }
        assert!(lowered > 50, "only {lowered} architectures lowered under both profiles");
    }

    #[test]
    fn key_set_is_the_union_when_the_profiles_differ() {
        // No architecture above has an optimized schedule outside its
        // faithful key set, so the merge is shown on a doctored program:
        // Fc1 (level 5) rotates by 1..16, Fc2 (level 3) by 32..256.
        let net = toy_mnist_like(1);
        let (mut prog, mut other) =
            lower_profile(&net, 1024, 7, LoweringProfile::PaperFaithful).unwrap();
        other[4] = RotationSet::at_level([1, 3, 32], 3);
        other[4].insert(64, 4);
        let before = prog.clone();
        add_missing_steps(&mut prog, &other);
        // 1 is Fc1's at a higher level and 32 Fc2's at the same one; 3 is
        // new, and 64 is present only at a lower level: both land on Fc2.
        let fc2 = &prog.layers[4].rotation_steps;
        assert_eq!(**fc2, [3, 32, 64, 128, 256]);
        assert_eq!(fc2.level(3), Some(3));
        assert_eq!(fc2.level(32), Some(3));
        assert_eq!(fc2.level(64), Some(4));
        assert_eq!(prog.required_rotations().level(1), Some(5));
        assert_eq!(prog.layers[..4], before.layers[..4]);
        assert_eq!(prog.layers[4].trace, before.layers[4].trace);
    }

    #[test]
    fn toy_network_lowers_and_fits_small_params() {
        let prog = lower_network(&toy_mnist_like(1), 1024, 7);
        assert_eq!(prog.layers.len(), 5);
        assert!(prog.hop_count() > 0);
        assert!(prog.layers.last().unwrap().level_out >= 1);
    }

    #[test]
    fn total_trace_concatenates_layers() {
        let prog = lower_network(&toy_mnist_like(1), 1024, 7);
        let total = prog.total_trace();
        assert_eq!(total.hop_count(), prog.hop_count());
        assert_eq!(total.key_switch_count(), prog.key_switch_count());
    }

    #[test]
    #[should_panic(expected = "must fit in")]
    fn conv_too_large_for_slots_panics() {
        // 169 output positions cannot fit the 128 slots of N=256.
        lower_network(&fxhenn_mnist(1), 256, 7);
    }

    #[test]
    fn mnist_fits_even_at_reduced_degree() {
        // At N=1024 (512 slots) the MNIST conv still fits (169 positions),
        // the maps just split across more ciphertexts.
        let prog = lower_network(&fxhenn_mnist(1), 1024, 7);
        let cnv1 = prog.layer("Cnv1").unwrap();
        assert!(cnv1.output_cts > 1);
    }
}
