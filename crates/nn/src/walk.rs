//! The HE-CNN schedule, written once.
//!
//! Every layer kind has one walk here, generic over a [`Backend`]. The
//! lowering runs it on a recorder whose ciphertexts are just their levels
//! (`crate::lowering`); the executor runs it on the CKKS evaluator
//! (`crate::executor`). The executed trace is therefore the lowered trace
//! by construction, record for record, under either [`LoweringProfile`].
//!
//! Plaintext operands travel as handles ([`Operand`]): which weights,
//! bias or mask of which layer. Only a backend that encodes resolves
//! one, so lowering never builds a weight vector. Independent work items
//! (convolution groups, dense rounds) go through [`Backend::items`]: the
//! recorder runs them in index order, the executor fans them out and
//! merges what they record in index order.

use crate::error::LowerError;
use crate::layers::{Conv2d, Layer, SignRelu};
use crate::lowering::{
    plan_dense, plan_linear, stack_shifts, HeLayerClass, Layout, LinearPlan, LoweringProfile,
};
use crate::model::Network;
use crate::packing::conv_groups;

/// Which plaintext operand of a layer an [`Operand`] is.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Which {
    /// The factor of a product: input ciphertext `.1` of group `.0`
    /// (first convolution: its taps' weights), round `.0`'s weights
    /// against input ciphertext `.1` (dense), ciphertext `.0`'s factors
    /// (channel scale).
    Weights(usize, usize),
    /// Group, round or ciphertext `.0`'s bias (a channel scale's shifts).
    Bias(usize),
    /// The mask keeping round `.0`'s outputs when rounds are consolidated.
    Mask(usize),
}

/// What a layer's operands are computed from.
#[derive(Clone, Copy)]
pub(crate) struct Source<'w> {
    /// The layer's position in the network (its operand-cache slot).
    pub index: usize,
    pub layer: &'w Layer,
    /// The layer's input shape and where its input values are.
    pub shape: &'w [usize],
    pub input: &'w Layout,
    pub slots: usize,
    /// A dense layer's outputs, how many one round computes, and how far
    /// apart they sit; the first convolution's taps per ciphertext and
    /// the width of their blocks.
    pub d_out: usize,
    pub copies: usize,
    pub seg: usize,
}

impl<'w> Source<'w> {
    fn op(self, which: Which) -> Operand<'w> {
        Operand { src: self, which }
    }
}

/// A plaintext operand, by handle.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'w> {
    pub src: Source<'w>,
    pub which: Which,
}

/// The layer a walk is in.
pub(crate) struct At<'w> {
    /// Position and number of layers.
    pub index: usize,
    pub count: usize,
    pub name: &'w str,
    /// Entry level and input ciphertext count.
    pub level: usize,
    pub cts: usize,
}

/// What one layer's walk produced.
pub(crate) struct Step<C> {
    pub out: Vec<C>,
    pub layout: Layout,
    pub class: HeLayerClass,
    /// Words of encoded plaintext the layer streams (weights, biases,
    /// masks), as the hardware model prices them.
    pub words: usize,
    /// The operation a noise failure at the layer's end is charged to.
    pub op: &'static str,
}

/// What the walks run on.
pub(crate) trait Backend: Sized {
    /// A ciphertext.
    type Ct: Clone + Send + Sync;
    /// A failure; the structural ones are [`LowerError`]s.
    type Error: From<LowerError>;

    fn level(ct: &Self::Ct) -> usize;
    /// Opens a layer.
    fn enter(&mut self, _at: &At<'_>) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Closes the layer `enter` opened, which produced `step`.
    fn leave(&mut self, at: &At<'_>, step: &Step<Self::Ct>) -> Result<(), Self::Error>;
    fn mul_plain(&mut self, x: &Self::Ct, w: Operand<'_>) -> Result<Self::Ct, Self::Error>;
    fn add_plain(&mut self, x: &Self::Ct, b: Operand<'_>) -> Result<Self::Ct, Self::Error>;
    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct, Self::Error>;
    fn rescale(&mut self, x: &Self::Ct) -> Result<Self::Ct, Self::Error>;
    fn rotate(&mut self, x: &Self::Ct, step: usize) -> Result<Self::Ct, Self::Error>;
    /// `x²`: CCmult, relinearize, rescale.
    fn square(&mut self, x: &Self::Ct) -> Result<Self::Ct, Self::Error>;
    /// [`fxhenn_ckks::relu_approx`].
    fn relu(&mut self, x: &Self::Ct, relu: &SignRelu) -> Result<Self::Ct, Self::Error>;
    /// `W·x + b`, the dense layer `src` as the one linear transform `plan`.
    fn linear(&mut self, x: &Self::Ct, plan: &LinearPlan, src: Source<'_>) -> Result<Self::Ct, Self::Error>;
    /// `[item(0), …, item(n − 1)]`: one piece of work on `n` sets of
    /// operands — the same operations at the same levels, independent of
    /// each other — recorded in index order.
    fn items(&mut self, n: usize, item: &Item<'_, Self>) -> Result<Vec<Self::Ct>, Self::Error>;
}

/// One of [`Backend::items`]' work items.
pub(crate) type Item<'i, B> =
    dyn Fn(&mut B, usize) -> Result<<B as Backend>::Ct, <B as Backend>::Error> + Sync + 'i;

/// A network's front convolution and the packing of its input.
pub(crate) struct FrontConv<'n> {
    pub name: &'n str,
    pub conv: &'n Conv2d,
    /// Ciphertext groups its output maps fill.
    pub groups: usize,
    /// Kernel taps per input ciphertext: tap `j` sits in block `j mod k`
    /// of ciphertext `j / k`, at slot offset `(j mod k)·slots/k`.
    pub taps_per_ct: usize,
}

impl FrontConv<'_> {
    /// Input ciphertexts per group.
    pub fn cts_per_group(&self) -> usize {
        self.conv.offset_count().div_ceil(self.taps_per_ct)
    }
}

/// A network's front convolution and how its input is packed: LoLa's
/// offset packing, one input ciphertext per group and kernel tap, or —
/// the one packing rule — `slots / seg` taps per ciphertext in tap
/// blocks. Tap blocks need the `Optimized` profile, maps that fit one
/// ciphertext (`seg = next_pow2(maps·positions)`), and a dense-like
/// layer behind only activations whose plan stacks its input into
/// `seg`-wide copies: the fold that sums the blocks then is that
/// layer's stacking.
pub(crate) fn front_conv(
    net: &Network,
    slots: usize,
    profile: LoweringProfile,
) -> Result<FrontConv<'_>, LowerError> {
    let (name, layer) = net.layers().first().ok_or(LowerError::EmptyNetwork)?;
    let Layer::Conv(conv) = layer else {
        return Err(LowerError::FirstLayerNotConv);
    };
    let (_, h, w) = chw(name, net.input_shape())?;
    let (oh, ow) = conv.output_size(h, w);
    let positions = oh * ow;
    if positions > slots {
        return Err(LowerError::ConvDoesNotFitSlots { layer: name.clone(), positions, slots });
    }
    let groups = conv_groups(conv, positions, slots).1;
    let consumer = net.layers()[1..]
        .iter()
        .map(|(_, layer)| layer)
        .find(|layer| !matches!(layer, Layer::Activation(_) | Layer::SignAct(_)));
    let dense_like = matches!(consumer, Some(Layer::Dense(_) | Layer::AvgPool(_) | Layer::Conv(_)));
    // A stacked input is at most half the slots wide, so it is one group.
    let seg = Layout::SingleContig { n: conv.out_channels * positions }.stack_seg(slots);
    let taps_per_ct = match seg {
        Some(seg) if profile == LoweringProfile::Optimized && dense_like => slots / seg,
        _ => 1,
    };
    Ok(FrontConv { name, conv, groups, taps_per_ct })
}

/// A layer input's `(channels, height, width)`.
fn chw(layer: &str, shape: &[usize]) -> Result<(usize, usize, usize), LowerError> {
    match *shape {
        [c, h, w] => Ok((c, h, w)),
        _ => Err(LowerError::NotChw { layer: layer.to_string(), rank: shape.len() }),
    }
}

/// Walks `net` from its front convolution's packed input (`input[g][i]`:
/// group `g`, input ciphertext `i` of [`front_conv`]'s packing) and
/// returns the output ciphertexts and where the values are in them.
pub(crate) fn walk<B: Backend>(
    b: &mut B,
    net: &Network,
    input: &[Vec<B::Ct>],
    slots: usize,
    profile: LoweringProfile,
) -> Result<(Vec<B::Ct>, Layout), B::Error> {
    let max_level = input.first().and_then(|g| g.first()).map_or(0, B::level);
    let count = net.layer_count();
    if count == 0 {
        return Err(LowerError::EmptyNetwork.into());
    }
    let taps_per_ct = front_conv(net, slots, profile)?.taps_per_ct;
    let mut shape = net.input_shape().to_vec();
    // The first convolution reads `input`, not a slot layout.
    let mut layout = Layout::SingleContig { n: 0 };
    let mut cts: Vec<B::Ct> = Vec::new();
    for (index, (name, layer)) in net.layers().iter().enumerate() {
        let (level, n) = match index {
            0 => (max_level, input.iter().map(Vec::len).sum()),
            _ => (cts.first().map_or(0, B::level), cts.len()),
        };
        let at = At { index, count, name, level, cts: n };
        b.enter(&at)?;
        let exhausted = || LowerError::LevelBudgetExhausted { layer: name.clone(), max_level };
        let src = Source { index, layer, shape: &shape, input: &layout, slots, d_out: 0, copies: 1, seg: 1 };
        let (step, next_shape) = match layer {
            Layer::Conv(conv) => {
                let (_, h, w) = chw(name, &shape)?;
                let (oh, ow) = conv.output_size(h, w);
                let step = match index {
                    0 => {
                        let src = Source { copies: taps_per_ct, seg: slots / taps_per_ct, ..src };
                        first_conv(b, src, conv, oh * ow, input, profile)?
                    }
                    // A mid-network convolution is a (sparse) dense layer.
                    _ => dense(b, src, &cts, conv.out_channels * oh * ow, profile)?,
                };
                (step, vec![conv.out_channels, oh, ow])
            }
            _ if index == 0 => return Err(LowerError::FirstLayerNotConv.into()),
            Layer::Dense(d) => {
                if layout.value_count() != d.in_features {
                    let (expected, got) = (d.in_features, layout.value_count());
                    return Err(LowerError::DenseSizeMismatch { layer: name.clone(), expected, got }.into());
                }
                (dense(b, src, &cts, d.out_features, profile)?, vec![d.out_features])
            }
            // Average pooling is a sparse dense layer too.
            Layer::AvgPool(pool) => {
                let (c, h, w) = chw(name, &shape)?;
                let (oh, ow) = pool.output_size(h, w);
                (dense(b, src, &cts, c * oh * ow, profile)?, vec![c, oh, ow])
            }
            Layer::Activation(_) => {
                let out = cts.iter().map(|ct| b.square(ct)).collect::<Result<_, _>>()?;
                let step = Step { out, layout: layout.clone(), class: HeLayerClass::Ks, words: 0, op: "CCmult" };
                (step, shape.clone())
            }
            Layer::Scale(cs) => {
                let (c, _, _) = chw(name, &shape)?;
                if c != cs.factors.len() {
                    let scales = cs.factors.len();
                    return Err(LowerError::ChannelMismatch { layer: name.clone(), scales, channels: c }.into());
                }
                (channel_scale(b, src, &cts)?, shape.clone())
            }
            Layer::SignAct(relu) => {
                if level < fxhenn_ckks::relu_min_level(relu.preset) {
                    return Err(exhausted().into());
                }
                let out = cts.iter().map(|ct| b.relu(ct, relu)).collect::<Result<_, _>>()?;
                let step = Step { out, layout: layout.clone(), class: HeLayerClass::Ks, words: 0, op: "Sign" };
                (step, shape.clone())
            }
        };
        if step.out.first().map_or(0, B::level) < 1 {
            return Err(exhausted().into());
        }
        b.leave(&at, &step)?;
        (cts, layout, shape) = (step.out, step.layout, next_shape);
    }
    Ok((cts, layout))
}

/// `Σ cts[i] ⊙ w(i)` with its rescale after every product (the paper's
/// per-tap schedule) or once, after the sum at scale Δ².
fn dot<'w, B: Backend>(
    b: &mut B,
    cts: &[B::Ct],
    w: impl Fn(usize) -> Operand<'w>,
    rescale_each: bool,
) -> Result<B::Ct, B::Error> {
    let mut acc = None;
    for (i, ct) in cts.iter().enumerate() {
        let mut p = b.mul_plain(ct, w(i))?;
        if rescale_each {
            p = b.rescale(&p)?;
        }
        acc = Some(match acc {
            None => p,
            Some(a) => b.add(&a, &p)?,
        });
    }
    let acc = acc.expect("every layout has a ciphertext");
    if rescale_each {
        Ok(acc)
    } else {
        b.rescale(&acc)
    }
}

/// `x ← x + rot(x, s)` for every shift in turn: the stacking prologue and
/// the rotate-and-sum.
fn fold<B: Backend>(b: &mut B, mut x: B::Ct, shifts: &[usize]) -> Result<B::Ct, B::Error> {
    for &s in shifts {
        let rot = b.rotate(&x, s)?;
        x = b.add(&x, &rot)?;
    }
    Ok(x)
}

/// The first convolution (offset packing; an NKS layer but over tap
/// blocks): per output group, one product per input ciphertext, summed,
/// plus the bias (Listing 1 of the paper). `PaperFaithful` rescales
/// every tap product; `Optimized` sums them at Δ² and rescales once.
/// Over tap blocks
/// (`src.copies` taps per ciphertext, `src.seg` slots apart) the sum
/// holds one partial convolution per block; folding it by the stacking
/// steps of the dense layer that reads it leaves the whole convolution
/// in every block, which is the layout that layer's stacking builds.
fn first_conv<B: Backend>(
    b: &mut B,
    src: Source<'_>,
    conv: &Conv2d,
    positions: usize,
    input: &[Vec<B::Ct>],
    profile: LoweringProfile,
) -> Result<Step<B::Ct>, B::Error> {
    let level = B::level(&input[0][0]);
    let per_tap = profile == LoweringProfile::PaperFaithful;
    let (slots, seg) = (src.slots, src.seg);
    let blocks = stack_shifts(seg, slots);
    let out = b.items(input.len(), &|b, g| {
        let sum = dot(b, &input[g], |i| src.op(Which::Weights(g, i)), per_tap)?;
        let sum = fold(b, sum, &blocks)?;
        b.add_plain(&sum, src.op(Which::Bias(g)))
    })?;
    let (maps_per_group, groups) = conv_groups(conv, positions, slots);
    let n = conv.out_channels * positions;
    let (layout, class) = match groups {
        _ if src.copies > 1 => (Layout::Replicated { n, seg }, HeLayerClass::Ks),
        1 => (Layout::SingleContig { n }, HeLayerClass::Nks),
        _ => (Layout::MultiContig { n, per_ct: maps_per_group * positions }, HeLayerClass::Nks),
    };
    let words = groups * (input[0].len() + 1) * slots * 2 * level;
    Ok(Step { out, layout, class, words, op: "PCmult" })
}

/// A per-channel affine map (folded batch norm): one product, rescale
/// and shift per ciphertext, layout preserved (an NKS layer).
fn channel_scale<B: Backend>(b: &mut B, src: Source<'_>, cts: &[B::Ct]) -> Result<Step<B::Ct>, B::Error> {
    let level = cts.first().map_or(0, B::level);
    let mut out = Vec::with_capacity(cts.len());
    for (m, ct) in cts.iter().enumerate() {
        let p = b.mul_plain(ct, src.op(Which::Weights(m, 0)))?;
        let p = b.rescale(&p)?;
        out.push(b.add_plain(&p, src.op(Which::Bias(m)))?);
    }
    let words = cts.len() * src.slots * 2 * (2 * level - 1);
    Ok(Step { out, layout: src.input.clone(), class: HeLayerClass::Nks, words, op: "PCmult" })
}

/// A dense-like layer (dense, average pooling, mid-network convolution)
/// with `d_out` outputs: under `Optimized`, one linear transform where
/// [`plan_linear`] finds one; otherwise the rotate-and-sum rounds of
/// [`plan_dense`] — stacked copies of a single input, or one output per
/// round across every input ciphertext — folded into one ciphertext by
/// a masked rotate-accumulate when there are many, at one more level.
fn dense<B: Backend>(
    b: &mut B,
    src: Source<'_>,
    x: &[B::Ct],
    d_out: usize,
    profile: LoweringProfile,
) -> Result<Step<B::Ct>, B::Error> {
    let (slots, level) = (src.slots, B::level(&x[0]));
    let words = |plaintexts: usize| plaintexts * slots * 2;
    if profile == LoweringProfile::Optimized {
        if let Some(plan) = plan_linear(src.input, d_out, slots) {
            let x = fold(b, x[0].clone(), &plan.stack_shifts)?;
            let out = vec![b.linear(&x, &plan, Source { d_out, ..src })?];
            let words = words(plan.schedule.term_count() * level + level - 1);
            return Ok(Step { out, layout: plan.output, class: HeLayerClass::Ks, words, op: "PCmult" });
        }
    }

    let plan = plan_dense(src.input, d_out, slots);
    let src = Source { d_out, copies: plan.copies, seg: plan.seg, ..src };
    let stacked;
    let x = if plan.stacked {
        stacked = [fold(b, x[0].clone(), &plan.stack_shifts)?];
        &stacked[..]
    } else {
        x
    };
    let rounds = b.items(plan.rounds, &|b, r| {
        let sum = dot(b, x, |m| src.op(Which::Weights(r, m)), false)?;
        let sum = fold(b, sum, &plan.sum_shifts)?;
        b.add_plain(&sum, src.op(Which::Bias(r)))
    })?;
    let (n, copies, seg) = (d_out, plan.copies, plan.seg);
    let mut step = Step {
        out: rounds,
        layout: if plan.stacked {
            Layout::Segmented { n, copies, seg, cts: plan.rounds }
        } else {
            Layout::PerOutput { n }
        },
        class: HeLayerClass::Ks,
        words: words(plan.rounds * (x.len() * level + level - 1)),
        op: "PCmult",
    };
    if !plan.consolidate {
        return Ok(step);
    }
    // Round r's outputs, masked, move r slots right into one ciphertext.
    let mut acc = None;
    for (r, ct) in step.out.iter().enumerate() {
        let masked = b.mul_plain(ct, src.op(Which::Mask(r)))?;
        let mut masked = b.rescale(&masked)?;
        if r > 0 {
            masked = b.rotate(&masked, plan.consolidate_shifts[r - 1])?;
        }
        acc = Some(match acc {
            None => masked,
            Some(a) => b.add(&a, &masked)?,
        });
    }
    step.out = vec![acc.expect("at least one round")];
    step.layout = Layout::ScatteredSingle { n, copies, seg, rounds: plan.rounds };
    step.words += words(plan.rounds * (level - 1));
    Ok(step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::model::{fxhenn_mnist, synthetic_input, toy_mnist_like};
    use crate::packing::{conv_bias_vector, conv_offset_pack, conv_tap_weights};

    /// Runs Cnv1 and Act1 over the tap-block packing in plain `f64`, no
    /// keys: per-block weights, the sum, the fold by the stacking steps
    /// of the dense layer reading Act1, the bias; then checks every block
    /// against `Network::forward` through Cnv1 and through Act1.
    fn unpack_tap_blocks(net: &Network, slots: usize, taps_per_ct: usize, cts: usize) {
        let front = front_conv(net, slots, LoweringProfile::Optimized).expect("a conv front end");
        assert_eq!((front.taps_per_ct, front.groups, front.cts_per_group()), (taps_per_ct, 1, cts));
        assert_eq!(front_conv(net, slots, LoweringProfile::PaperFaithful).expect("same").taps_per_ct, 1);
        let (conv, seg) = (front.conv, slots / taps_per_ct);
        let image = synthetic_input(net, 3);
        let through = net.forward_trace(&image);
        let n = through[0].data().len();
        let positions = n / conv.out_channels;
        let Layer::Dense(fc1) = &net.layers()[2].1 else {
            panic!("Cnv1, Act1, then a dense layer");
        };
        let consumer = plan_dense(&Layout::SingleContig { n }, fc1.out_features, slots);
        assert_eq!(consumer.seg, seg);

        let packed = conv_offset_pack(&image, conv, slots, taps_per_ct);
        let mut x = vec![0.0; slots];
        for (c, ct) in packed[0].iter().enumerate() {
            let w = conv_tap_weights(conv, positions, slots, 0, c, taps_per_ct);
            for (x, (v, w)) in x.iter_mut().zip(ct.iter().zip(&w)) {
                *x += v * w;
            }
        }
        for &shift in &consumer.stack_shifts {
            let before = x.clone();
            for (j, x) in x.iter_mut().enumerate() {
                *x += before[(j + shift) % slots];
            }
        }
        let bias = conv_bias_vector(conv, positions, slots, 0, taps_per_ct);
        x.iter_mut().zip(&bias).for_each(|(x, b)| *x += b);

        for (layer, want) in through[..2].iter().enumerate() {
            let got = match layer {
                0 => x.clone(),
                _ => x.iter().map(|v| v * v).collect(),
            };
            for block in got.chunks(seg) {
                for (v, (&g, &w)) in block.iter().zip(want.data()).enumerate() {
                    assert!((g - w).abs() < 1e-12, "{} layer {layer} value {v}: {g} vs {w}", net.name());
                }
                assert!(block[n..].iter().all(|&pad| pad == 0.0), "{}: padding stays zero", net.name());
            }
        }
    }

    #[test]
    fn tap_blocks_unpack_to_the_convolution_in_every_block() {
        // 25 taps in four 1024-slot blocks: 7 ciphertexts, one tap in the
        // last.
        unpack_tap_blocks(&fxhenn_mnist(1), 4096, 4, 7);
        // 9 taps in sixteen 32-slot blocks: one ciphertext, 7 blocks empty.
        unpack_tap_blocks(&toy_mnist_like(1), 512, 16, 1);
        // Two input channels, 18 taps in four 128-slot blocks: the last
        // of 5 ciphertexts holds two.
        let two_channels = NetworkBuilder::new("two-channel", [2, 8, 8], 4)
            .conv(2, 3, 1)
            .square()
            .dense(5)
            .build(5)
            .expect("a valid architecture");
        unpack_tap_blocks(&two_channels, 512, 4, 5);
    }
}
