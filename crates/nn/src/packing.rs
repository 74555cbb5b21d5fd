//! LoLa-style ciphertext packing: slot layouts and packing builders.
//!
//! LoLa (and therefore FxHENN) packs many values of one image into the
//! slots of few ciphertexts, which is what collapses the convolution of
//! Listing 1 into a single loop of PCmult/CCadd/Rescale. This module
//! defines [`CtLayout`] — where each logical value lives, as a
//! `(ciphertext, slot)` pair — plus the builders that produce the packed
//! input vectors (client side) and the aligned weight vectors (server
//! side): the slot values behind every operand handle of the network
//! walk (`operand_values`).
//!
//! ## The three layouts used by the lowering
//!
//! * **Contiguous**: value `v` at `(v / slots, v mod slots)` — fresh conv
//!   outputs (maps × positions, in channel-major order).
//! * **Offset packing** (first conv input): one ciphertext per kernel
//!   offset; slot `j` of ciphertext `i` holds the input pixel the kernel
//!   tap `i` touches when producing output position `j`.
//! * **Segmented**: value `v = r·c + s` at ciphertext `r`, slot `s·seg` —
//!   the natural output layout of the stacked rotate-and-sum dense
//!   lowering (`c` copies per ciphertext, segment width `seg`).

use crate::layers::{Conv2d, Layer};
use crate::lowering::{Layout, LinearPlan};
use crate::tensor::Tensor;
use crate::walk::{Operand, Source, Which};

/// Where each logical value of a layer boundary lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtLayout {
    slots: usize,
    ct_count: usize,
    /// `placements[v] = (ciphertext index, slot index)`.
    placements: Vec<(usize, usize)>,
}

impl CtLayout {
    /// Builds a layout from explicit placements.
    ///
    /// # Panics
    ///
    /// Panics if any slot is out of range, a `(ct, slot)` pair repeats,
    /// or the list is empty.
    pub fn new(slots: usize, ct_count: usize, placements: Vec<(usize, usize)>) -> Self {
        assert!(!placements.is_empty(), "layout needs at least one value");
        let mut seen = std::collections::HashSet::new();
        for &(ct, slot) in &placements {
            assert!(ct < ct_count, "ciphertext index {ct} out of range");
            assert!(slot < slots, "slot {slot} out of range");
            assert!(seen.insert((ct, slot)), "duplicate placement ({ct}, {slot})");
        }
        Self {
            slots,
            ct_count,
            placements,
        }
    }

    /// Contiguous layout: `n_values` packed densely across as many
    /// ciphertexts as needed.
    pub fn contiguous(n_values: usize, slots: usize) -> Self {
        assert!(n_values > 0 && slots > 0);
        let ct_count = n_values.div_ceil(slots);
        let placements = (0..n_values).map(|v| (v / slots, v % slots)).collect();
        Self {
            slots,
            ct_count,
            placements,
        }
    }

    /// Segmented layout: value `r·copies + s` at ciphertext `r`, slot
    /// `s·seg` (the stacked dense output shape).
    pub fn segmented(n_values: usize, copies: usize, seg: usize, slots: usize) -> Self {
        assert!(copies >= 1 && seg >= 1);
        assert!(copies * seg <= slots, "copies x segment exceeds slot count");
        let ct_count = n_values.div_ceil(copies);
        let placements = (0..n_values)
            .map(|v| (v / copies, (v % copies) * seg))
            .collect();
        Self {
            slots,
            ct_count,
            placements,
        }
    }

    /// Slot capacity of each ciphertext.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of ciphertexts this layout spans.
    #[inline]
    pub fn ct_count(&self) -> usize {
        self.ct_count
    }

    /// Number of logical values placed.
    #[inline]
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True if the layout holds no values (never constructible).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Placement of value `v`.
    #[inline]
    pub fn placement(&self, v: usize) -> (usize, usize) {
        self.placements[v]
    }

    /// All placements.
    #[inline]
    pub fn placements(&self) -> &[(usize, usize)] {
        &self.placements
    }

    /// Highest occupied slot index plus one, across all ciphertexts (the
    /// "span" that decides whether stacking is possible).
    pub fn span(&self) -> usize {
        self.placements.iter().map(|&(_, s)| s + 1).max().unwrap_or(0)
    }

    /// True if the layout is a single ciphertext with values at slots
    /// `0..len` in order — the precondition for the stacked dense
    /// lowering.
    pub fn is_single_ct_contiguous(&self) -> bool {
        self.ct_count == 1
            && self
                .placements
                .iter()
                .enumerate()
                .all(|(v, &(ct, s))| ct == 0 && s == v)
    }

    /// Scatters logical values into per-ciphertext slot vectors.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the layout length.
    pub fn scatter(&self, values: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(values.len(), self.len(), "one value per placement");
        let mut out = vec![vec![0.0; self.slots]; self.ct_count];
        for (&v, &(ct, slot)) in values.iter().zip(&self.placements) {
            out[ct][slot] = v;
        }
        out
    }

    /// Gathers logical values back out of per-ciphertext slot vectors.
    ///
    /// # Panics
    ///
    /// Panics if fewer ciphertexts than the layout spans are supplied.
    pub fn gather(&self, cts: &[Vec<f64>]) -> Vec<f64> {
        assert!(cts.len() >= self.ct_count, "missing ciphertexts");
        self.placements
            .iter()
            .map(|&(ct, slot)| cts[ct][slot])
            .collect()
    }
}

/// Next power of two at or above `x` (minimum 1).
pub fn next_pow2(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

/// Offset packing of a convolution input (the client-side packing of the
/// first layer), `taps_per_ct` kernel taps per ciphertext.
///
/// Returns, for each output-map group `g` and input ciphertext `t`, the
/// slot vector holding, for every kernel offset `i` it carries
/// (channel-major: `i = (c·kh + y)·kw + x`), the input pixel each output
/// position touches through tap `i`, replicated once per output map in
/// the group. Indexed `result[g][t]`. With one tap per ciphertext this
/// is LoLa's packing, which `PaperFaithful` runs; the `Optimized`
/// packing of [`front_conv`](crate::walk) puts `k` taps in `k` blocks
/// of `slots / k`: tap `i` in block `i mod k` of ciphertext `i / k`.
///
/// # Panics
///
/// Panics if the input shape mismatches the convolution, a single map's
/// positions exceed the slot count, or the maps of a group do not fit
/// one block.
pub fn conv_offset_pack(
    input: &Tensor,
    conv: &Conv2d,
    slots: usize,
    taps_per_ct: usize,
) -> Vec<Vec<Vec<f64>>> {
    assert_eq!(input.shape().len(), 3, "conv input must be CHW");
    assert_eq!(input.shape()[0], conv.in_channels, "channel mismatch");
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let (oh, ow) = conv.output_size(h, w);
    let positions = oh * ow;
    assert!(positions <= slots, "one map's positions must fit in the slots");
    let (maps_per_group, groups) = conv_groups(conv, positions, slots);
    let seg = slots / taps_per_ct;
    let fits = taps_per_ct == 1 || conv.out_channels * positions <= seg;
    assert!(fits, "the maps must fit one block");

    let taps = conv.offset_count();
    (0..groups)
        .map(|g| {
            let maps_here = maps_per_group.min(conv.out_channels - g * maps_per_group);
            (0..taps.div_ceil(taps_per_ct))
                .map(|ct| {
                    let mut v = vec![0.0; slots];
                    for i in ct * taps_per_ct..((ct + 1) * taps_per_ct).min(taps) {
                        let c = i / (conv.kernel.0 * conv.kernel.1);
                        let rest = i % (conv.kernel.0 * conv.kernel.1);
                        let kh = rest / conv.kernel.1;
                        let kw = rest % conv.kernel.1;
                        let block = (i % taps_per_ct) * seg;
                        for m in 0..maps_here {
                            for y in 0..oh {
                                for x in 0..ow {
                                    let slot = block + m * positions + y * ow + x;
                                    v[slot] =
                                        input.at3(c, y * conv.stride.0 + kh, x * conv.stride.1 + kw);
                                }
                            }
                        }
                    }
                    v
                })
                .collect()
        })
        .collect()
}

/// Output maps per ciphertext and the number of such groups, for a
/// convolution whose maps have `positions` outputs each.
pub fn conv_groups(conv: &Conv2d, positions: usize, slots: usize) -> (usize, usize) {
    let maps_per_group = (slots / positions).min(conv.out_channels).max(1);
    (maps_per_group, conv.out_channels.div_ceil(maps_per_group))
}

/// `value(block, map)` at every slot of each map's positions in group
/// `g`, in each of `blocks` tap blocks of `slots / blocks`.
fn per_map_block(
    conv: &Conv2d,
    positions: usize,
    slots: usize,
    g: usize,
    blocks: usize,
    value: impl Fn(usize, usize) -> f64,
) -> Vec<f64> {
    let seg = slots / blocks;
    let (maps_per_group, _) = conv_groups(conv, positions, slots);
    let maps_here = maps_per_group.min(conv.out_channels - g * maps_per_group);
    let mut v = vec![0.0; slots];
    for block in 0..blocks {
        for m in 0..maps_here {
            let at = block * seg + m * positions;
            v[at..at + positions].fill(value(block, g * maps_per_group + m));
        }
    }
    v
}

/// The weight vector aligned with [`conv_offset_pack`]'s ciphertext `t`
/// of group `g` at `taps_per_ct` taps per ciphertext: in tap `i`'s block,
/// `weight(map, offset i)` at every slot of each map's positions; zero in
/// blocks past the last tap.
pub fn conv_tap_weights(
    conv: &Conv2d,
    positions: usize,
    slots: usize,
    g: usize,
    t: usize,
    taps_per_ct: usize,
) -> Vec<f64> {
    let area = conv.kernel.0 * conv.kernel.1;
    per_map_block(conv, positions, slots, g, taps_per_ct, |block, map| {
        let i = t * taps_per_ct + block;
        if i >= conv.offset_count() {
            return 0.0;
        }
        let (ch, kh, kw) = (i / area, i % area / conv.kernel.1, i % conv.kernel.1);
        conv.weight(map, ch, kh, kw)
    })
}

/// The bias vector of group `g`, aligned with the conv output layout:
/// `bias[map]` at every position of each map's block, in each of
/// `taps_per_ct` tap blocks.
pub fn conv_bias_vector(
    conv: &Conv2d,
    positions: usize,
    slots: usize,
    g: usize,
    taps_per_ct: usize,
) -> Vec<f64> {
    per_map_block(conv, positions, slots, g, taps_per_ct, |_, map| conv.bias[map])
}

/// Output positions per map of a convolution over an input of `shape`.
pub(crate) fn conv_positions(conv: &Conv2d, shape: &[usize]) -> usize {
    let (oh, ow) = conv.output_size(shape[1], shape[2]);
    oh * ow
}

/// The slot values of a walk's operand handle (see [`Which`]).
pub(crate) fn operand_values(op: Operand<'_>) -> Vec<f64> {
    let src = op.src;
    if let (0, Layer::Conv(conv)) = (src.index, src.layer) {
        let positions = conv_positions(conv, src.shape);
        return match op.which {
            Which::Weights(g, t) => conv_tap_weights(conv, positions, src.slots, g, t, src.copies),
            Which::Bias(g) | Which::Mask(g) => {
                conv_bias_vector(conv, positions, src.slots, g, src.copies)
            }
        };
    }
    let mut v = vec![0.0; src.slots];
    match (src.layer, op.which) {
        (Layer::Scale(cs), which) => {
            let (m, per_channel) = match which {
                Which::Weights(m, _) => (m, &cs.factors),
                Which::Bias(m) | Which::Mask(m) => (m, &cs.shifts),
            };
            let per_map = src.shape[1] * src.shape[2];
            for (value, (ct, slot)) in src.input.placements(src.slots).into_iter().enumerate() {
                if ct == m {
                    v[slot] = per_channel[value / per_map];
                }
            }
        }
        // Round r computes outputs r·copies + s at slot s·seg: each one's
        // weights against the values ciphertext m holds.
        (_, Which::Weights(r, m)) => {
            let placements = src.input.placements(src.slots);
            for (s, k) in (r * src.copies..src.d_out).take(src.copies).enumerate() {
                for (value, &(ct, slot)) in placements.iter().enumerate() {
                    if ct == m {
                        v[s * src.seg + slot] = dense_weight(src, k, value);
                    }
                }
            }
        }
        (_, which @ (Which::Bias(r) | Which::Mask(r))) => {
            for (s, k) in (r * src.copies..src.d_out).take(src.copies).enumerate() {
                v[s * src.seg] = match which {
                    Which::Mask(_) => 1.0,
                    _ => dense_bias(src, k),
                };
            }
        }
    }
    v
}

/// A dense-like layer's weight from flattened input `v` to output `k`.
pub(crate) fn dense_weight(src: Source<'_>, k: usize, v: usize) -> f64 {
    match src.layer {
        Layer::Dense(d) => d.weight(k, v),
        Layer::Conv(conv) => conv_dense_weight(conv, src.shape, k, v),
        Layer::AvgPool(pool) => pool.dense_weight(src.shape, k, v),
        _ => 0.0,
    }
}

/// A dense-like layer's bias of output `k` (pooling has none).
pub(crate) fn dense_bias(src: Source<'_>, k: usize) -> f64 {
    match src.layer {
        Layer::Dense(d) => d.bias[k],
        Layer::Conv(conv) => conv.bias[k / conv_positions(conv, src.shape)],
        _ => 0.0,
    }
}

/// The slot vector that multiplies `rot(x, g·stride + b)` in a dense
/// layer planned by [`crate::plan_linear`] — the form
/// [`fxhenn_ckks::LinearTransform::new`] and
/// [`fxhenn_ckks::LinearSchedule::apply_plain`] take diagonals in.
pub(crate) fn linear_diagonal(
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
        (Layout::SingleContig { .. } | Layout::Replicated { .. }, &Layout::Blocked { m, seg, .. }) => {
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
    let (_, ow) = conv.output_size(h, w);
    let positions = conv_positions(conv, in_shape);
    let (map, oy, ox) = (k / positions, k % positions / ow, k % ow);
    let (c, y, x) = (v / (h * w), v % (h * w) / w, v % w);
    let (base_y, base_x) = (oy * conv.stride.0, ox * conv.stride.1);
    if y >= base_y && y < base_y + conv.kernel.0 && x >= base_x && x < base_x + conv.kernel.1 {
        conv.weight(map, c, y - base_y, x - base_x)
    } else {
        0.0
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Conv2d;

    /// Where a convolution's output values land (`Layout::MultiContig`).
    fn conv_output_layout(conv: &Conv2d, positions: usize, slots: usize) -> CtLayout {
        let (maps_per_group, groups) = conv_groups(conv, positions, slots);
        let layout = crate::lowering::Layout::MultiContig {
            n: conv.out_channels * positions,
            per_ct: maps_per_group * positions,
        };
        CtLayout::new(slots, groups, layout.placements(slots))
    }

    #[test]
    fn contiguous_layout_splits_across_cts() {
        let l = CtLayout::contiguous(10, 4);
        assert_eq!(l.ct_count(), 3);
        assert_eq!(l.placement(0), (0, 0));
        assert_eq!(l.placement(5), (1, 1));
        assert_eq!(l.placement(9), (2, 1));
        assert_eq!(l.len(), 10);
        assert!(!l.is_empty());
    }

    #[test]
    fn single_ct_contiguous_detection() {
        assert!(CtLayout::contiguous(8, 16).is_single_ct_contiguous());
        assert!(!CtLayout::contiguous(20, 16).is_single_ct_contiguous());
        assert!(!CtLayout::segmented(8, 2, 4, 16).is_single_ct_contiguous());
    }

    #[test]
    fn segmented_layout_places_on_segment_boundaries() {
        let l = CtLayout::segmented(10, 4, 8, 32);
        // value 5 = round 1, copy 1 -> ct 1, slot 8
        assert_eq!(l.placement(5), (1, 8));
        assert_eq!(l.placement(0), (0, 0));
        assert_eq!(l.placement(3), (0, 24));
        assert_eq!(l.ct_count(), 3);
        assert_eq!(l.span(), 25);
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let l = CtLayout::segmented(6, 2, 4, 8);
        let values: Vec<f64> = (0..6).map(|v| v as f64 + 0.5).collect();
        let cts = l.scatter(&values);
        assert_eq!(cts.len(), 3);
        assert_eq!(l.gather(&cts), values);
        // non-placement slots are zero
        assert_eq!(cts[0][1], 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate placement")]
    fn duplicate_placement_rejected() {
        CtLayout::new(8, 1, vec![(0, 3), (0, 3)]);
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(845), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    fn small_conv() -> Conv2d {
        // 2 maps, 1 channel, 2x2 kernel, stride 1
        Conv2d::new(
            2,
            1,
            (2, 2),
            (1, 1),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            vec![0.5, -0.5],
        )
    }

    #[test]
    fn offset_packing_replicates_per_map_and_aligns_weights() {
        let conv = small_conv();
        let input = Tensor::from_data(&[1, 3, 3], (1..=9).map(|v| v as f64).collect());
        let slots = 16; // positions = 4, 2 maps fit in one group
        let packed = conv_offset_pack(&input, &conv, slots, 1);
        assert_eq!(packed.len(), 1, "one group");
        assert_eq!(packed[0].len(), 4, "four kernel offsets");

        // Emulate the HE computation in plaintext: sum_i pack_i * w_i + b.
        let mut acc = conv_bias_vector(&conv, 4, slots, 0, 1);
        for (i, tap) in packed[0].iter().enumerate() {
            let weights = conv_tap_weights(&conv, 4, slots, 0, i, 1);
            for (a, (x, w)) in acc.iter_mut().zip(tap.iter().zip(&weights)) {
                *a += x * w;
            }
        }
        // Compare against the real conv.
        let expected = conv.forward(&input);
        let layout = conv_output_layout(&conv, 4, slots);
        let gathered = layout.gather(&[acc]);
        for (v, (&g, &e)) in gathered.iter().zip(expected.data()).enumerate() {
            assert!((g - e).abs() < 1e-12, "value {v}: {g} vs {e}");
        }
    }

    #[test]
    fn offset_packing_splits_groups_when_slots_small() {
        let conv = small_conv();
        let input = Tensor::from_data(&[1, 3, 3], (1..=9).map(|v| v as f64).collect());
        let slots = 4; // only one map per group
        let packed = conv_offset_pack(&input, &conv, slots, 1);
        assert_eq!(packed.len(), 2, "two groups");
        let layout = conv_output_layout(&conv, 4, slots);
        assert_eq!(layout.ct_count(), 2);
        assert_eq!(layout.placement(4), (1, 0), "map 1 starts in group 1");
    }

    #[test]
    fn multichannel_offsets_are_channel_major() {
        let conv = Conv2d::new(1, 2, (1, 1), (1, 1), vec![10.0, 20.0], vec![0.0]);
        let input = Tensor::from_data(&[2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let packed = conv_offset_pack(&input, &conv, 8, 1);
        assert_eq!(packed[0].len(), 2, "one offset per channel");
        // offset 0 = channel 0 pixels, offset 1 = channel 1 pixels
        assert_eq!(&packed[0][0][..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&packed[0][1][..4], &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "must fit in the slots")]
    fn oversized_positions_rejected() {
        let conv = small_conv();
        let input = Tensor::from_data(&[1, 5, 5], vec![0.0; 25]);
        conv_offset_pack(&input, &conv, 8, 1); // 16 positions > 8 slots
    }
}
