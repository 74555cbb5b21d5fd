//! A tour of LoLa-style ciphertext packing: how a convolution collapses
//! into one PCmult/CCadd/Rescale loop (the paper's Listing 1), how a
//! dense layer becomes stacked rotate-and-sum rounds, and what each
//! choice costs in HE operations.
//!
//! Run with: `cargo run --release --example packing_tour`

use fxhenn::ckks::HeOpKind;
use fxhenn::nn::lowering::plan_dense;
use fxhenn::nn::packing::{conv_offset_pack, CtLayout};
use fxhenn::nn::{fxhenn_mnist, lower_network, Layer, Layout, Tensor};

fn main() {
    let net = fxhenn_mnist(42);
    let slots = 4096; // N = 8192

    // --- Offset packing of the first convolution ---
    println!("== Conv offset packing (Listing 1) ==");
    let Layer::Conv(conv) = &net.layers()[0].1 else {
        unreachable!("MNIST starts with a conv");
    };
    let image = Tensor::zeros(&[1, 29, 29]);
    let packed = conv_offset_pack(&image, conv, slots, 1);
    println!(
        "kernel 5x5 -> {} offset ciphertexts per group, {} group(s)",
        packed[0].len(),
        packed.len()
    );
    println!(
        "each holds one input pixel per output position, replicated for {} maps",
        conv.out_channels
    );
    // The optimized client fills the 845-of-4096 slots with more taps:
    // four 1024-slot blocks per ciphertext.
    let blocks = conv_offset_pack(&image, conv, slots, 4);
    println!("in tap blocks of 4 -> {} ciphertexts", blocks[0].len());

    // --- The stacked dense plan for Fc1 ---
    println!();
    println!("== Stacked dense lowering (Fc1: 845 -> 100) ==");
    let plan = plan_dense(&Layout::SingleContig { n: 845 }, 100, slots);
    println!(
        "segment = {} slots (845 padded), copies = {}, rounds = {}",
        plan.seg, plan.copies, plan.rounds
    );
    println!(
        "stack shifts: {:?} (replicate input into {} copies)",
        plan.stack_shifts, plan.copies
    );
    println!(
        "rotate-and-sum shifts per round: {:?} ({} rotations)",
        plan.sum_shifts,
        plan.sum_shifts.len()
    );
    println!("consolidation: {}", plan.consolidate);

    // --- Segmented output layout ---
    println!();
    println!("== Output slot layout ==");
    let layout = CtLayout::segmented(100, plan.copies, plan.seg, slots);
    for v in [0usize, 1, 4, 5, 99] {
        let (ct, slot) = layout.placement(v);
        println!("  output {v:>2} -> ciphertext {ct}, slot {slot}");
    }

    // --- Full network HOP accounting ---
    println!();
    println!("== HE operation accounting (Table IV flavor) ==");
    let prog = lower_network(&net, 8192, 7);
    println!(
        "{:<6} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "layer", "HOPs", "PCmult", "CCadd", "Rescale", "Rotate", "Relin"
    );
    for plan in &prog.layers {
        println!(
            "{:<6} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}",
            plan.name,
            plan.hop_count(),
            plan.trace.count_of(HeOpKind::PcMult),
            plan.trace.count_of(HeOpKind::CcAdd),
            plan.trace.count_of(HeOpKind::Rescale),
            plan.trace.count_of(HeOpKind::Rotate),
            plan.trace.count_of(HeOpKind::Relinearize),
        );
    }
    println!(
        "total: {} HOPs, {} KeySwitches (paper Table VII: 826 HOPs, 280 KS)",
        prog.hop_count(),
        prog.key_switch_count()
    );
}
