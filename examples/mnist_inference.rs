//! End-to-end encrypted inference, twice over:
//!
//! 1. **Functionally**, at a reduced ring degree: a miniature
//!    Cnv/Act/Fc/Act/Fc network is actually encrypted, run through the
//!    real RNS-CKKS evaluator, decrypted and checked against the
//!    plaintext forward pass.
//! 2. **At paper scale**, analytically: the full FxHENN-MNIST network is
//!    lowered, a design is generated for both ALINX boards, and the
//!    speedup/energy headlines versus LoLa's published CPU numbers are
//!    recomputed.
//!
//! Run with: `cargo run --release --example mnist_inference`

use fxhenn::ckks::CkksParams;
use fxhenn::nn::model::{synthetic_input, toy_mnist_like};
use fxhenn::sim::{cosimulate, lola_reference, Dataset};
use fxhenn::{generate_accelerator, FpgaDevice};

fn main() {
    // Part 1: real homomorphic execution at toy scale.
    println!("== Part 1: functional HE inference (N = 1024, toy network) ==");
    let net = toy_mnist_like(7);
    let image = synthetic_input(&net, 3);
    let report = cosimulate(&net, &image, CkksParams::insecure_toy(7), 1234);
    println!("plaintext logits: {:?}", round3(&report.expected));
    println!("decrypted logits: {:?}", round3(&report.actual));
    println!("max slot error:   {:.5}", report.max_error);
    println!("argmax agreement: {}", report.argmax_agrees);
    println!(
        "trace check:      measured {} HOPs vs planned {} HOPs, record for record: {}",
        report.measured.hop_count(),
        report.planned.hop_count(),
        report.trace_matches()
    );
    assert!(report.argmax_agrees, "encrypted classification must agree");

    // Part 2: paper-scale design generation.
    println!();
    println!("== Part 2: FxHENN-MNIST accelerator on both boards ==");
    let network = fxhenn::nn::fxhenn_mnist(42);
    let params = CkksParams::fxhenn_mnist();
    let lola = lola_reference(Dataset::Mnist);

    for device in [FpgaDevice::acu9eg(), FpgaDevice::acu15eg()] {
        let r = generate_accelerator(&network, &params, &device).expect("feasible design");
        let m = r.measured(&device);
        println!(
            "{:<8}: {:.3} s | {:.2}x speedup vs LoLa ({} s) | {:.0}x energy efficiency",
            device.name(),
            r.latency_s(),
            m.speedup_over(&lola),
            lola.latency_s,
            m.energy_efficiency_over(&lola),
        );
    }
    println!();
    println!("paper reference: 0.24 s / 0.19 s; 9.17x / 11.58x; 806.96x / 1019.04x");
}

fn round3(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
