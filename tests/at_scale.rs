//! Paper-scale functional validation: the real FxHENN-MNIST network at
//! the real FxHENN-MNIST parameters (`N = 8192`, `L = 7`, 128-bit
//! security), executed homomorphically in software.
//!
//! These tests take minutes in release mode and are `#[ignore]`d by
//! default. Run them with:
//!
//! ```sh
//! cargo test --release --test at_scale -- --ignored --nocapture
//! ```
//!
//! Their wall-clock is itself a datum: it is the software-CPU cost the
//! FxHENN accelerator replaces (LoLa's published 2.2 s was on 8 vCPUs
//! with a heavily optimized BFV stack; our single-threaded from-scratch
//! CKKS is slower still — which is precisely the gap the paper's FPGA
//! closes to 0.24 s).

use fxhenn::ckks::{CkksContext, CkksParams, Decryptor, Encryptor, KeyGenerator};
use fxhenn::nn::executor::{try_encrypt_input_for, HeCnnExecutor};
use fxhenn::nn::{fxhenn_mnist, lower_network, synthetic_input, LoweringProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

#[test]
#[ignore = "paper-scale run: minutes in release mode"]
fn full_mnist_inference_at_paper_parameters() {
    let net = fxhenn_mnist(1);
    let params = CkksParams::fxhenn_mnist();
    let ctx = CkksContext::new(params);
    let prog = lower_network(&net, ctx.degree(), ctx.max_level());

    let t_keys = Instant::now();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1));
    let pk = kg.public_key();
    let sk = kg.secret_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&prog.required_rotations());
    println!(
        "keygen: {:.1} s ({} rotation keys)",
        t_keys.elapsed().as_secs_f64(),
        gks.len()
    );

    let image = synthetic_input(&net, 3);
    let expected = net.forward(&image);

    let t_enc = Instant::now();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(2));
    // Compared with `prog` below: pack for and run the schedule it
    // describes.
    let faithful = LoweringProfile::PaperFaithful;
    let input = try_encrypt_input_for(&net, &image, &mut enc, ctx.degree() / 2, faithful)
        .expect("the image packs");
    println!("encrypt (25 ciphertexts): {:.1} s", t_enc.elapsed().as_secs_f64());

    let t_inf = Instant::now();
    let mut exec = HeCnnExecutor::with_profile(&ctx, &rk, &gks, faithful);
    exec.start_trace();
    let out = exec.run(&net, &input);
    let trace = exec.take_trace().expect("traced");
    let inference_s = t_inf.elapsed().as_secs_f64();
    println!(
        "software HE inference: {inference_s:.1} s for {} HOPs ({} KS) — \
         the accelerator's simulated 0.217 s replaces exactly this work",
        trace.hop_count(),
        trace.key_switch_count()
    );
    assert_eq!(trace.hop_count(), prog.hop_count(), "trace matches plan");

    let dec = Decryptor::new(&ctx, sk);
    let got = out.decrypt(&dec);
    assert_eq!(got.len(), 10);
    let max_err = expected
        .data()
        .iter()
        .zip(&got)
        .map(|(&e, &g)| (e - g).abs())
        .fold(0.0f64, f64::max);
    println!("max logit error at N=8192: {max_err:.6}");
    assert!(max_err < 0.05, "paper-scale inference must stay accurate");
    let argmax = |v: &[f64]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty")
    };
    assert_eq!(argmax(&got), expected.argmax(), "classification agrees");
}

#[test]
#[ignore = "paper-scale keyswitch microbenchmark: ~a minute in release"]
fn keyswitch_cost_dominates_at_paper_scale() {
    // One rotation at N = 8192 / L = 7 versus one CCadd: the >10x gap is
    // the entire motivation for the paper's KeySwitch-centric DSE.
    use fxhenn::ckks::Evaluator;
    let ctx = CkksContext::new(CkksParams::fxhenn_mnist());
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(4));
    let pk = kg.public_key();
    let gks = kg.galois_keys(&[1]);
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(5));
    let mut ev = Evaluator::new(&ctx);
    let ct = enc.encrypt(&[1.0; 64]);

    let t_add = Instant::now();
    for _ in 0..10 {
        let _ = ev.add(&ct, &ct);
    }
    let add_ms = t_add.elapsed().as_secs_f64() * 100.0;

    let t_rot = Instant::now();
    for _ in 0..10 {
        let _ = ev.rotate(&ct, 1, &gks);
    }
    let rot_ms = t_rot.elapsed().as_secs_f64() * 100.0;

    println!("CCadd: {add_ms:.2} ms, Rotate: {rot_ms:.2} ms ({:.1}x)", rot_ms / add_ms);
    assert!(
        rot_ms > 5.0 * add_ms,
        "KeySwitch must dominate: {rot_ms:.2} vs {add_ms:.2} ms"
    );
}
