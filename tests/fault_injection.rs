//! Fault-injection harness: every corrupted artifact on the inference
//! path — wire blobs, keys, model weights, traces, device budgets —
//! must surface as a *typed error*, never a panic and never a silently
//! wrong answer (checked by co-simulating against the plaintext
//! reference).
//!
//! Fault classes covered:
//!  1. truncated ciphertext / key blobs (every prefix length);
//!  2. bit-flipped ciphertext blobs;
//!  3. bit-flipped key blobs;
//!  4. malformed trace: BRAM grant vector out of step with the program;
//!  5. malformed network: no convolution front end for LoLa packing;
//!  6. level underflow: model deeper than the parameter set's budget;
//!  7. NaN weights and NaN input pixels;
//!  8. noise-budget exhaustion from mis-scaled weights;
//!  9. infeasible DSE budgets (DSP- and BRAM-bound);
//! 10. impossible device/module descriptions;
//! 11. hang-class: an artificially delayed limb kernel slows every HE
//!     op — a deadline budget must surface a typed `Cancelled` within
//!     2x the deadline;
//! 12. hang-class: a simulated module station that never completes —
//!     the budgeted simulator must stop instead of wedging.
//!
//! The hang-class tests run under a watchdog thread so a regression
//! fails the suite instead of hanging it.

use fxhenn::ckks::wire::{
    decode_ciphertext_v2, decode_relin_key_v2, encode_ciphertext_v2, encode_relin_key_v2,
};
use fxhenn::ckks::{CkksContext, CkksParams, Decryptor, Encryptor, EvalError, KeyGenerator};
use fxhenn::dse::{
    try_explore_fully_buffered_with_bram_cap, BindingConstraint, DseError, Relaxation,
};
use fxhenn::hw::{FpgaDevice, ModelError, ModuleConfig};
use fxhenn::nn::executor::try_encrypt_input;
use fxhenn::nn::{
    synthetic_input, toy_mnist_like, try_lower_network, Dense, ExecError, Layer, LowerError,
    Network,
};
use fxhenn::sim::faults::{amplify_weights, flip_bit, poison_first_weight, truncate_blob};
use fxhenn::sim::{try_cosimulate, try_simulate_with_grants, SimError};
use fxhenn::{generate_accelerator, FlowError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn toy_ctx() -> CkksContext {
    CkksContext::new(CkksParams::insecure_toy(3))
}

fn toy_ctx7() -> CkksContext {
    CkksContext::new(CkksParams::insecure_toy(7))
}

/// Control: with no fault injected, the toy network co-simulates
/// cleanly. Every silent-wrong-answer check below leans on this.
#[test]
fn healthy_cosimulation_is_the_baseline() {
    let net = toy_mnist_like(11);
    let image = synthetic_input(&net, 11);
    let report = try_cosimulate(&net, &image, CkksParams::insecure_toy(7), 11)
        .expect("no fault injected");
    assert!(report.argmax_agrees && report.max_error < 0.1);
}

// ---- fault class 1: truncated blobs ------------------------------------

#[test]
fn every_ciphertext_prefix_is_rejected_without_panic() {
    let ctx = toy_ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1));
    let pk = kg.public_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(2));
    let frame = encode_ciphertext_v2(&enc.encrypt(&[1.0, -2.0, 3.0]));
    let blob = frame.as_bytes();
    for keep in 0..blob.len() {
        let truncated = truncate_blob(blob, keep);
        assert!(
            decode_ciphertext_v2(&truncated).is_err(),
            "prefix of {keep}/{} bytes must not decode",
            blob.len()
        );
    }
}

#[test]
fn every_relin_key_prefix_is_rejected_without_panic() {
    let ctx = toy_ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(3));
    let frame = encode_relin_key_v2(&kg.relin_key());
    let blob = frame.as_bytes();
    for keep in 0..blob.len() {
        assert!(
            decode_relin_key_v2(&truncate_blob(blob, keep)).is_err(),
            "key prefix of {keep} bytes must not decode"
        );
    }
}

// ---- fault class 2: bit-flipped ciphertexts ----------------------------

#[test]
fn bit_flipped_ciphertexts_never_panic_and_never_pass_unnoticed() {
    let ctx = toy_ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(4));
    let pk = kg.public_key();
    let sk = kg.secret_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(5));
    let ct = enc.encrypt(&[1.0, -2.0, 3.0]);
    let frame = encode_ciphertext_v2(&ct);
    let blob = frame.as_bytes();
    let dec = Decryptor::new(&ctx, sk);
    // Walk bit positions across the whole blob, header included.
    for bit in (0..blob.len() * 8).step_by(97) {
        let corrupted = flip_bit(blob, bit);
        match decode_ciphertext_v2(&corrupted) {
            // Structural damage: rejected with a typed error. Good.
            Err(_) => {}
            // Payload damage: the decode is shape-valid but the
            // ciphertext is not the one that was sent. Semantic
            // validation against the context — on the view, as the serve
            // path runs it, and on the owned copy — must either reject it
            // with a typed error, or pass it through to a panic-free
            // decrypt.
            Ok(view) => {
                let tampered = view.to_owned_ciphertext();
                assert_ne!(tampered, ct, "bit {bit}: flip must change the ciphertext");
                let checks = [
                    ctx.validate_ciphertext_view(&view),
                    ctx.validate_ciphertext(&tampered),
                ];
                assert_eq!(checks[0], checks[1], "bit {bit}: view and owned checks differ");
                match &checks[0] {
                    Err(EvalError::CorruptCiphertext { .. }) => {}
                    Err(other) => panic!("bit {bit}: unexpected error {other}"),
                    Ok(()) => {
                        let _ = dec.decrypt(&tampered); // must not panic
                    }
                }
            }
        }
    }
}

// ---- fault class 3: bit-flipped keys -----------------------------------

#[test]
fn bit_flipped_relin_keys_never_panic() {
    let ctx = toy_ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(6));
    let rk = kg.relin_key();
    let frame = encode_relin_key_v2(&rk);
    let blob = frame.as_bytes();
    for bit in (0..blob.len() * 8).step_by(131) {
        match decode_relin_key_v2(&flip_bit(blob, bit)) {
            Err(_) => {}
            // RelinKey has no PartialEq; compare canonical encodings.
            Ok(view) => assert_ne!(
                encode_relin_key_v2(&view.to_owned_relin_key()).as_bytes(),
                blob,
                "bit {bit}"
            ),
        }
    }
}

// ---- fault class 4: malformed trace (grant vector) ---------------------

#[test]
fn grant_vector_mismatch_is_a_typed_error() {
    let net = toy_mnist_like(7);
    let prog = try_lower_network(&net, 8192, 7).expect("toy net lowers");
    let err = try_simulate_with_grants(
        &prog,
        &fxhenn::dse::DesignPoint::minimal(),
        &FpgaDevice::acu9eg(),
        30,
        &[64], // program has more layers than grants
    )
    .unwrap_err();
    assert!(
        matches!(err, SimError::GrantCountMismatch { got: 1, .. }),
        "{err}"
    );
    assert!(err.to_string().contains("one BRAM grant per layer"));
}

// ---- fault class 5: malformed network (no conv front end) --------------

#[test]
fn network_without_conv_front_end_is_rejected_everywhere() {
    let dense_first = Network::new(
        "DenseFirst",
        &[16],
        vec![(
            "Fc".into(),
            Layer::Dense(Dense::new(4, 16, vec![0.01; 64], vec![0.0; 4])),
        )],
    );
    let err = try_lower_network(&dense_first, 1024, 3).unwrap_err();
    assert_eq!(err, LowerError::FirstLayerNotConv);

    let ctx = toy_ctx();
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(8));
    let pk = kg.public_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(9));
    let image = fxhenn::nn::Tensor::from_data(&[16], vec![0.5; 16]);
    let err = try_encrypt_input(&dense_first, &image, &mut enc, ctx.degree() / 2).unwrap_err();
    assert_eq!(err, ExecError::Lower(LowerError::FirstLayerNotConv));
}

// ---- fault class 6: level underflow ------------------------------------

#[test]
fn level_underflow_is_a_typed_error_with_layer_context() {
    let net = toy_mnist_like(9);
    let err = try_lower_network(&net, 8192, 2).unwrap_err();
    match &err {
        LowerError::LevelBudgetExhausted { layer, max_level } => {
            assert_eq!(*max_level, 2);
            assert!(!layer.is_empty(), "error names the offending layer");
        }
        other => panic!("expected level underflow, got {other}"),
    }
    // And through the co-simulation entry point it wraps as SimError.
    let image = synthetic_input(&net, 9);
    let err = try_cosimulate(&net, &image, CkksParams::insecure_toy(2), 9).unwrap_err();
    assert!(matches!(
        err,
        SimError::Lower(LowerError::LevelBudgetExhausted { .. })
    ));
}

// ---- fault class 7: NaN weights and NaN inputs -------------------------

#[test]
fn nan_weights_surface_as_typed_error_not_wrong_logits() {
    let mut net = toy_mnist_like(5);
    assert!(poison_first_weight(&mut net, f64::NAN));
    let image = synthetic_input(&net, 5);
    let err = try_cosimulate(&net, &image, CkksParams::insecure_toy(7), 5).unwrap_err();
    match &err {
        SimError::Exec(e) => {
            assert!(
                matches!(
                    e.eval_source(),
                    Some(fxhenn::ckks::EvalError::NonFiniteValue { .. })
                ),
                "{e}"
            );
        }
        other => panic!("expected an execution error, got {other}"),
    }
}

#[test]
fn nan_input_pixel_is_rejected_at_encryption() {
    let net = toy_mnist_like(5);
    let mut image = synthetic_input(&net, 5);
    image.data_mut()[0] = f64::NAN;
    let err = try_cosimulate(&net, &image, CkksParams::insecure_toy(7), 5).unwrap_err();
    assert!(matches!(err, SimError::Exec(_)), "{err}");
}

// ---- fault class 8: noise-budget exhaustion ----------------------------

#[test]
fn mis_scaled_weights_exhaust_the_noise_budget_with_context() {
    let mut net = toy_mnist_like(5);
    amplify_weights(&mut net, 1e60);
    let image = synthetic_input(&net, 5);
    let err = try_cosimulate(&net, &image, CkksParams::insecure_toy(7), 5).unwrap_err();
    // The evaluator's per-op floor usually refuses the operation first
    // (wrapped with the layer name); the executor's layer-boundary
    // check is the fallback. Either way the failure is typed, carries
    // context, and reports a non-positive budget.
    match &err {
        SimError::Exec(ExecError::NoiseBudgetExhausted {
            layer,
            op,
            budget_bits,
        }) => {
            assert!(!layer.is_empty() && !op.is_empty());
            assert!(*budget_bits <= 0.0, "{budget_bits}");
        }
        SimError::Exec(exec_err) => match exec_err.eval_source() {
            Some(fxhenn::ckks::EvalError::NoiseBudgetExhausted { budget_bits, .. }) => {
                assert!(*budget_bits <= 0.0, "{budget_bits}");
            }
            other => panic!("expected noise-budget exhaustion, got {other:?}"),
        },
        other => panic!("expected noise-budget exhaustion, got {other}"),
    }
}

// ---- fault class 9: infeasible DSE budgets -----------------------------

#[test]
fn dsp_starved_device_yields_diagnosed_flow_error() {
    let net = fxhenn::nn::fxhenn_mnist(1);
    let params = CkksParams::fxhenn_mnist();
    let starved = FpgaDevice::new("starved", 100, 912, 0, 250.0, 10.0);
    let err = generate_accelerator(&net, &params, &starved).unwrap_err();
    match &err {
        FlowError::NoFeasibleDesign {
            device,
            diagnosis: Some(d),
        } => {
            assert_eq!(device, "starved");
            assert!(matches!(d.binding, BindingConstraint::Dsp { .. }), "{d}");
            assert!(
                matches!(d.relaxation, Some(Relaxation::RaiseDsp { .. })),
                "{d}"
            );
        }
        other => panic!("expected a diagnosed infeasibility, got {other}"),
    }
}

#[test]
fn bram_starved_budget_yields_bram_diagnosis() {
    let net = fxhenn::nn::fxhenn_mnist(1);
    let prog = try_lower_network(&net, 8192, 7).expect("mnist lowers");
    let err = try_explore_fully_buffered_with_bram_cap(&prog, &FpgaDevice::acu9eg(), 30, 400)
        .unwrap_err();
    match &err {
        DseError::Infeasible(d) => {
            assert!(matches!(d.binding, BindingConstraint::Bram { .. }), "{d}");
            assert!(
                matches!(d.relaxation, Some(Relaxation::RaiseBramBudget { .. })),
                "{d}"
            );
        }
        other => panic!("expected a BRAM diagnosis, got {other}"),
    }
}

// ---- fault class 10: impossible device/module descriptions -------------

#[test]
fn impossible_devices_and_modules_are_typed_errors() {
    assert_eq!(
        FpgaDevice::try_new("x", 0, 100, 0, 250.0, 10.0).unwrap_err(),
        ModelError::NoDspSlices
    );
    assert_eq!(
        FpgaDevice::try_new("x", 100, 0, 0, 250.0, 10.0).unwrap_err(),
        ModelError::NoBramBlocks
    );
    assert!(matches!(
        FpgaDevice::try_new("x", 100, 100, 0, 0.0, 10.0).unwrap_err(),
        ModelError::NonPositiveRate { what: "clock", .. }
    ));
    let bad_nc = ModuleConfig {
        nc_ntt: 3,
        p_intra: 1,
        p_inter: 1,
    };
    assert_eq!(
        bad_nc.try_validate().unwrap_err(),
        ModelError::BadNttCores { nc_ntt: 3 }
    );
}

// ---- fault classes 11/12: hang-class (slow kernel, stalled station) ----

/// Runs `f` on a worker thread; a result that does not arrive within
/// `limit` fails the test instead of wedging the suite.
fn under_watchdog<R: Send + 'static>(
    limit: std::time::Duration,
    f: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("hang-class fault wedged the test past {limit:?}"));
    handle.join().expect("worker panicked");
    out
}

/// The `BudgetStop` carried by a cancelled (co-)simulation, wherever
/// the gate fired: a layer boundary, an HE op inside a layer, or the
/// simulator itself.
fn stop_of(err: &SimError) -> &fxhenn::math::budget::BudgetStop {
    match err {
        SimError::Cancelled(stop) => stop,
        SimError::Exec(ExecError::Cancelled(stop)) => stop,
        SimError::Exec(ExecError::Eval {
            source: EvalError::Cancelled(stop),
            ..
        }) => stop,
        other => panic!("expected a budget cancellation, got {other}"),
    }
}

#[test]
fn delayed_limb_kernel_is_cancelled_within_twice_the_deadline() {
    use fxhenn::math::budget::{with_budget, Budget};
    use fxhenn::math::par::with_limb_delay;
    use fxhenn::nn::executor::HeCnnExecutor;
    use std::time::Duration;

    let deadline = Duration::from_millis(100);
    let err = under_watchdog(Duration::from_secs(60), move || {
        // Setup (keygen, input encryption) runs at full speed; only
        // the inference itself is slowed and budgeted.
        let net = toy_mnist_like(13);
        let image = synthetic_input(&net, 13);
        let ctx = toy_ctx7();
        let prog = try_lower_network(&net, ctx.degree(), ctx.max_level()).expect("lowers");
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(13));
        let pk = kg.public_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&prog.required_rotations());
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(14));
        let input =
            try_encrypt_input(&net, &image, &mut enc, ctx.degree() / 2).expect("packs");
        let mut exec = HeCnnExecutor::new(&ctx, &rk, &gks);
        // Every limb-parallel scheduling point charges 2 ms to the
        // budget clock: the HE execution that normally finishes well
        // under the deadline now crawls, and the per-op budget gate must
        // stop it. The delay is not slept, so where it stops does not
        // depend on the kernels' speed or the host's load.
        with_limb_delay(Duration::from_millis(2), || {
            with_budget(&Budget::with_deadline(deadline), || {
                exec.try_run(&net, &input)
                    .expect_err("a crawling inference must not complete in time")
            })
        })
    });
    let stop = match &err {
        ExecError::Cancelled(stop) => stop,
        ExecError::Eval {
            source: EvalError::Cancelled(stop),
            ..
        } => stop,
        other => panic!("expected a budget cancellation, got {other}"),
    };
    assert!(
        stop.elapsed >= deadline,
        "stop fired before the deadline: {:?}",
        stop.elapsed
    );
    assert!(
        stop.elapsed < deadline * 2,
        "typed Cancelled must arrive within 2x the deadline, took {:?}",
        stop.elapsed
    );
}

#[test]
fn stalled_station_is_cancelled_not_wedged() {
    use fxhenn::math::budget::{with_budget, Budget};
    use fxhenn::sim::faults::with_station_stall;
    use std::time::Duration;

    let deadline = Duration::from_millis(50);
    let err = under_watchdog(Duration::from_secs(60), move || {
        let net = toy_mnist_like(17);
        let prog = try_lower_network(&net, 8192, 7).expect("toy net lowers");
        // Every simulated station claim stalls 5 ms: with thousands of
        // trace records the simulation would effectively never finish.
        with_station_stall(Duration::from_millis(5), || {
            with_budget(&Budget::with_deadline(deadline), || {
                fxhenn::sim::try_simulate(
                    &prog,
                    &fxhenn::dse::DesignPoint::minimal(),
                    &FpgaDevice::acu9eg(),
                    30,
                )
                .expect_err("a stalled station must not complete")
            })
        })
    });
    let stop = stop_of(&err);
    assert!(stop.phase.starts_with("sim-"), "phase = {}", stop.phase);
    assert!(
        stop.elapsed < deadline * 2,
        "typed Cancelled must arrive within 2x the deadline, took {:?}",
        stop.elapsed
    );
}
