//! Schedule-independence of the always-on telemetry counters.
//!
//! This lives in its own integration-test binary (own process, own
//! global collector) so no concurrently running test can advance the
//! `fxhenn_he_ops_total` counters between the snapshots below.

use fxhenn_ckks::{
    register_he_metrics, CkksContext, CkksParams, Encryptor, Evaluator, HeOpKind, KeyGenerator,
};
use fxhenn_math::par::{with_parallelism, Parallelism};
use fxhenn_obs::global;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn global_op_counters_agree_serial_vs_threaded() {
    // One chain = one CCmult, one Relinearize, one Rescale, one Rotate,
    // one Conjugate: the counter deltas must be exactly that under any
    // thread schedule.
    let params = CkksParams::new(512, 3, 30, 45).expect("valid params");
    let ctx = CkksContext::new(params);
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(7));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&[1]);
    let cjk = kg.conjugation_key();
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(8));
    let ct_a = enc.encrypt(&[1.0, -2.0, 0.5]);
    let ct_b = enc.encrypt(&[0.25, 3.0, -1.0]);

    let run_chain = || {
        let mut ev = Evaluator::new(&ctx);
        let tri = ev.mul(&ct_a, &ct_b).unwrap();
        let lin = ev.relinearize(&tri, &rk).unwrap();
        let rs = ev.rescale(&lin).unwrap();
        let _ = ev.rotate(&rs, 1, &gks).unwrap();
        let _ = ev.conjugate(&rs, &cjk).unwrap();
    };

    register_he_metrics();
    let snapshot = || -> Vec<(String, u64)> {
        global()
            .counters()
            .into_iter()
            .filter(|(name, _)| name.starts_with("fxhenn_he_ops_total"))
            .collect()
    };

    let before = snapshot();
    with_parallelism(Parallelism::Serial, run_chain);
    let after_serial = snapshot();
    // Threshold 0 forces the dispatcher to genuinely spawn workers for
    // work below the fixed spawn floor.
    fxhenn_math::par::with_dispatch_threshold(0, || {
        with_parallelism(Parallelism::Threads(3), run_chain)
    });
    let after_threaded = snapshot();

    let delta = |a: &[(String, u64)], b: &[(String, u64)]| -> Vec<(String, u64)> {
        b.iter()
            .map(|(name, v)| {
                let prev = a.iter().find(|(n, _)| n == name).map_or(0, |(_, p)| *p);
                (name.clone(), v - prev)
            })
            .collect()
    };
    let serial_delta = delta(&before, &after_serial);
    let threaded_delta = delta(&after_serial, &after_threaded);
    assert_eq!(
        serial_delta, threaded_delta,
        "per-op counter deltas must not depend on the schedule"
    );
    for kind in [
        HeOpKind::CcMult,
        HeOpKind::Relinearize,
        HeOpKind::Rescale,
        HeOpKind::Rotate,
        HeOpKind::Conjugate,
    ] {
        let name = format!("fxhenn_he_ops_total{{op=\"{kind}\"}}");
        let d = serial_delta
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v);
        assert_eq!(d, Some(1), "{name} must count exactly one op per chain");
    }
    // The latency histograms observed the same five ops.
    for (name, h) in global().histograms() {
        if let Some(op) = name.strip_prefix("fxhenn_he_op_latency_ns{op=\"") {
            let op = op.trim_end_matches("\"}");
            let expected = match op {
                "CCmult" | "Relinearize" | "Rescale" | "Rotate" | "Conjugate" => 2,
                _ => 0,
            };
            assert_eq!(h.count, expected, "{name} observation count");
        }
    }
}
