//! Functional co-simulation: run a network homomorphically through the
//! real RNS-CKKS evaluator and check the decrypted logits against the
//! plaintext reference — the end-to-end correctness proof behind every
//! simulated latency number.

use crate::error::SimError;
use fxhenn_ckks::{CkksContext, CkksParams, Decryptor, Encryptor, KeyGenerator, OpTrace};
use fxhenn_nn::executor::{try_encrypt_input_for, HeCnnExecutor};
use fxhenn_nn::{try_lower_network, LoweringProfile, Network, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The outcome of a functional co-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimReport {
    /// Plaintext reference logits.
    pub expected: Vec<f64>,
    /// Decrypted homomorphic logits.
    pub actual: Vec<f64>,
    /// Largest absolute slot error.
    pub max_error: f64,
    /// True when plaintext and HE argmax agree (same classification).
    pub argmax_agrees: bool,
    /// The HE operations the homomorphic run executed.
    pub measured: OpTrace,
    /// The analytic lowering's program, as one trace.
    pub planned: OpTrace,
    /// Wall time of the homomorphic execution (keygen and encryption
    /// excluded), in nanoseconds.
    pub he_wall_nanos: u64,
}

impl CosimReport {
    /// True when the run executed the lowered program record for
    /// record: same operations, same levels, same order.
    pub fn trace_matches(&self) -> bool {
        self.measured == self.planned
    }
}

/// NaN-safe argmax: `total_cmp` gives a total order, so a NaN logit can
/// never panic the comparison (it sorts greatest and wins the argmax —
/// which then disagrees with the reference, flagging the fault).
fn argmax(v: &[f64]) -> Option<usize> {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
}

/// Runs `net` homomorphically on `image` at the given CKKS parameters
/// and compares against the plaintext forward pass. Lowering and
/// execution failures (level budget, slot overflow, non-finite weights,
/// noise exhaustion, missing keys) surface as typed [`SimError`]s.
///
/// Intended for toy ring degrees (`N ≤ 4096`); paper-scale networks take
/// hours in software, which is the very gap the accelerator closes.
pub fn try_cosimulate(
    net: &Network,
    image: &Tensor,
    params: CkksParams,
    seed: u64,
) -> Result<CosimReport, SimError> {
    let ctx = CkksContext::new(params);
    let prog = try_lower_network(net, ctx.degree(), ctx.max_level())?;

    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
    let pk = kg.public_key();
    let sk = kg.secret_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys_at(&prog.required_rotations());

    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(seed ^ 1));
    let faithful = LoweringProfile::PaperFaithful;
    let input = try_encrypt_input_for(net, image, &mut enc, ctx.degree() / 2, faithful)?;

    // The co-simulation is the executable witness of the lowering the
    // hardware model prices, so it runs that schedule, not the fast one.
    let mut exec = HeCnnExecutor::with_profile(&ctx, &rk, &gks, faithful);
    exec.start_trace();
    let he_started = std::time::Instant::now();
    let out = exec.try_run(net, &input)?;
    let he_wall_nanos = he_started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    // invariant: the trace was started a few lines up.
    let measured = exec.take_trace().expect("trace started");
    let g = fxhenn_obs::global();
    g.counter("fxhenn_cosim_runs_total").inc();
    g.histogram("fxhenn_cosim_latency_ns").observe(he_wall_nanos);

    let dec = Decryptor::new(&ctx, sk);
    let actual = out.decrypt(&dec);
    let expected = net.forward(image).into_data();

    let max_error = expected
        .iter()
        .zip(&actual)
        .map(|(&e, &a)| (e - a).abs())
        .fold(0.0f64, f64::max);
    Ok(CosimReport {
        argmax_agrees: argmax(&expected) == argmax(&actual),
        expected,
        actual,
        max_error,
        measured,
        planned: prog.total_trace(),
        he_wall_nanos,
    })
}

/// Runs a functional co-simulation.
///
/// # Panics
///
/// Panics if the network does not fit the parameter set (slots or level
/// budget); [`try_cosimulate`] returns these as typed errors instead.
pub fn cosimulate(net: &Network, image: &Tensor, params: CkksParams, seed: u64) -> CosimReport {
    try_cosimulate(net, image, params, seed).expect("co-simulation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxhenn_nn::{synthetic_input, toy_mnist_like};

    #[test]
    fn toy_network_cosimulates_correctly() {
        let net = toy_mnist_like(5);
        let image = synthetic_input(&net, 5);
        let report = cosimulate(&net, &image, CkksParams::insecure_toy(7), 99);
        assert!(
            report.max_error < 0.1,
            "max logit error = {}",
            report.max_error
        );
        assert!(report.argmax_agrees, "classification must agree");
        assert!(report.trace_matches(), "executed trace matches the plan");
        assert_eq!(report.expected.len(), 4);
        assert_eq!(report.actual.len(), 4);
        assert!(report.he_wall_nanos > 0, "HE wall time was measured");
        // The run bumped the global cosim telemetry.
        assert!(
            fxhenn_obs::global()
                .counters()
                .iter()
                .any(|(n, v)| n == "fxhenn_cosim_runs_total" && *v > 0)
        );
        assert!(
            fxhenn_obs::global()
                .histograms()
                .iter()
                .any(|(n, s)| n == "fxhenn_cosim_latency_ns" && s.count > 0)
        );
    }

    #[test]
    fn different_images_give_different_logits() {
        let net = toy_mnist_like(6);
        let a = cosimulate(
            &net,
            &synthetic_input(&net, 1),
            CkksParams::insecure_toy(7),
            7,
        );
        let b = cosimulate(
            &net,
            &synthetic_input(&net, 2),
            CkksParams::insecure_toy(7),
            7,
        );
        assert_ne!(a.expected, b.expected);
    }
}
