//! What every workload gives the runner. The names a run prints are
//! mirrored by `BENCHMARK.json`; `tests/tiny.rs` holds the two together.

use crate::trace::Tracer;
use fxhenn::ckks::HeOpKind;
use fxhenn::obs::global;

/// The five workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "mnist_paper",
    "ct_matmul",
    "sign_relu",
    "serve_toy",
    "design_flow",
];

/// Layers of FxHENN-MNIST and of its toy twin, in execution order.
pub const NET_LAYERS: [&str; 5] = ["Cnv1", "Act1", "Fc1", "Act2", "Fc2"];

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many timings or counts the value summarises.
    pub samples: usize,
}

pub type Metrics = Vec<Metric>;

pub fn put(
    out: &mut Metrics,
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    samples: usize,
) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
        samples,
    });
}

/// The outcome of one closed-loop step of a workload.
#[derive(Default)]
pub struct OpReport {
    /// Operations or requests sent in this step.
    pub attempted: u64,
    /// Of those, how many failed, were refused or shed, or came back
    /// wrong. A failed operation contributes no latency sample.
    pub failed: u64,
    /// One latency per correct operation, in seconds.
    pub latencies_s: Vec<f64>,
    /// The part of this step that counts as timed wall (verification
    /// against the plaintext reference is outside it).
    pub wall_s: f64,
}

impl OpReport {
    /// A step that was a single operation.
    pub fn single(wall_s: f64, verdict: Result<(), String>, what: &str) -> Self {
        match verdict {
            Ok(()) => Self {
                attempted: 1,
                failed: 0,
                latencies_s: vec![wall_s],
                wall_s,
            },
            Err(why) => {
                eprintln!("{what}: FAILED: {why}");
                Self {
                    attempted: 1,
                    failed: 1,
                    latencies_s: Vec::new(),
                    wall_s,
                }
            }
        }
    }
}

/// Sizes of a run: the paper-scale shapes, or the `--tiny` smoke shapes
/// (N ≤ 1024, one or two operations each).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Full,
    Tiny,
}

pub trait Workload {
    /// Warm-up steps before the timed loop. Steps are numbered from 0,
    /// so a step with `index < warmup()` is a warm-up and leaves no
    /// sample behind.
    fn warmup(&self) -> u64;
    /// One closed-loop step; inputs derive from the seed and `index`.
    fn op(&mut self, index: u64, tr: &mut Tracer) -> OpReport;
    /// Fixed sizes of the workload, for the result file.
    fn counts(&self) -> Vec<(&'static str, f64)>;
    /// The per-layer metrics this workload owns, from the spans and
    /// stamps its traced steps left behind.
    fn layer_metrics(&mut self, tr: &mut Tracer, out: &mut Metrics);
}

/// Reads the evaluator's always-on per-kind telemetry (operation count
/// and busy nanoseconds in the process-global collector), so a workload
/// whose composite op suspends span logs still shows its constituents.
pub struct OpMeter {
    at_start: Vec<(u64, u64)>,
}

impl OpMeter {
    fn read() -> Vec<(u64, u64)> {
        HeOpKind::ALL
            .iter()
            .map(|k| {
                let h = global().histogram(&format!("fxhenn_he_op_latency_ns{{op=\"{k}\"}}"));
                (h.count(), h.sum())
            })
            .collect()
    }

    pub fn start() -> Self {
        Self {
            at_start: Self::read(),
        }
    }

    /// `(operations, busy seconds)` of `kind` since [`start`](Self::start).
    pub fn delta(&self, kind: HeOpKind) -> (u64, f64) {
        let now = Self::read()[kind.index()];
        let then = self.at_start[kind.index()];
        (now.0 - then.0, (now.1 - then.1) as f64 * 1e-9)
    }
}

/// Largest absolute difference between two equally long vectors;
/// infinite when a value is NaN, so no comparison lets one through.
pub fn max_abs_diff(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(
        got.len(),
        want.len(),
        "result and reference differ in length"
    );
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0, |worst, d| {
            if d.is_nan() {
                f64::INFINITY
            } else {
                d.max(worst)
            }
        })
}

/// Index of the largest value (ties and NaN resolved by `total_cmp`).
pub fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}
