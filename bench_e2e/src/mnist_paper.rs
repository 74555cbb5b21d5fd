//! `mnist_paper`: FxHENN-MNIST at the paper's parameters (N = 8192,
//! L = 7), one client, one request at a time — the paper's number.

use crate::infer::{Model, Served};
use crate::probes;
use crate::trace::{median, Tracer};
use crate::workload::{put, Metrics, OpReport, Shape, Workload, NET_LAYERS};
use fxhenn::ckks::{CkksParams, HeOpKind};
use fxhenn::nn::{fxhenn_mnist, toy_mnist_like, Tensor};
use fxhenn::obs::attribution_rows;
use fxhenn::{generate_accelerator, FpgaDevice};
use std::time::{Duration, Instant};

/// The noise floor `mnist_paper` hands the executor. At the default
/// floor (0 bits) the evaluator's estimate refuses the run at Act2
/// ("noise budget exhausted"), although the result decrypts to a logit
/// error near 1e-5: the estimate is sound but not tight. The benchmark
/// lowers the floor so the paper's network runs, and reports the
/// estimate (`nn.est_budget_end_bits`) beside the measured error.
pub const MNIST_PAPER_NOISE_FLOOR_BITS: f64 = -16.0;

/// Op kinds the FxHENN-MNIST program executes; the others would read a
/// constant zero.
const BUSY_KINDS: [HeOpKind; 7] = [
    HeOpKind::CcAdd,
    HeOpKind::PcAdd,
    HeOpKind::PcMult,
    HeOpKind::CcMult,
    HeOpKind::Rescale,
    HeOpKind::Relinearize,
    HeOpKind::Rotate,
];

/// Stages of one request, in order; with the network's layers (spans
/// named [`LAYER_SPAN`]`<layer>`, which stand in for `nn.try_run`) they
/// must sum to the request wall within [`STAGE_SUM_TOLERANCE`].
const STAGES: [&str; 5] = [
    "nn.encrypt_input",
    "core.wire.push_frames",
    "core.wire.ingest",
    "core.wire.respond",
    "nn.decrypt_output",
];
const LAYER_SPAN: &str = "nn.layer.";
const STAGE_SUM_TOLERANCE: f64 = 0.02;
/// Name of the span that covers one whole request.
const REQUEST: &str = "mnist_paper.request";

pub struct MnistPaper {
    model: Model,
    cache_generate_s: f64,
    cache_verify_s: f64,
    seed: u64,
    shape: Shape,
    /// Latencies of correct requests, split by whether tracing was on.
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    /// What the last traced request left behind.
    last: Option<Served>,
    wire_bytes: usize,
    max_abs_err: f64,
    stage_sum_failures: u64,
}

impl MnistPaper {
    pub fn setup(seed: u64, shape: Shape) -> Result<Self, String> {
        let (net, params, floor) = match shape {
            Shape::Full => (
                fxhenn_mnist(seed),
                CkksParams::fxhenn_mnist(),
                MNIST_PAPER_NOISE_FLOOR_BITS,
            ),
            Shape::Tiny => (toy_mnist_like(seed), CkksParams::insecure_toy(7), 0.0),
        };
        let (model, times) = Model::build(net, params, seed, floor)?;
        Ok(Self {
            model,
            cache_generate_s: times.generate_s,
            cache_verify_s: times.verify_s,
            seed,
            shape,
            traced_s: Vec::new(),
            untraced_s: Vec::new(),
            last: None,
            wire_bytes: 0,
            max_abs_err: 0.0,
            stage_sum_failures: 0,
        })
    }

    /// One request, start to decrypted logits. Returns the request wall
    /// and the logits.
    fn request(
        &mut self,
        index: u64,
        image: &Tensor,
        tr: &mut Tracer,
    ) -> (f64, Result<Vec<f64>, String>) {
        let started = Instant::now();
        let root = tr.enter(REQUEST, index);
        let logits = (|| {
            let span = tr.enter("nn.encrypt_input", index);
            let input = self
                .model
                .encrypt(image, self.seed ^ index.wrapping_mul(0x9E37_79B9))?;
            tr.exit(span);

            let span = tr.enter("core.wire.push_frames", index);
            let request = Model::frame_request(&input);
            drop(input);
            tr.exit(span);

            let served = self.model.serve(request.as_bytes(), tr.enabled())?;
            tr.add_child(
                root,
                "core.wire.ingest",
                index,
                served.start,
                served.ingested,
            );
            let run = tr.add_child(root, "nn.try_run", index, served.ingested, served.ran);
            // The program logs how long each layer took, not when: the
            // layers run back to back, so each starts where the last ended.
            let mut at = served.ingested;
            for layer in served.layer_spans.iter().flat_map(|log| log.spans()) {
                let end = at + Duration::from_nanos(layer.nanos);
                tr.add_child(run, &format!("{LAYER_SPAN}{}", layer.label), index, at, end);
                at = end;
            }
            tr.add_child(root, "core.wire.respond", index, served.ran, served.done);
            self.wire_bytes = request.len() + served.response.len();

            let span = tr.enter("nn.decrypt_output", index);
            let logits = self
                .model
                .decrypt(served.response.as_bytes(), &served.layout)?;
            tr.exit(span);
            if tr.enabled() {
                self.last = Some(served);
            }
            Ok(logits)
        })();
        // On an early error the stage span is still open; close it so
        // the request span can close.
        while tr.innermost() != root {
            tr.exit(tr.innermost());
        }
        tr.exit(root);
        (started.elapsed().as_secs_f64(), logits)
    }

    /// Σ stage and layer spans of request `index` against its wall, as a
    /// share.
    fn stage_gap(tr: &Tracer, index: u64) -> Option<f64> {
        let sum_of = |wanted: &dyn Fn(&str) -> bool| {
            tr.spans()
                .iter()
                .filter(|s| s.request == index && wanted(&s.name))
                .map(|s| s.seconds())
                .sum::<f64>()
        };
        let wall = sum_of(&|name| name == REQUEST);
        if wall == 0.0 {
            return None;
        }
        let stages = sum_of(&|name| STAGES.contains(&name) || name.starts_with(LAYER_SPAN));
        Some(((wall - stages) / wall).abs())
    }
}

impl Workload for MnistPaper {
    fn warmup(&self) -> u64 {
        1
    }

    fn op(&mut self, index: u64, tr: &mut Tracer) -> OpReport {
        // A traced run leaves tracing off for every other request, so
        // the two halves give the tracing overhead from one process.
        let tracing = tr.enabled();
        tr.set_enabled(tracing && index % 2 == 1);
        let image = self.model.image(self.seed.wrapping_add(index));
        let (wall_s, logits) = self.request(index, &image, tr);
        let traced_request = tr.enabled();
        tr.set_enabled(tracing);

        let mut verdict = logits.and_then(|got| self.model.check(&got, &image));
        if traced_request {
            match Self::stage_gap(tr, index) {
                Some(gap) if gap > STAGE_SUM_TOLERANCE && verdict.is_ok() => {
                    self.stage_sum_failures += 1;
                    verdict = Err(format!(
                        "stage spans differ from the request wall by {:.2} %",
                        gap * 100.0
                    ));
                }
                _ => {}
            }
        }
        let verdict = verdict.map(|err| {
            self.max_abs_err = self.max_abs_err.max(err);
            if index < self.warmup() {
            } else if traced_request {
                self.traced_s.push(wall_s);
            } else {
                self.untraced_s.push(wall_s);
            }
        });
        OpReport::single(wall_s, verdict, "mnist_paper request")
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ring_degree", self.model.ctx.degree() as f64),
            ("levels", self.model.ctx.max_level() as f64),
            (
                "input_ciphertexts",
                self.model.program.layers[0].input_cts as f64,
            ),
            ("planned_hops", self.model.program.hop_count() as f64),
            (
                "planned_key_switches",
                self.model.program.key_switch_count() as f64,
            ),
            ("noise_floor_bits", self.model.noise_floor_bits),
        ]
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        let med = |name: &str| {
            let s = tr.seconds_of(name);
            (median(&s), s.len())
        };
        for (metric, span) in [
            ("nn.encrypt_input_s", "nn.encrypt_input"),
            ("nn.decrypt_output_s", "nn.decrypt_output"),
            ("core.wire.push_frames_s", "core.wire.push_frames"),
            ("core.wire.ingest_s", "core.wire.ingest"),
        ] {
            let (value, n) = med(span);
            put(out, metric, value, "s", n);
        }
        put(
            out,
            "core.wire.bytes_per_request",
            self.wire_bytes as f64,
            "B",
            1,
        );
        put(
            out,
            "core.model_cache.generate_s",
            self.cache_generate_s,
            "s",
            1,
        );
        put(
            out,
            "core.model_cache.verify_s",
            self.cache_verify_s,
            "s",
            1,
        );
        put(
            out,
            "nn.max_abs_err",
            self.max_abs_err,
            "1",
            self.traced_s.len() + self.untraced_s.len(),
        );

        let (untraced, traced) = (median(&self.untraced_s), median(&self.traced_s));
        put(
            out,
            "obs.trace_overhead_pct",
            (traced - untraced) / untraced * 100.0,
            "%",
            self.traced_s.len().min(self.untraced_s.len()),
        );

        // The last traced request: exact op counts and busy time per op
        // kind from the program's own logs.
        let served = self.last.take();
        let (trace, ops) = match &served {
            Some(s) => (s.op_trace.as_ref(), s.op_spans.as_ref()),
            None => (None, None),
        };
        put(
            out,
            "nn.est_budget_end_bits",
            served.as_ref().map_or(f64::NAN, |s| s.end_budget_bits),
            "bit",
            1,
        );
        put(
            out,
            "ckks.hops",
            trace.map_or(0, |t| t.hop_count()) as f64,
            "count",
            1,
        );
        put(
            out,
            "ckks.key_switches",
            trace.map_or(0, |t| t.key_switch_count()) as f64,
            "count",
            1,
        );
        for kind in BUSY_KINDS {
            let (ns, n) = ops.map_or((0, 0), |log| {
                log.spans()
                    .iter()
                    .filter(|s| s.label.0 == kind)
                    .fold((0u64, 0usize), |(ns, n), s| (ns + s.nanos, n + 1))
            });
            put(out, format!("ckks.busy_s.{kind}"), ns as f64 * 1e-9, "s", n);
        }
        // Per layer: the median over the traced requests.
        let layer_s = |name: &str| {
            let s = tr.seconds_of(&format!("{LAYER_SPAN}{name}"));
            (median(&s), s.len())
        };
        for name in NET_LAYERS {
            let (busy_s, n) = layer_s(name);
            put(out, format!("nn.layer_busy_s.{name}"), busy_s, "s", n);
        }

        // Measured layer shares against the modelled cycle shares of
        // the design the DSE picks for this network on ACU9EG.
        let params = self.model.ctx.params().clone();
        let modelled = generate_accelerator(&self.model.net, &params, &FpgaDevice::acu9eg());
        let rows = attribution_rows(
            &NET_LAYERS
                .iter()
                .map(|&name| {
                    let cycles = modelled
                        .as_ref()
                        .ok()
                        .and_then(|r| r.sim.layers.iter().find(|l| l.name == name))
                        .map_or(0, |l| l.cycles);
                    (name.to_string(), 1, (layer_s(name).0 * 1e9) as u64, cycles)
                })
                .collect::<Vec<_>>(),
        );
        for row in rows {
            put(
                out,
                format!("hw.model_share_err_pp.{}", row.key),
                row.model_error_pct.abs(),
                "pp",
                1,
            );
        }

        probes::math_and_ckks(&self.model, self.seed, self.shape, out);
    }
}
