//! Serving-path benchmark: sustained throughput and per-request latency
//! of the supervised batch driver at mixed deadlines, for a single
//! worker versus a worker pool, written to `BENCH_serve.json` at the
//! repository root.
//!
//! The claim the committed numbers back: the worker pool (supervision,
//! health scoring, round-robin selection) does not regress
//! single-tenant p99 relative to the single-worker driver — the driver
//! is synchronous, so the pool buys fault isolation, not parallelism,
//! and must cost nothing on the happy path.
//!
//! The busy-work entries alone leave w1 vs w4 within noise because each
//! request is trivially small, so the run also measures a *real-eval*
//! workload: every request is a v2 ciphertext frame ingested zero-copy
//! from an aligned receive buffer and pushed through an actual
//! square → relinearize → rescale chain — ciphertext-sized work, the
//! serve path the paper's deployment model actually runs.
//!
//! Run with: `cargo run --release -p fxhenn-bench --bin bench_serve`
//!
//! Flags:
//! * `--tiny` — shrink the request counts (CI smoke; do not commit).
//! * `--real-eval` — measure only the real-eval entries.
//! * `--out <path>` — write the JSON somewhere else.
//! * `--check <path>` — compare this run's shape (schema + entry
//!   names) against a committed baseline and exit non-zero on drift.
//!
//! Output schema `fxhenn-bench-serve/v2`:
//! `{ "schema", "tiny", "entries": [{ "name", "workers", "requests",
//! "completed", "cancelled", "req_per_s", "p50_us", "p99_us",
//! "budget_bits_min", "budget_bits_mean" }] }`. The budget fields are
//! the per-request terminal noise-budget bits recorded by the real-eval
//! entries (the tracked estimate after square → relinearize → rescale);
//! busy-work entries report `null`.

use fxhenn::math::budget::{Budget, Progress};
use fxhenn::serve::{
    AttemptError, BatchDriver, InferenceRequest, InferenceService, ServeConfig,
};
use fxhenn::{ingest_ciphertext, push_frame, FrameCursor};
use fxhenn_ckks::wire::{encode_ciphertext_v2, AlignedBytes};
use fxhenn_ckks::{CkksContext, CkksParams, Encryptor, Evaluator, KeyGenerator, RelinKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-request terminal noise-budget samples, shared across every
/// worker a driver builds so the entry can report the whole run.
#[derive(Default)]
struct BudgetStats {
    count: u64,
    sum: f64,
    min: f64,
}

impl BudgetStats {
    fn record(&mut self, bits: f64) {
        if self.count == 0 || bits < self.min {
            self.min = bits;
        }
        self.count += 1;
        self.sum += bits;
    }

    /// `(min, mean)` over recorded samples, or `None` if none were.
    fn summary(&self) -> Option<(f64, f64)> {
        if self.count == 0 {
            None
        } else {
            Some((self.min, self.sum / self.count as f64))
        }
    }
}

/// A deterministic busy-work backend: a fixed number of wrapping
/// multiplications per call (≈ tens of microseconds), with the same
/// cooperative budget check a real service performs.
struct BusyService {
    work_units: u64,
}

impl InferenceService for BusyService {
    type Output = u64;

    fn infer(&mut self, req: &InferenceRequest, budget: &Budget) -> Result<u64, AttemptError> {
        budget
            .check("busy-service", Progress::done(0))
            .map_err(AttemptError::Cancelled)?;
        let mut acc = req.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..self.work_units {
            acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
        }
        black_box(acc);
        Ok(req.id)
    }
}

/// A real CKKS backend: each request is a length-prefixed v2 ciphertext
/// frame in an aligned receive buffer, ingested zero-copy (borrowed
/// decode + range check) and run through square → relinearize →
/// rescale — the full depth-1 evaluation chain at ciphertext size.
struct CkksEvalService {
    ctx: CkksContext,
    relin: RelinKey,
    rx: AlignedBytes,
    budgets: Arc<Mutex<BudgetStats>>,
}

impl CkksEvalService {
    fn build(seed: u64, budgets: Arc<Mutex<BudgetStats>>) -> Self {
        let params = CkksParams::new(1024, 3, 30, 45).expect("bench params are valid");
        let ctx = CkksContext::new(params);
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
        let pk = kg.public_key();
        let relin = kg.relin_key();
        let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(seed ^ 0x5EED));
        let ct = enc.encrypt(&[0.5, -1.25, 2.0, 0.125]);
        let frame = encode_ciphertext_v2(&ct);
        let mut rx = AlignedBytes::with_byte_capacity(frame.len() + 16);
        push_frame(&mut rx, frame.as_bytes());
        Self {
            ctx,
            relin,
            rx,
            budgets,
        }
    }
}

impl InferenceService for CkksEvalService {
    type Output = u64;

    fn infer(&mut self, req: &InferenceRequest, budget: &Budget) -> Result<u64, AttemptError> {
        budget
            .check("ckks-eval-service", Progress::done(0))
            .map_err(AttemptError::Cancelled)?;
        let payload = FrameCursor::new(self.rx.as_bytes())
            .next()
            .and_then(Result::ok)
            .unwrap_or_default();
        let view = ingest_ciphertext(&self.ctx, payload)
            .map_err(|e| AttemptError::Permanent(format!("rejected request frame: {e}")))?;
        let mut eval = Evaluator::new(&self.ctx);
        let chained = eval
            .square(&view)
            .and_then(|sq| eval.relinearize(&sq, &self.relin))
            .and_then(|lin| eval.rescale(&lin))
            .map_err(|e| AttemptError::Permanent(format!("evaluation failed: {e}")))?;
        // Terminal health of this request's ciphertext: the tracked
        // noise budget the chain leaves behind.
        if let Ok(mut stats) = self.budgets.lock() {
            stats.record(chained.budget_bits());
        }
        black_box(chained);
        Ok(req.id)
    }
}

/// One measured configuration.
struct Entry {
    name: String,
    workers: usize,
    requests: u64,
    completed: u64,
    cancelled: u64,
    req_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    /// `(min, mean)` terminal noise-budget bits over the run's
    /// requests; `None` for workloads that never touch a ciphertext.
    terminal_budget: Option<(f64, f64)>,
}

fn serve_config(workers: usize, hint: Duration) -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        tenant_quota: 64,
        worker_count: workers,
        slip_threshold: u32::MAX, // latency probe, not degradation study
        service_time_hint: hint,
        ..ServeConfig::default()
    }
}

fn busy_driver(workers: usize) -> BatchDriver<BusyService> {
    let cfg = serve_config(workers, Duration::from_micros(100));
    BatchDriver::with_factory(cfg, Box::new(|| Ok(BusyService { work_units: 20_000 })))
        .expect("busy service always builds")
}

fn real_eval_driver(
    workers: usize,
    budgets: Arc<Mutex<BudgetStats>>,
) -> BatchDriver<CkksEvalService> {
    let cfg = serve_config(workers, Duration::from_micros(500));
    BatchDriver::with_factory(
        cfg,
        Box::new(move || Ok(CkksEvalService::build(11, budgets.clone()))),
    )
    .expect("ckks service always builds")
}

/// Mixed deadlines: every 8th request carries a zero deadline (storm
/// victim, must cancel), the rest are generous.
fn deadline_for(id: u64) -> Duration {
    if id % 8 == 7 {
        Duration::ZERO
    } else {
        Duration::from_secs(5)
    }
}

fn measure<S, F>(
    name: String,
    make_driver: F,
    workers: usize,
    throughput_requests: u64,
    latency_probes: u64,
) -> Entry
where
    S: InferenceService<Output = u64> + Send,
    F: Fn() -> BatchDriver<S>,
{
    // Throughput: waves of up-to-capacity submissions, drained per wave.
    let mut d = make_driver();
    let wave = 64u64;
    let start = Instant::now();
    let mut id = 0u64;
    while id < throughput_requests {
        for _ in 0..wave.min(throughput_requests - id) {
            d.submit(InferenceRequest::new(id, "busy", deadline_for(id)))
                .expect("queue has room within one wave");
            id += 1;
        }
        d.run_queue();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let report = d.report().clone();

    // Latency: one request per run_queue call so each sample is a true
    // end-to-end admission→outcome time; p-quantiles over completed
    // requests only (storm victims cancel by design).
    let mut lat = make_driver();
    let mut samples_us: Vec<f64> = Vec::with_capacity(latency_probes as usize);
    for pid in 0..latency_probes {
        let t = Instant::now();
        lat.submit(InferenceRequest::new(pid, "busy", deadline_for(pid)))
            .expect("empty queue admits");
        let outcomes = lat.run_queue();
        let us = t.elapsed().as_secs_f64() * 1e6;
        if outcomes.iter().all(|(_, o)| o.is_ok()) {
            samples_us.push(us);
        }
    }
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let quantile = |q: f64| -> f64 {
        if samples_us.is_empty() {
            return 0.0;
        }
        let idx = ((samples_us.len() as f64 - 1.0) * q).round() as usize;
        samples_us[idx]
    };

    Entry {
        name,
        workers,
        requests: throughput_requests,
        completed: report.completed,
        cancelled: report.cancelled,
        req_per_s: throughput_requests as f64 / elapsed,
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        terminal_budget: None,
    }
}

fn render_json(entries: &[Entry], tiny: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"fxhenn-bench-serve/v2\",\n");
    s.push_str(&format!("  \"tiny\": {tiny},\n"));
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let (bmin, bmean) = match e.terminal_budget {
            Some((min, mean)) => (format!("{min:.1}"), format!("{mean:.1}")),
            None => ("null".to_string(), "null".to_string()),
        };
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"workers\": {}, \"requests\": {}, \
             \"completed\": {}, \"cancelled\": {}, \"req_per_s\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"budget_bits_min\": {bmin}, \
             \"budget_bits_mean\": {bmean} }}{comma}\n",
            e.name, e.workers, e.requests, e.completed, e.cancelled, e.req_per_s, e.p50_us,
            e.p99_us
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Every string value keyed by `key` in a flat JSON document.
fn extract_strings(json: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        rest = &rest[i + pat.len()..];
        let Some(q1) = rest.find('"') else { break };
        let after = &rest[q1 + 1..];
        let Some(q2) = after.find('"') else { break };
        out.push(after[..q2].to_string());
        rest = &after[q2 + 1..];
    }
    out
}

/// Compares this run's shape against a committed baseline: same
/// schema, same entry names in the same order.
fn check_against(baseline_path: &str, entries: &[Entry]) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let schema = extract_strings(&text, "schema");
    if schema.first().map(String::as_str) != Some("fxhenn-bench-serve/v2") {
        return Err(format!(
            "baseline {baseline_path} schema mismatch: found {:?}, expected \
             \"fxhenn-bench-serve/v2\"",
            schema.first()
        ));
    }
    // v2 baselines must carry the terminal-budget fields (the real-eval
    // entries record them; busy entries carry nulls).
    if !text.contains("\"budget_bits_min\"") || !text.contains("\"budget_bits_mean\"") {
        return Err(format!(
            "baseline {baseline_path} is missing the v2 terminal-budget fields \
             (budget_bits_min / budget_bits_mean)"
        ));
    }
    let committed = extract_strings(&text, "name");
    let measured: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
    if committed != measured {
        return Err(format!(
            "serve bench shape drifted from {baseline_path}:\n  committed: {committed:?}\n  \
             measured:  {measured:?}\nregenerate the baseline with `cargo run --release -p \
             fxhenn-bench --bin bench_serve` if the change is intentional"
        ));
    }
    Ok(())
}

fn main() {
    let mut tiny = false;
    let mut real_eval_only = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--real-eval" => real_eval_only = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--check" => check = Some(args.next().expect("--check needs a path")),
            other => {
                eprintln!(
                    "unknown flag {other}; known: --tiny, --real-eval, --out <path>, \
                     --check <path>"
                );
                std::process::exit(2);
            }
        }
    }

    let (throughput_requests, latency_probes) = if tiny { (256, 128) } else { (4_096, 1_024) };
    // The real-eval chain is ~three orders of magnitude heavier per
    // request than the busy spin, so it runs fewer requests for the
    // same statistical weight.
    let (real_requests, real_probes) = if tiny { (64, 32) } else { (512, 256) };

    let mut entries: Vec<Entry> = Vec::with_capacity(4);
    if !real_eval_only {
        for w in [1usize, 4] {
            entries.push(measure(
                format!("serve_mixed_deadlines_w{w}"),
                || busy_driver(w),
                w,
                throughput_requests,
                latency_probes,
            ));
        }
    }
    for w in [1usize, 4] {
        let budgets = Arc::new(Mutex::new(BudgetStats::default()));
        let handle = budgets.clone();
        let mut entry = measure(
            format!("serve_real_eval_w{w}"),
            move || real_eval_driver(w, handle.clone()),
            w,
            real_requests,
            real_probes,
        );
        entry.terminal_budget = budgets.lock().expect("budget stats lock").summary();
        entries.push(entry);
    }

    for e in &entries {
        let budget = match e.terminal_budget {
            Some((min, mean)) => format!("   budget min {min:.1} / mean {mean:.1} bits"),
            None => String::new(),
        };
        println!(
            "{:<28} {:>9.1} req/s   p50 {:>8.1} µs   p99 {:>8.1} µs   \
             ({} completed, {} cancelled){budget}",
            e.name, e.req_per_s, e.p50_us, e.p99_us, e.completed, e.cancelled
        );
    }
    // Entries come in (w1, w4) pairs per workload.
    for pair in entries.chunks(2) {
        let (single, pool) = (&pair[0], &pair[1]);
        println!(
            "{}: pool p99 / single p99 = {:.3} (pool must not regress the single-worker path)",
            pool.name,
            pool.p99_us / single.p99_us
        );
    }

    if let Some(baseline) = check {
        if let Err(msg) = check_against(&baseline, &entries) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        println!("serve bench shape matches {baseline}");
        return;
    }

    let path = out.unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    });
    let json = render_json(&entries, tiny);
    std::fs::write(&path, &json).expect("write serve bench report");
    println!("wrote {path}");
}
