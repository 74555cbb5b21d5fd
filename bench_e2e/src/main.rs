//! `bench_e2e` — the repository's one benchmark.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]
//! bench_e2e --all [--seed <n>] [--seconds <s>] [--tiny] [--out-dir <dir>]
//! bench_e2e --compare <a.json|dir> <b.json|dir>
//! ```
//!
//! A run sets its workload up from the seed, warms it up, repeats its
//! operation for `--seconds` of timed wall, checks every result against
//! a plaintext reference, prints every metric by name and unit, and
//! ends with one JSON line. `--trace 0` measures the end-to-end metrics
//! with tracing off; `--trace 1` records spans around every call into a
//! layer's public functions and reports the per-layer metrics instead.
//! README.md in this directory says what each name means and why.

mod design_flow;
mod host;
mod infer;
mod json;
mod kernels;
mod mnist_paper;
mod probes;
mod serve_toy;
mod trace;
mod workload;

use fxhenn::math::par::{self, Parallelism};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, Tracer};
use workload::{put, Metric, Metrics, Shape, Workload, WORKLOADS};

/// Fewest timed steps of a run, however short `--seconds` is.
const MIN_TIMED_STEPS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median. At full shape a
/// set-up that takes milliseconds is repeated until
/// [`SETUP_MIN_SECONDS`] have passed, so its median is as steady as a
/// slow one's.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 64;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SCHEMA: &str = "fxhenn-bench-e2e/v1";

fn build(name: &str, seed: u64, shape: Shape) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "mnist_paper" => Box::new(mnist_paper::MnistPaper::setup(seed, shape)?),
        "ct_matmul" => Box::new(kernels::CtMatmul::setup(seed, shape)?),
        "sign_relu" => Box::new(kernels::SignRelu::setup(seed, shape)?),
        "serve_toy" => Box::new(serve_toy::ServeToy::setup(seed, shape)?),
        "design_flow" => Box::new(design_flow::DesignFlow::setup(seed, shape)?),
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    })
}

/// Totals of the steps a run made.
#[derive(Default)]
struct Measured {
    attempted: u64,
    failed: u64,
    latencies_s: Vec<f64>,
    wall_s: f64,
    /// Per timed step: `(completed, wall seconds)`.
    steps: Vec<(u64, f64)>,
}

/// Warms `w` up (unless `warm` is off), then repeats its step until
/// `seconds` of timed wall have passed.
fn measure(w: &mut dyn Workload, warm: bool, seconds: f64, tr: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let tracing = tr.enabled();
    if warm {
        tr.set_enabled(false);
        for index in 0..w.warmup() {
            let r = w.op(index, tr);
            m.attempted += r.attempted;
            m.failed += r.failed;
        }
        tr.set_enabled(tracing);
    }
    let mut index = w.warmup();
    while m.steps.len() < MIN_TIMED_STEPS || m.wall_s < seconds {
        let r = w.op(index, tr);
        index += 1;
        m.attempted += r.attempted;
        m.failed += r.failed;
        m.latencies_s.extend(r.latencies_s);
        m.wall_s += r.wall_s;
        m.steps.push((r.attempted - r.failed, r.wall_s));
    }
    m
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    shape: Shape,
    out_dir: PathBuf,
}

fn run(args: &RunArgs) -> Result<bool, String> {
    // The library's default, `Parallelism::Auto`, decides once per
    // process — from a microsecond-scale timing — whether it will ever
    // spawn threads, so two runs of the same code can differ by 1.6x in
    // either direction (README.md, "Thread policy"). A benchmark cannot
    // sit on a coin toss: every workload runs inline, for the whole
    // process, and the traced run reports what fan-out would have done.
    par::set_parallelism(Parallelism::Serial);
    // Set-up, timed: several times over in an untraced run, so the
    // reported time is a median.
    let mut setup_s = Vec::new();
    let mut w = loop {
        let started = Instant::now();
        let w = build(&args.workload, args.seed, args.shape)?;
        setup_s.push(started.elapsed().as_secs_f64());
        let reps = setup_s.len();
        let long_enough = args.shape == Shape::Tiny
            || reps >= SETUP_MAX_REPS
            || setup_s.iter().sum::<f64>() >= SETUP_MIN_SECONDS;
        if args.trace || reps >= SETUP_REPS && long_enough {
            break w;
        }
    };
    let reps = setup_s.len();

    let mut tr = Tracer::new(args.trace);
    let mut m = measure(&mut *w, true, args.seconds, &mut tr);
    let mut counts = w.counts();
    counts.extend([
        ("warmup_steps", w.warmup() as f64),
        ("timed_steps", m.steps.len() as f64),
        ("setup_reps", reps as f64),
    ]);

    let mut metrics = Metrics::new();
    if args.trace {
        // The named workload ran for `--seconds`; every other one runs
        // two steps, so each traced run reports every layer.
        for name in WORKLOADS {
            if name == args.workload {
                w.layer_metrics(&mut tr, &mut metrics);
            } else {
                let mut other = build(name, args.seed, args.shape)?;
                let o = measure(&mut *other, false, 0.0, &mut tr);
                m.attempted += o.attempted;
                m.failed += o.failed;
                other.layer_metrics(&mut tr, &mut metrics);
            }
        }
    } else {
        let n = m.latencies_s.len();
        put(&mut metrics, "setup_s", median(&setup_s), "s", reps);
        put(
            &mut metrics,
            "latency_p50_s",
            median(&m.latencies_s),
            "s",
            n,
        );
        // The median step's rate, not the total over the total: a burst
        // of host noise then costs a few samples, not the whole mean.
        let rates: Vec<f64> = m
            .steps
            .iter()
            .map(|&(done, wall)| done as f64 / wall)
            .collect();
        put(
            &mut metrics,
            "throughput_per_s",
            median(&rates),
            "1/s",
            rates.len(),
        );
        put(&mut metrics, "peak_rss_mib", host::peak_rss_mib(), "MiB", 1);
    }
    let correct = m.failed == 0;

    for metric in &metrics {
        println!(
            "{:<44} {:>18} {:<6} (n = {})",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    println!(
        "{:<44} {:>18} {:<6} ({} failed of {} attempted)",
        "failed_share",
        m.failed as f64 / m.attempted as f64,
        "1",
        m.failed,
        m.attempted
    );

    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", metrics_json(&metrics, false)),
    ]);
    let file = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("tiny", Json::Bool(args.shape == Shape::Tiny)),
        ("host", host::describe()),
        (
            "counts",
            Json::obj(counts.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        (
            "failed_share",
            Json::Num(m.failed as f64 / m.attempted as f64),
        ),
        ("metrics", metrics_json(&metrics, true)),
        (
            "latency_samples_s",
            Json::Arr(m.latencies_s.iter().map(|&l| Json::Num(l)).collect()),
        ),
        (
            "step_walls_s",
            Json::Arr(m.steps.iter().map(|&(_, w)| Json::Num(w)).collect()),
        ),
        (
            "step_completed",
            Json::Arr(m.steps.iter().map(|&(c, _)| Json::Num(c as f64)).collect()),
        ),
    ]);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let stem = if args.trace { "layers-" } else { "" };
    write_file(
        &args.out_dir.join(format!("{stem}{}.json", args.workload)),
        &file.pretty(),
    )?;
    if args.trace {
        let spans = Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("workload", Json::str(&args.workload)),
            ("seed", Json::Num(args.seed as f64)),
            ("spans", tr.to_json()),
        ]);
        write_file(
            &args.out_dir.join(format!("trace-{}.json", args.workload)),
            &spans.compact(),
        )?;
    }
    println!("{}", summary.compact());
    Ok(correct)
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if with_samples {
            fields.push(("samples", Json::Num(m.samples as f64)));
        }
        (m.name.clone(), Json::obj(fields))
    }))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the five workloads in sequence, each in a process of its own so
/// that `peak_rss_mib` is the workload's and nobody else's.
fn run_all(passthrough: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for name in WORKLOADS {
        println!("== {name}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(passthrough)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

/// The benchmark's contract file, as the build saw it.
fn benchmark_json() -> Result<Json, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Per-layer metrics that are exact: two runs of the same code on the
/// same seed must agree on them to the last digit.
const EXACT_PREFIXES: [&str; 6] = [
    "core.wire.bytes_per_request",
    "sim.model_paper_err_pct",
    "sim.modeled_latency_s.",
    "ckks.hops",
    "ckks.key_switches",
    "dse.points_evaluated",
];

/// Compares result file `b` (the change) with `a` (the parent): `Err`
/// lines for every metric that got worse by more than its bound.
fn compare_files(a: &Path, b: &Path, contract: &Json) -> Result<Vec<String>, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a_doc, b_doc) = (load(a)?, load(b)?);
    let value = |doc: &Json, name: &str| doc.get("metrics")?.get(name)?.get("value")?.as_f64();
    let mut worse = Vec::new();
    for spec in contract.get("end_to_end").map_or(&[][..], Json::as_array) {
        let (Some(name), Some(better), Some(bound)) = (
            spec.get("name").and_then(Json::as_str),
            spec.get("better").and_then(Json::as_str),
            spec.get("bound").and_then(Json::as_f64),
        ) else {
            return Err("BENCHMARK.json: malformed end_to_end entry".into());
        };
        let (Some(before), Some(after)) = (value(&a_doc, name), value(&b_doc, name)) else {
            continue;
        };
        let change = if better == "lower" {
            (after - before) / before
        } else {
            (before - after) / before
        };
        let verdict = if change > bound { "WORSE" } else { "ok" };
        println!(
            "{:<28} {name:<20} {before:>14.6} -> {after:>14.6}  worse by {:+7.2} %  (bound {:.0} %)  {verdict}",
            b.file_name().map_or_else(String::new, |f| f.to_string_lossy().into_owned()),
            change * 100.0,
            bound * 100.0
        );
        if change > bound {
            worse.push(format!("{name} in {}", b.display()));
        }
    }
    for (name, _) in a_doc.get("metrics").map_or(&[][..], Json::as_object) {
        if !EXACT_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        if let (Some(before), Some(after)) = (value(&a_doc, name), value(&b_doc, name)) {
            if before != after {
                println!("{name}: {before} -> {after}  DIFFERS (exact metric)");
                worse.push(format!("{name} in {}", b.display()));
            }
        }
    }
    let failed = |doc: &Json| {
        doc.get("failed_share")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    if failed(&b_doc) > failed(&a_doc) {
        println!(
            "failed_share: {} -> {}  WORSE (any increase regresses)",
            failed(&a_doc),
            failed(&b_doc)
        );
        worse.push(format!("failed_share in {}", b.display()));
    }
    Ok(worse)
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let contract = benchmark_json()?;
    let mut worse = Vec::new();
    if a.is_dir() && b.is_dir() {
        let mut compared = 0;
        for prefix in ["", "layers-"] {
            for name in WORKLOADS {
                let file = format!("{prefix}{name}.json");
                if a.join(&file).is_file() && b.join(&file).is_file() {
                    worse.extend(compare_files(&a.join(&file), &b.join(&file), &contract)?);
                    compared += 1;
                }
            }
        }
        if compared == 0 {
            return Err(format!(
                "{} and {} share no result file",
                a.display(),
                b.display()
            ));
        }
    } else {
        worse = compare_files(a, b, &contract)?;
    }
    for w in &worse {
        eprintln!("regression: {w}");
    }
    Ok(worse.is_empty())
}

fn usage() -> String {
    format!(
        "usage:\n  bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]\n  \
         bench_e2e --all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny] [--out-dir <dir>]\n  \
         bench_e2e --compare <a.json|dir> <b.json|dir>\nworkloads: {}",
        WORKLOADS.join(", ")
    )
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err(usage());
        };
        return compare(Path::new(a), Path::new(b));
    }

    let mut workload = None;
    let mut all = false;
    let mut run_args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        shape: Shape::Full,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
    };
    let mut passthrough = Vec::new();
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let value = match flag.as_str() {
            "--all" => {
                all = true;
                continue;
            }
            "--tiny" => {
                run_args.shape = Shape::Tiny;
                passthrough.push(flag.clone());
                continue;
            }
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out-dir" => args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        };
        let bad = |what: &str| format!("{flag} {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                continue;
            }
            "--seed" => run_args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                run_args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--trace" => {
                run_args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => run_args.out_dir = PathBuf::from(value),
        }
        // `--all` hands every option on to its child runs.
        passthrough.extend([flag.clone(), value.clone()]);
    }
    match (all, workload) {
        (true, None) => run_all(&passthrough),
        (false, Some(name)) => {
            run_args.workload = name;
            run(&run_args)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}
