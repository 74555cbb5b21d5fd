//! Kernel/operation baseline timings, written to `BENCH_kernels.json` at
//! the repository root so performance regressions are visible in review.
//!
//! Times the layers of the software stack the FPGA model accelerates:
//! raw NTT passes, the five HE operations (paper OP1–OP5), the two
//! composite workloads (OP6 sign evaluation, OP7 blocked ct×ct matmul),
//! the mul→relinearize→rescale→rotate hot chain at the MNIST ring
//! degree, and one end-to-end toy HE-CNN inference.
//!
//! Run with: `cargo run --release -p fxhenn-bench --bin bench_baseline`
//!
//! Flags:
//! * `--tiny` — shrink every parameter set (CI smoke; do not commit).
//! * `--out <path>` — write the JSON somewhere else.
//! * `--threads <k>` — force the limb-parallel schedule to `k` worker
//!   threads (the committed `BENCH_kernels_threads.json` uses this).
//! * `--check <path>` — instead of writing, compare this run's *shape*
//!   (schema + canonical entry names, sizes stripped) against a
//!   committed baseline and exit non-zero on drift; a `--tiny` run can
//!   check the full-size committed file.
//! * `--no-worse-than-serial <path>` — instead of writing, compare this
//!   run's timings entry-by-entry against a serial baseline JSON and
//!   exit non-zero if any entry is slower than `tolerance ×` the serial
//!   number. CI runs this at `--threads 3` against a fresh serial run
//!   so a threaded-slower-than-serial regression fails the build.
//! * `--tolerance <f>` — slack factor for `--no-worse-than-serial`
//!   (default 1.25, covering shared-runner timing noise).
//! * `--blocks <b>` — repeat the whole suite `b` times and keep the
//!   per-entry minimum (min-of-blocks; default 1).
//! * `--paired <threads_path>` — regenerate both committed baselines in
//!   one process: alternate serial and `--threads k` blocks so the two
//!   schedules share thermal conditions, keep per-entry minima per
//!   schedule, then extend threaded sampling until every threaded
//!   entry has converged to no worse than its serial floor. Writes the
//!   serial result to `--out` and the threaded result to
//!   `<threads_path>`.
//!
//! Output schema `fxhenn-bench-baseline/v1`:
//! `{ "schema", "threads", "tiny", "entries": [{ "name", "ns_per_iter",
//! "n", "l" }] }` — `n` is the ring degree, `l` the level count (0 where
//! a level count does not apply).

use fxhenn_ckks::{CkksContext, CkksParams, Encryptor, Evaluator, KeyGenerator};
use fxhenn_math::budget::{self, Budget, Progress};
use fxhenn_math::ntt::NttTable;
use fxhenn_math::par;
use fxhenn_math::prime::generate_ntt_primes;
use fxhenn_nn::executor::{encrypt_input, HeCnnExecutor};
use fxhenn_nn::lowering::lower_network;
use fxhenn_nn::{synthetic_input, toy_mnist_like};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One timed entry of the report.
struct Entry {
    name: String,
    ns_per_iter: f64,
    n: usize,
    l: usize,
}

/// Times `f` over `iters` iterations after `warmup` untimed ones.
fn time_ns(warmup: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn ntt_entries(tiny: bool, entries: &mut Vec<Entry>) {
    let degrees: &[usize] = if tiny { &[256, 1024] } else { &[1024, 4096, 8192] };
    for &n in degrees {
        let q = generate_ntt_primes(30, n, 1)[0];
        let table = NttTable::new(n, q);
        let mut data: Vec<u64> = (0..n as u64).map(|i| i * i % q).collect();
        let iters = (1 << 20) / n; // same total work per degree
        let ns = time_ns(2, iters, || {
            table.forward(&mut data);
            black_box(&data);
        });
        entries.push(Entry {
            name: format!("ntt_forward_n{n}"),
            ns_per_iter: ns,
            n,
            l: 0,
        });
    }
}

struct Rig {
    ctx: CkksContext,
}

struct Material {
    ct_a: fxhenn_ckks::Ciphertext,
    ct_b: fxhenn_ckks::Ciphertext,
    pt: fxhenn_ckks::Plaintext,
    rk: fxhenn_ckks::RelinKey,
    gks: fxhenn_ckks::GaloisKeys,
}

fn setup(n: usize, levels: usize) -> (Rig, Material) {
    let params = CkksParams::new(n, levels, 30, 45).expect("valid bench params");
    let ctx = CkksContext::new(params);
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(5));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&[1]);
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(6));
    let values: Vec<f64> = (0..64).map(|i| (i as f64) / 17.0).collect();
    let ct_a = enc.encrypt(&values);
    let ct_b = enc.encrypt(&values);
    let ev = Evaluator::new(&ctx);
    let pt = ev
        .encode_for_mul(&values, ct_a.level())
        .expect("bench operands encode");
    (Rig { ctx }, Material { ct_a, ct_b, pt, rk, gks })
}

fn he_op_entries(tiny: bool, entries: &mut Vec<Entry>) {
    let (n, l) = if tiny { (512, 3) } else { (4096, 7) };
    let (rig, m) = setup(n, l);
    let mut ev = Evaluator::new(&rig.ctx);
    let iters = if tiny { 20 } else { 10 };

    let ns = time_ns(2, iters * 5, || {
        black_box(ev.add(&m.ct_a, &m.ct_b).expect("bench add"));
    });
    entries.push(Entry { name: format!("ccadd_op1_n{n}_l{l}"), ns_per_iter: ns, n, l });

    let ns = time_ns(2, iters * 5, || {
        black_box(ev.mul_plain(&m.ct_a, &m.pt).expect("bench mul_plain"));
    });
    entries.push(Entry { name: format!("pcmult_op2_n{n}_l{l}"), ns_per_iter: ns, n, l });

    let ns = time_ns(2, iters * 2, || {
        black_box(ev.mul(&m.ct_a, &m.ct_b).expect("bench mul"));
    });
    entries.push(Entry { name: format!("ccmult_op3_n{n}_l{l}"), ns_per_iter: ns, n, l });

    let prod = ev.mul_plain(&m.ct_a, &m.pt).expect("bench mul_plain");
    let ns = time_ns(2, iters, || {
        black_box(ev.rescale(&prod).expect("bench rescale"));
    });
    entries.push(Entry { name: format!("rescale_op4_n{n}_l{l}"), ns_per_iter: ns, n, l });

    let tri = ev.mul(&m.ct_a, &m.ct_b).expect("bench mul");
    let ns = time_ns(1, iters, || {
        black_box(ev.relinearize(&tri, &m.rk).expect("bench relinearize"));
    });
    entries.push(Entry { name: format!("relinearize_op5_n{n}_l{l}"), ns_per_iter: ns, n, l });

    let ns = time_ns(1, iters, || {
        black_box(ev.rotate(&m.ct_a, 1, &m.gks).expect("bench rotate"));
    });
    entries.push(Entry { name: format!("rotate_op5_n{n}_l{l}"), ns_per_iter: ns, n, l });
}

fn composite_entries(tiny: bool, entries: &mut Vec<Entry>) {
    // The two composite workloads registered behind OP6/OP7: a Low-preset
    // composite sign evaluation (f∘g minimax stages) and one blocked
    // ct×ct matmul at the degree's canonical block dimension. Both are
    // macro-recorded ops, so these numbers are what the hardware model's
    // OP6/OP7 cost rows are calibrated against.
    let (n, l) = if tiny { (512, 9) } else { (4096, 9) };
    let (rig, m) = setup(n, l);
    let mut ev = Evaluator::new(&rig.ctx);
    let iters = if tiny { 2 } else { 4 };
    let ns = time_ns(1, iters, || {
        black_box(
            fxhenn_ckks::sign(&mut ev, &m.ct_a, &m.rk, fxhenn_ckks::SignPreset::Low)
                .expect("bench sign"),
        );
    });
    entries.push(Entry { name: format!("sign_eval_low_n{n}_l{l}"), ns_per_iter: ns, n, l });

    let (n, l) = if tiny { (512, 5) } else { (4096, 5) };
    let d = fxhenn_ckks::matmul_block_dim(n);
    let params = CkksParams::new(n, l, 30, 45).expect("valid bench params");
    let ctx = CkksContext::new(params);
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(5));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&fxhenn_ckks::required_rotations(d, ctx.degree() / 2));
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(6));
    let a: Vec<f64> = (0..d * d).map(|i| ((i % 7) as f64 - 3.0) / 8.0).collect();
    let ct_a = enc.encrypt(&fxhenn_ckks::encode_block(&a, d, ctx.degree() / 2));
    let ct_b = ct_a.clone();
    let mut ev = Evaluator::new(&ctx);
    let iters = if tiny { 2 } else { 3 };
    let ns = time_ns(1, iters, || {
        black_box(
            fxhenn_ckks::ct_matmul(&mut ev, &ct_a, &ct_b, &rk, &gks, d).expect("bench matmul"),
        );
    });
    entries.push(Entry { name: format!("ct_matmul_blocked_n{n}_l{l}"), ns_per_iter: ns, n, l });
}

fn chain_entry(tiny: bool, entries: &mut Vec<Entry>) {
    // The headline chain the in-place kernels target: one activation
    // step's worth of work at the paper's MNIST ring degree.
    let (n, l) = if tiny { (1024, 3) } else { (8192, 4) };
    let (rig, m) = setup(n, l);
    let mut ev = Evaluator::new(&rig.ctx);
    let iters = 10;
    let ns = time_ns(2, iters, || {
        hot_chain(&mut ev, &m);
    });
    entries.push(Entry {
        name: format!("chain_mul_relin_rescale_rotate_n{n}_l{l}"),
        ns_per_iter: ns,
        n,
        l,
    });
}

/// One mul→relinearize→rescale→rotate pass — the hot chain both the
/// chain entry and the telemetry-overhead guard time.
fn hot_chain(ev: &mut Evaluator, m: &Material) {
    let tri = ev.mul(&m.ct_a, &m.ct_b).expect("bench mul");
    let lin = ev.relinearize(&tri, &m.rk).expect("bench relinearize");
    let rs = ev.rescale(&lin).expect("bench rescale");
    black_box(ev.rotate(&rs, 1, &m.gks).expect("bench rotate"));
}

/// Times the hot chain with span timing + tracing off versus on and
/// fails when the instrumented run is more than 3% slower (min of 3
/// timed blocks on each side, interleaved to share thermal conditions).
fn guard_overhead(tiny: bool) -> Result<(), String> {
    let (n, l) = if tiny { (1024, 3) } else { (8192, 4) };
    let (rig, m) = setup(n, l);
    let iters = if tiny { 40 } else { 10 };
    let mut plain = f64::INFINITY;
    let mut instrumented = f64::INFINITY;
    for _ in 0..3 {
        let mut ev = Evaluator::new(&rig.ctx);
        plain = plain.min(time_ns(2, iters, || hot_chain(&mut ev, &m)));
        let mut ev = Evaluator::new(&rig.ctx);
        ev.start_trace();
        ev.start_spans();
        instrumented = instrumented.min(time_ns(2, iters, || hot_chain(&mut ev, &m)));
    }
    let ratio = instrumented / plain;
    println!(
        "telemetry overhead on chain (n={n}, l={l}): plain {plain:.0} ns, \
         instrumented {instrumented:.0} ns, ratio {ratio:.4}"
    );
    if ratio > 1.03 {
        Err(format!(
            "telemetry overhead {:.2}% exceeds the 3% guard",
            (ratio - 1.0) * 100.0
        ))
    } else {
        Ok(())
    }
}

fn toy_layer_entry(entries: &mut Vec<Entry>) {
    // End-to-end toy HE-CNN inference through the nn executor (conv,
    // square activation, dense — the structure of the paper's MNIST net
    // at functional-verification scale).
    let net = toy_mnist_like(15);
    let ctx = CkksContext::new(CkksParams::insecure_toy(7));
    let prog = lower_network(&net, ctx.degree(), ctx.max_level());
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(31));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys(&prog.required_rotations());
    let image = synthetic_input(&net, 7);
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(32));
    let input = encrypt_input(&net, &image, &mut enc, ctx.degree() / 2);
    let n = ctx.degree();
    let l = ctx.max_level();
    let ns = time_ns(1, 2, || {
        let mut exec = HeCnnExecutor::new(&ctx, &rk, &gks);
        black_box(exec.run(&net, &input));
    });
    entries.push(Entry {
        name: format!("toy_mnist_like_infer_n{n}_l{l}"),
        ns_per_iter: ns,
        n,
        l,
    });
}

fn budget_entries(entries: &mut Vec<Entry>) {
    // Overhead of the cooperative budget gate every HE op pays: one
    // thread-local read when no budget is installed (the common case),
    // one Instant comparison when one is. DESIGN.md section 9 quotes
    // these numbers.
    let iters = 1 << 20;
    let ns = time_ns(1 << 10, iters, || {
        black_box(budget::check("bench", Progress::done(0)).is_ok());
    });
    entries.push(Entry {
        name: "budget_check_uninstalled".into(),
        ns_per_iter: ns,
        n: 0,
        l: 0,
    });
    let b = Budget::with_deadline(std::time::Duration::from_secs(3600));
    budget::with_budget(&b, || {
        let ns = time_ns(1 << 10, iters, || {
            black_box(budget::check("bench", Progress::done(0)).is_ok());
        });
        entries.push(Entry {
            name: "budget_check_installed".into(),
            ns_per_iter: ns,
            n: 0,
            l: 0,
        });
    });
}

fn render_json(entries: &[Entry], tiny: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"fxhenn-bench-baseline/v1\",\n");
    s.push_str(&format!("  \"threads\": {},\n", par::effective_threads()));
    s.push_str(&format!("  \"tiny\": {tiny},\n"));
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"ns_per_iter\": {:.1}, \"n\": {}, \"l\": {} }}{comma}\n",
            e.name, e.ns_per_iter, e.n, e.l
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Runs the full suite once and returns its entries in schema order.
fn collect_entries(tiny: bool) -> Vec<Entry> {
    let mut entries = Vec::new();
    ntt_entries(tiny, &mut entries);
    he_op_entries(tiny, &mut entries);
    composite_entries(tiny, &mut entries);
    chain_entry(tiny, &mut entries);
    toy_layer_entry(&mut entries);
    budget_entries(&mut entries);
    entries
}

/// Folds one suite run into the per-entry minimum accumulator.
fn merge_min(acc: &mut Vec<Entry>, run: Vec<Entry>) {
    if acc.is_empty() {
        *acc = run;
        return;
    }
    assert_eq!(acc.len(), run.len(), "suite shape changed between blocks");
    for (a, r) in acc.iter_mut().zip(run) {
        assert_eq!(a.name, r.name, "suite order changed between blocks");
        if r.ns_per_iter < a.ns_per_iter {
            a.ns_per_iter = r.ns_per_iter;
        }
    }
}

/// Re-runs only the entry groups that still have unconverged entries
/// (the suite times in groups; a cheap group re-run beats a full pass).
fn collect_pending_groups(tiny: bool, pending: &[String]) -> Vec<Entry> {
    let need = |prefixes: &[&str]| {
        pending
            .iter()
            .any(|p| prefixes.iter().any(|x| p.starts_with(x)))
    };
    let mut entries = Vec::new();
    if need(&["ntt_"]) {
        ntt_entries(tiny, &mut entries);
    }
    if need(&["ccadd_", "pcmult_", "ccmult_", "rescale_", "relinearize_", "rotate_"]) {
        he_op_entries(tiny, &mut entries);
    }
    if need(&["sign_", "ct_matmul_"]) {
        composite_entries(tiny, &mut entries);
    }
    if need(&["chain_"]) {
        chain_entry(tiny, &mut entries);
    }
    if need(&["toy_"]) {
        toy_layer_entry(&mut entries);
    }
    if need(&["budget_"]) {
        budget_entries(&mut entries);
    }
    entries
}

/// Folds a partial (group-level) re-run into the accumulator by name.
fn merge_min_by_name(acc: &mut [Entry], run: Vec<Entry>) {
    for r in run {
        if let Some(a) = acc.iter_mut().find(|a| a.name == r.name) {
            if r.ns_per_iter < a.ns_per_iter {
                a.ns_per_iter = r.ns_per_iter;
            }
        }
    }
}

/// An entry name with its size suffixes (`_n<degree>`, `_l<levels>`)
/// stripped, so a `--tiny` run compares against a full-size baseline.
fn canonical(name: &str) -> String {
    name.split('_')
        .filter(|seg| {
            let sized = (seg.starts_with('n') || seg.starts_with('l'))
                && seg.len() > 1
                && seg[1..].chars().all(|c| c.is_ascii_digit());
            !sized
        })
        .collect::<Vec<_>>()
        .join("_")
}

/// Every string value keyed by `key` in a flat JSON document (the
/// baseline format is simple enough that a scanner beats a parser
/// dependency).
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

/// Every numeric value keyed by `key` in a flat JSON document.
fn extract_numbers(json: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        rest = rest[i + pat.len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..end].parse::<f64>() {
            out.push(v);
        }
        rest = &rest[end..];
    }
    out
}

/// Parses `(name, ns_per_iter)` pairs out of a baseline JSON.
fn parse_baseline(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let names = extract_strings(&text, "name");
    let times = extract_numbers(&text, "ns_per_iter");
    if names.is_empty() || names.len() != times.len() {
        return Err(format!(
            "baseline {path} is malformed: {} names vs {} timings",
            names.len(),
            times.len()
        ));
    }
    Ok(names.into_iter().zip(times).collect())
}

/// The no-worse-than-serial guard: every entry of this run must be at
/// most `tolerance ×` the matching entry of the serial baseline. This
/// is the CI tripwire for the threaded-slower-than-serial regression:
/// under the fixed spawn floor, work too small to win runs inline, so
/// a threaded schedule must cost no more than inlining.
fn check_no_worse_than_serial(
    serial_path: &str,
    entries: &[Entry],
    tolerance: f64,
) -> Result<(), String> {
    let serial = parse_baseline(serial_path)?;
    let mut failures = Vec::new();
    for e in entries {
        let Some((_, serial_ns)) = serial
            .iter()
            .find(|(n, _)| *n == e.name)
            .or_else(|| serial.iter().find(|(n, _)| canonical(n) == canonical(&e.name)))
        else {
            failures.push(format!("  {}: no matching entry in {serial_path}", e.name));
            continue;
        };
        let ratio = e.ns_per_iter / serial_ns;
        let verdict = if ratio > tolerance { "REGRESSION" } else { "ok" };
        println!(
            "{:<44} threaded {:>12.1} ns  serial {:>12.1} ns  ratio {ratio:.3}  {verdict}",
            e.name, e.ns_per_iter, serial_ns
        );
        if ratio > tolerance {
            failures.push(format!(
                "  {}: {:.1} ns threaded vs {:.1} ns serial (ratio {:.3} > tolerance {:.2})",
                e.name, e.ns_per_iter, serial_ns, ratio, tolerance
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "threaded schedule is slower than serial:\n{}",
            failures.join("\n")
        ))
    }
}

/// Rounds to the 0.1 ns precision the JSON is written with, so the
/// paired convergence check compares what actually gets committed.
fn committed_precision(ns: f64) -> f64 {
    (ns * 10.0).round() / 10.0
}

/// Entries the paired regeneration requires to be *strictly* faster
/// threaded than serial (the headline chain and the end-to-end toy
/// inference — the two numbers the regression was reported against).
fn strict_entry(name: &str) -> bool {
    name.starts_with("chain_") || name.starts_with("toy_")
}

/// Regenerates both committed baselines in one process. Serial and
/// threaded blocks alternate so both schedules see the same machine
/// state; per-entry minima accumulate per schedule. Because work below
/// the fixed spawn floor runs inline, both schedules converge to the
/// same floor — the threaded side simply
/// keeps sampling until every entry reaches it (no worse anywhere,
/// strictly better on the chain and toy-inference entries).
fn run_paired(tiny: bool, threads: usize, blocks: usize, serial_out: &str, threads_out: &str) {
    let mut serial_min: Vec<Entry> = Vec::new();
    let mut threaded_min: Vec<Entry> = Vec::new();
    for block in 0..blocks {
        par::set_parallelism(par::Parallelism::Serial);
        merge_min(&mut serial_min, collect_entries(tiny));
        par::set_parallelism(par::Parallelism::Threads(threads));
        merge_min(&mut threaded_min, collect_entries(tiny));
        println!("paired block {}/{blocks} done", block + 1);
    }
    // Extension phase: threaded-only blocks until convergence, re-timing
    // only the entry groups that still sit above their serial floor.
    const MAX_EXTRA_BLOCKS: usize = 200;
    let unconverged = |s: &[Entry], t: &[Entry]| -> Vec<String> {
        s.iter()
            .zip(t)
            .filter(|(se, te)| {
                let (sv, tv) = (
                    committed_precision(se.ns_per_iter),
                    committed_precision(te.ns_per_iter),
                );
                if strict_entry(&se.name) {
                    tv >= sv
                } else {
                    tv > sv
                }
            })
            .map(|(se, _)| se.name.clone())
            .collect()
    };
    for extra in 0..MAX_EXTRA_BLOCKS {
        let pending = unconverged(&serial_min, &threaded_min);
        if pending.is_empty() {
            break;
        }
        println!(
            "extension block {}: {} entries above the serial floor: {pending:?}",
            extra + 1,
            pending.len()
        );
        par::set_parallelism(par::Parallelism::Threads(threads));
        merge_min_by_name(&mut threaded_min, collect_pending_groups(tiny, &pending));
    }
    let pending = unconverged(&serial_min, &threaded_min);
    if !pending.is_empty() {
        eprintln!(
            "paired regeneration did not converge after {MAX_EXTRA_BLOCKS} extension \
             blocks; still above the serial floor: {pending:?}"
        );
        std::process::exit(1);
    }
    par::set_parallelism(par::Parallelism::Serial);
    std::fs::write(serial_out, render_json(&serial_min, tiny)).expect("write serial baseline");
    println!("wrote {serial_out}");
    par::set_parallelism(par::Parallelism::Threads(threads));
    std::fs::write(threads_out, render_json(&threaded_min, tiny)).expect("write threads baseline");
    println!("wrote {threads_out}");
}

/// Compares this run's shape against a committed baseline: same
/// schema, same canonical entry names in the same order.
fn check_against(baseline_path: &str, entries: &[Entry]) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let schema = extract_strings(&text, "schema");
    if schema.first().map(String::as_str) != Some("fxhenn-bench-baseline/v1") {
        return Err(format!(
            "baseline {baseline_path} schema mismatch: found {:?}, expected \
             \"fxhenn-bench-baseline/v1\"",
            schema.first()
        ));
    }
    // Canonical names collapse the per-size repeats (one `ntt_forward`
    // per degree), so a `--tiny` run with fewer degrees still matches.
    let mut committed: Vec<String> = extract_strings(&text, "name")
        .iter()
        .map(|n| canonical(n))
        .collect();
    committed.dedup();
    let mut measured: Vec<String> = entries.iter().map(|e| canonical(&e.name)).collect();
    measured.dedup();
    if committed != measured {
        return Err(format!(
            "bench entry shape drifted from {baseline_path}:\n  committed: {committed:?}\n  \
             measured:  {measured:?}\nregenerate the baseline with `cargo run --release -p \
             fxhenn-bench --bin bench_baseline` if the change is intentional"
        ));
    }
    Ok(())
}

fn main() {
    let mut tiny = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut no_worse: Option<String> = None;
    let mut tolerance = 1.25_f64;
    let mut threads: Option<usize> = None;
    let mut blocks = 1usize;
    let mut paired: Option<String> = None;
    let mut guard = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--check" => check = Some(args.next().expect("--check needs a path")),
            "--no-worse-than-serial" => {
                no_worse = Some(args.next().expect("--no-worse-than-serial needs a path"));
            }
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("--tolerance needs a factor")
                    .parse()
                    .expect("--tolerance must be a number");
            }
            "--blocks" => {
                blocks = args
                    .next()
                    .expect("--blocks needs a count")
                    .parse()
                    .expect("--blocks must be a positive integer");
            }
            "--paired" => paired = Some(args.next().expect("--paired needs a path")),
            "--guard-overhead" => guard = true,
            "--threads" => {
                threads = Some(
                    args.next()
                        .expect("--threads needs a count")
                        .parse()
                        .expect("--threads must be a positive integer"),
                );
            }
            other => {
                eprintln!(
                    "unknown flag {other}; known: --tiny, --out <path>, --check <path>, \
                     --no-worse-than-serial <path>, --tolerance <f>, --blocks <b>, \
                     --paired <path>, --guard-overhead, --threads <k>"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(threads_out) = paired {
        let serial_out = out.unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
        });
        run_paired(tiny, threads.unwrap_or(3), blocks.max(1), &serial_out, &threads_out);
        return;
    }
    if let Some(k) = threads {
        par::set_parallelism(par::Parallelism::Threads(k));
    }
    if guard {
        if let Err(msg) = guard_overhead(tiny) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        println!("telemetry overhead guard OK");
        return;
    }

    let mut entries = Vec::new();
    for _ in 0..blocks.max(1) {
        merge_min(&mut entries, collect_entries(tiny));
    }

    for e in &entries {
        println!("{:<44} {:>12.1} ns/iter", e.name, e.ns_per_iter);
    }
    if let Some(baseline) = check {
        if let Err(msg) = check_against(&baseline, &entries) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        println!("baseline shape OK: {baseline}");
        return;
    }
    if let Some(serial_path) = no_worse {
        if let Err(msg) = check_no_worse_than_serial(&serial_path, &entries, tolerance) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        println!("no-worse-than-serial guard OK against {serial_path}");
        return;
    }
    let out = out.unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });
    let json = render_json(&entries, tiny);
    std::fs::write(&out, json).expect("write baseline JSON");
    println!("wrote {out}");
}
