//! Command-line interface (argument parsing and command execution) for
//! the `fxhenn` binary.
//!
//! Kept dependency-free: arguments are `--key value` pairs parsed by
//! hand. The binary in `src/bin/fxhenn.rs` is a thin wrapper so the
//! parser and command logic stay unit-testable.

use crate::flow::generate_accelerator_with_floor;
use crate::report::{layer_table, module_table, summary};
use crate::serve::{
    BatchDriver, ChaosService, DesignFlowService, InferenceRequest, InferenceService, ModelCache,
    ServeConfig,
};
use fxhenn_ckks::CkksParams;
use fxhenn_hw::FpgaDevice;
use fxhenn_nn::{fxhenn_cifar10, fxhenn_mnist, Network};
use fxhenn_obs::AttributionRow;
use std::time::Duration;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the design flow for a model on a device.
    Design {
        /// "mnist" or "cifar10".
        model: String,
        /// "acu9eg" or "acu15eg".
        device: String,
        /// Plan-time noise-admission floor, in bits of remaining
        /// budget; flows whose predicted trajectory dips to or below
        /// this are rejected before DSE.
        noise_floor_bits: f64,
    },
    /// Functionally co-simulate a toy network (real encryption).
    Cosim {
        /// RNG seed.
        seed: u64,
    },
    /// Print workload information for a model.
    Info {
        /// "mnist" or "cifar10".
        model: String,
    },
    /// Run the deadline-aware batch driver over a stream of design
    /// requests (demonstrates load shedding and per-request deadlines).
    Serve {
        /// "mnist" or "cifar10".
        model: String,
        /// Requests to submit.
        requests: u64,
        /// Deadline per request, in milliseconds.
        deadline_ms: u64,
        /// Admission queue capacity.
        queue: usize,
        /// Every n-th request gets a deliberately tight (1 ms)
        /// deadline; 0 disables the mix.
        tight_every: u64,
        /// Spread requests round-robin across this many tenants
        /// (tenant-0, tenant-1, …); 1 keeps the default tenant.
        tenants: usize,
        /// Worker evaluators in the pool.
        workers: usize,
        /// Serve against the deterministic chaos fault injector (over
        /// real CKKS key material) instead of the design flow.
        chaos: bool,
        /// Seed for the chaos schedule and key generation.
        seed: u64,
        /// Append a Prometheus text exposition of the global collector
        /// to the output.
        metrics: bool,
        /// Serve exactly one HTTP scrape of the exposition on this
        /// local port before exiting (0 picks a free port).
        metrics_port: Option<u16>,
    },
    /// Run one instrumented encrypted inference on the toy network and
    /// report measured-vs-analytic latency attribution.
    Infer {
        /// RNG seed.
        seed: u64,
        /// "text" or "json".
        report: String,
        /// Runtime noise floor for the executor's evaluator, in bits;
        /// ops that would drop the tracked budget to or below this
        /// fail typed instead of decrypting garbage.
        noise_floor_bits: f64,
    },
    /// Print usage.
    Help,
}

/// Parse or execution errors with a user-facing message, tagged with
/// the phase that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    phase: &'static str,
    message: String,
}

impl CliError {
    /// Creates an error attributed to `phase`.
    #[must_use]
    pub fn new(phase: &'static str, message: impl Into<String>) -> Self {
        Self {
            phase,
            message: message.into(),
        }
    }

    /// The phase that produced the error — a stable label suitable for
    /// span and metric names ("parse", "design", "serve", "infer", …).
    #[must_use]
    pub fn phase(&self) -> &'static str {
        self.phase
    }

    /// The human-readable message, without the phase prefix.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.phase, self.message)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
fxhenn — FPGA accelerator designs for HE-CNN inference

USAGE:
    fxhenn design --model <mnist|cifar10> --device <acu9eg|acu15eg>
                  [--noise-floor-bits <f64>]
    fxhenn cosim  [--seed <u64>]
    fxhenn infer  [--seed <u64>] [--report <text|json>] [--noise-floor-bits <f64>]
    fxhenn info   --model <mnist|cifar10>
    fxhenn serve  [--model <mnist|cifar10>] [--requests <n>] [--deadline-ms <ms>]
                  [--queue <n>] [--tight-every <n>] [--tenants <n>] [--workers <n>]
                  [--chaos] [--seed <u64>] [--metrics] [--metrics-port <port>]
    fxhenn help
";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] with a usage hint on unknown commands or
/// missing/invalid flags.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let parse_err = |m: String| CliError::new("parse", m);
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("design") => {
            let model = flag_value(args, "--model")
                .ok_or_else(|| parse_err("design needs --model <mnist|cifar10>".into()))?;
            let device = flag_value(args, "--device")
                .ok_or_else(|| parse_err("design needs --device <acu9eg|acu15eg>".into()))?;
            validate_model(model)?;
            validate_device(device)?;
            Ok(Command::Design {
                model: model.to_string(),
                device: device.to_string(),
                noise_floor_bits: parse_f64_flag(
                    args,
                    "--noise-floor-bits",
                    fxhenn_nn::DEFAULT_PLAN_FLOOR_BITS,
                )?,
            })
        }
        Some("cosim") => Ok(Command::Cosim {
            seed: parse_flag(args, "--seed", 7)?,
        }),
        Some("infer") => {
            let report = flag_value(args, "--report").unwrap_or("text");
            match report {
                "text" | "json" => {}
                other => {
                    return Err(parse_err(format!(
                        "--report must be text or json, got {other:?}"
                    )))
                }
            }
            Ok(Command::Infer {
                seed: parse_flag(args, "--seed", 7)?,
                report: report.to_string(),
                noise_floor_bits: parse_f64_flag(args, "--noise-floor-bits", 0.0)?,
            })
        }
        Some("info") => {
            let model = flag_value(args, "--model")
                .ok_or_else(|| parse_err("info needs --model <mnist|cifar10>".into()))?;
            validate_model(model)?;
            Ok(Command::Info {
                model: model.to_string(),
            })
        }
        Some("serve") => {
            let model = flag_value(args, "--model").unwrap_or("mnist");
            validate_model(model)?;
            let metrics_port = match flag_value(args, "--metrics-port") {
                None => None,
                Some(s) => Some(s.parse().map_err(|_| {
                    parse_err(format!("--metrics-port must be a port number, got {s:?}"))
                })?),
            };
            Ok(Command::Serve {
                model: model.to_string(),
                requests: parse_flag(args, "--requests", 6)?,
                deadline_ms: parse_flag(args, "--deadline-ms", 30_000)?,
                queue: parse_flag(args, "--queue", 4)?,
                tight_every: parse_flag(args, "--tight-every", 3)?,
                tenants: parse_flag(args, "--tenants", 1)?,
                workers: parse_flag(args, "--workers", 1)?,
                chaos: args.iter().any(|a| a == "--chaos"),
                seed: parse_flag(args, "--seed", 7)?,
                metrics: args.iter().any(|a| a == "--metrics"),
                metrics_port,
            })
        }
        Some(other) => Err(parse_err(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, CliError> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| {
            CliError::new("parse", format!("{flag} must be an integer, got {s:?}"))
        }),
    }
}

fn parse_f64_flag(args: &[String], flag: &str, default: f64) -> Result<f64, CliError> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(s) => match s.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(CliError::new(
                "parse",
                format!("{flag} must be a finite number, got {s:?}"),
            )),
        },
    }
}

fn validate_model(model: &str) -> Result<(), CliError> {
    match model {
        "mnist" | "cifar10" => Ok(()),
        other => Err(CliError::new(
            "parse",
            format!("unknown model {other:?}: expected mnist or cifar10"),
        )),
    }
}

fn validate_device(device: &str) -> Result<(), CliError> {
    match device {
        "acu9eg" | "acu15eg" => Ok(()),
        other => Err(CliError::new(
            "parse",
            format!("unknown device {other:?}: expected acu9eg or acu15eg"),
        )),
    }
}

fn model_of(name: &str) -> Result<(Network, CkksParams), CliError> {
    match name {
        "mnist" => Ok((fxhenn_mnist(42), CkksParams::fxhenn_mnist())),
        "cifar10" => Ok((fxhenn_cifar10(42), CkksParams::fxhenn_cifar10())),
        other => Err(CliError::new(
            "parse",
            format!("unknown model {other:?}: expected mnist or cifar10"),
        )),
    }
}

fn device_of(name: &str) -> Result<FpgaDevice, CliError> {
    match name {
        "acu9eg" => Ok(FpgaDevice::acu9eg()),
        "acu15eg" => Ok(FpgaDevice::acu15eg()),
        other => Err(CliError::new(
            "parse",
            format!("unknown device {other:?}: expected acu9eg or acu15eg"),
        )),
    }
}

/// Executes a parsed command, returning its stdout text.
///
/// # Errors
///
/// Returns a [`CliError`] when the flow fails (e.g. no feasible design).
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Design {
            model,
            device,
            noise_floor_bits,
        } => {
            let (net, params) = model_of(model)?;
            let dev = device_of(device)?;
            let report = generate_accelerator_with_floor(&net, &params, &dev, *noise_floor_bits)
                .map_err(|e| CliError::new(e.phase(), e.to_string()))?;
            Ok(format!(
                "{}\n\nModules:\n{}\nLayers:\n{}",
                summary(&report, &dev),
                module_table(&report),
                layer_table(&report)
            ))
        }
        Command::Info { model } => {
            let (net, params) = model_of(model)?;
            let prog = fxhenn_nn::try_lower_network(&net, params.degree(), params.levels())
                .map_err(|e| CliError::new("info", e.to_string()))?;
            let mut out = format!(
                "{}: N={}, L={}, log2Q={}, {}\n{} HOPs, {} KeySwitches, {:.1} MB encoded model\n",
                net.name(),
                params.degree(),
                params.levels(),
                params.total_modulus_bits(),
                params.security(),
                prog.hop_count(),
                prog.key_switch_count(),
                prog.model_size_bytes() as f64 / (1024.0 * 1024.0),
            );
            for plan in &prog.layers {
                out.push_str(&format!(
                    "  {:<6} [{}] {:>6} HOPs {:>6} KS, level {} -> {}\n",
                    plan.name,
                    plan.class,
                    plan.hop_count(),
                    plan.key_switch_count(),
                    plan.level_in,
                    plan.level_out
                ));
            }
            Ok(out)
        }
        Command::Serve {
            model,
            requests,
            deadline_ms,
            queue,
            tight_every,
            tenants,
            workers,
            chaos,
            seed,
            metrics,
            metrics_port,
        } => {
            validate_model(model)?;
            if *metrics || metrics_port.is_some() {
                // Register every metric family up front so the
                // exposition renders them (at zero) even for families
                // this run never touches.
                crate::telemetry::register_serve_metrics();
                fxhenn_ckks::register_he_metrics();
                fxhenn_ckks::register_noise_metrics();
                fxhenn_nn::register_nn_metrics();
            }
            let cfg = ServeConfig {
                queue_capacity: (*queue).max(1),
                worker_count: (*workers).max(1),
                ..ServeConfig::default()
            };
            let mut out = String::new();
            if *chaos {
                // Chaos mode: a shared, integrity-checked key cache
                // feeds every worker; the injector rolls deterministic
                // faults from --seed. Its Galois keys are cut to level 2,
                // below the injector's top-level template (the key-switch
                // fault class).
                let mut cache = ModelCache::new();
                let rotations = fxhenn_ckks::RotationSet::at_level([1, 2], 2);
                cache.generate("chaos", CkksParams::insecure_toy(3), &rotations, *seed);
                let cache = std::sync::Arc::new(cache);
                let worker_seed = *seed;
                let mut driver = BatchDriver::with_factory(
                    cfg,
                    Box::new(move || ChaosService::from_cache(&cache, "chaos", worker_seed)),
                )
                .map_err(|e| CliError::new("serve", e.to_string()))?;
                run_serve_stream(
                    &mut driver,
                    *requests,
                    *deadline_ms,
                    *tight_every,
                    *tenants,
                    "chaos",
                    &mut out,
                    |_| "ok".to_string(),
                );
            } else if *workers > 1 {
                let mut driver = BatchDriver::with_factory(
                    cfg,
                    Box::new(|| Ok(DesignFlowService::new(FpgaDevice::acu9eg()))),
                )
                .map_err(|e| CliError::new("serve", e.to_string()))?;
                run_serve_stream(
                    &mut driver,
                    *requests,
                    *deadline_ms,
                    *tight_every,
                    *tenants,
                    model,
                    &mut out,
                    |report| {
                        format!("ok, {:.3} s simulated inference latency", report.latency_s())
                    },
                );
            } else {
                let mut driver =
                    BatchDriver::new(DesignFlowService::new(FpgaDevice::acu9eg()), cfg);
                run_serve_stream(
                    &mut driver,
                    *requests,
                    *deadline_ms,
                    *tight_every,
                    *tenants,
                    model,
                    &mut out,
                    |report| {
                        format!("ok, {:.3} s simulated inference latency", report.latency_s())
                    },
                );
            }
            if *metrics || metrics_port.is_some() {
                let exposition = fxhenn_obs::render_prometheus(fxhenn_obs::global());
                if let Some(port) = metrics_port {
                    let listener = std::net::TcpListener::bind(("127.0.0.1", *port))
                        .map_err(|e| {
                            CliError::new(
                                "serve",
                                format!("metrics endpoint: cannot bind port {port}: {e}"),
                            )
                        })?;
                    let addr = serve_metrics_once(&listener, &exposition)?;
                    out.push_str(&format!("metrics: served one scrape on http://{addr}\n"));
                }
                if *metrics {
                    out.push_str(&exposition);
                }
            }
            Ok(out)
        }
        Command::Infer {
            seed,
            report,
            noise_floor_bits,
        } => run_infer(*seed, report, *noise_floor_bits),
        Command::Cosim { seed } => {
            let net = fxhenn_nn::toy_mnist_like(*seed);
            let image = fxhenn_nn::synthetic_input(&net, *seed);
            let report = fxhenn_sim::try_cosimulate(
                &net,
                &image,
                CkksParams::insecure_toy(7),
                *seed,
            )
            .map_err(|e| CliError::new("cosim", e.to_string()))?;
            Ok(format!(
                "toy network, seed {seed}\nplaintext logits: {:?}\ndecrypted logits: {:?}\n\
                 max error {:.5}, argmax agrees: {}, trace matches: {}\n",
                report.expected,
                report.actual,
                report.max_error,
                report.argmax_agrees,
                report.trace_matches()
            ))
        }
    }
}

/// Submits `requests` requests (round-robin across `tenants` tenants,
/// every `tight_every`-th with a deliberately tight 1 ms deadline),
/// drains the queue and appends one line per outcome plus the report.
#[allow(clippy::too_many_arguments)]
fn run_serve_stream<S: InferenceService + Send>(
    driver: &mut BatchDriver<S>,
    requests: u64,
    deadline_ms: u64,
    tight_every: u64,
    tenants: usize,
    model: &str,
    out: &mut String,
    render: impl Fn(&S::Output) -> String,
) where
    S::Output: Send,
{
    for id in 0..requests {
        let tight = tight_every != 0 && (id + 1) % tight_every == 0;
        let deadline = if tight {
            Duration::from_millis(1)
        } else {
            Duration::from_millis(deadline_ms)
        };
        let mut req = InferenceRequest::new(id, model, deadline);
        if tenants > 1 {
            req = req.with_tenant(format!("tenant-{}", id % tenants as u64));
        }
        if let Err(e) = driver.submit(req) {
            out.push_str(&format!("request {id}: rejected: {e}\n"));
        }
    }
    for (id, outcome) in driver.run_queue() {
        match outcome {
            Ok(o) => out.push_str(&format!("request {id}: {}\n", render(&o))),
            Err(e) => out.push_str(&format!("request {id}: {e}\n")),
        }
    }
    out.push_str(&format!("serve: {}\n", driver.report()));
}

/// Serves exactly one HTTP scrape of `body` on `listener`, then
/// returns the local address it served on. The accept loop is
/// non-blocking with a 60 s deadline so a scrape that never arrives
/// cannot wedge the CLI.
fn serve_metrics_once(
    listener: &std::net::TcpListener,
    body: &str,
) -> Result<std::net::SocketAddr, CliError> {
    use std::io::{Read as _, Write as _};
    let err = |m: String| CliError::new("serve", m);
    listener
        .set_nonblocking(true)
        .map_err(|e| err(format!("metrics endpoint: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| err(format!("metrics endpoint: {e}")))?;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                // Drain (part of) the request line; the response is the
                // same whatever was asked.
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let response = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                stream
                    .write_all(response.as_bytes())
                    .map_err(|e| err(format!("metrics endpoint: {e}")))?;
                return Ok(addr);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if std::time::Instant::now() >= deadline {
                    return Err(err(
                        "metrics endpoint: no scrape arrived within 60 s".to_string()
                    ));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(err(format!("metrics endpoint: {e}"))),
        }
    }
}

/// Runs one instrumented encrypted inference of the toy network and
/// joins the measured per-op/per-layer wall time against the analytic
/// cycle model of the DSE-optimal design for the same program — the
/// paper's Table I validation loop as a CLI command.
fn run_infer(seed: u64, report: &str, noise_floor_bits: f64) -> Result<String, CliError> {
    use fxhenn_ckks::{CkksContext, Encryptor, HeOpKind, KeyGenerator};
    use fxhenn_hw::{HeOpModule, OpClass};
    use fxhenn_nn::executor::{try_encrypt_input_for, HeCnnExecutor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let err = |m: String| CliError::new("infer", m);
    let net = fxhenn_nn::toy_mnist_like(seed);
    let image = fxhenn_nn::synthetic_input(&net, seed);
    let params = CkksParams::insecure_toy(7);
    let ctx = CkksContext::new(params.clone());
    let prog = fxhenn_nn::try_lower_network(&net, ctx.degree(), ctx.max_level())
        .map_err(|e| err(e.to_string()))?;

    // Analytic side of the join: the DSE-optimal module set for this
    // program on the reference device.
    let device = FpgaDevice::acu9eg();
    let dse = fxhenn_dse::explore::try_explore_default(&prog, &device, params.prime_bits())
        .map_err(|e| CliError::new("dse", e.to_string()))?;
    let design = dse
        .best
        .ok_or_else(|| err(format!("no feasible design on {}", device.name())))?;
    let modules = design.point.modules.clone();
    let cycles_of = |kind: HeOpKind, level: usize| -> u64 {
        let class = OpClass::from(kind);
        HeOpModule::new(class, modules.get(class)).op_latency_cycles(level, ctx.degree())
    };

    // Measured side: the real encrypted inference, with op spans and
    // layer spans on.
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
    let pk = kg.public_key();
    let rk = kg.relin_key();
    let gks = kg.galois_keys_at(&prog.required_rotations());
    let mut enc = Encryptor::new(&ctx, pk, StdRng::seed_from_u64(seed ^ 0x5eed));
    // Measured against the modeled cycles of `prog`, so run its schedule.
    let faithful = fxhenn_nn::LoweringProfile::PaperFaithful;
    let input = try_encrypt_input_for(&net, &image, &mut enc, ctx.degree() / 2, faithful)
        .map_err(|e| err(e.to_string()))?;
    let mut exec = HeCnnExecutor::with_profile(&ctx, &rk, &gks, faithful);
    exec.set_noise_floor_bits(noise_floor_bits);
    exec.start_spans();
    exec.start_layer_spans();
    let _output = exec.try_run(&net, &input).map_err(|e| err(e.to_string()))?;
    let spans = exec
        .take_spans()
        .ok_or_else(|| err("executor produced no op spans".into()))?;
    let layer_spans = exec
        .take_layer_spans()
        .ok_or_else(|| err("executor produced no layer spans".into()))?;

    // Per-kind join, in HeOpKind::ALL order.
    let mut per_kind: Vec<(String, u64, u64, u64)> = Vec::new();
    for kind in HeOpKind::ALL {
        let mut count = 0u64;
        let mut ns = 0u64;
        let mut cycles = 0u64;
        for s in spans.spans() {
            if s.label.0 == kind {
                count += 1;
                ns += s.nanos;
                cycles += cycles_of(kind, s.label.1);
            }
        }
        if count > 0 {
            per_kind.push((kind.to_string(), count, ns, cycles));
        }
    }
    let op_rows = fxhenn_obs::attribution_rows(&per_kind);

    // Per-layer join: measured layer wall time against the modeled
    // cycles of that layer plan's op trace.
    let per_layer: Vec<(String, u64, u64, u64)> = layer_spans
        .spans()
        .iter()
        .map(|s| {
            let modeled: u64 = prog
                .layers
                .iter()
                .find(|p| p.name == s.label)
                .map(|p| {
                    p.trace
                        .records()
                        .iter()
                        .map(|r| cycles_of(r.kind, r.level))
                        .sum()
                })
                .unwrap_or(0);
            (s.label.clone(), 1, s.nanos, modeled)
        })
        .collect();
    let layer_rows = fxhenn_obs::attribution_rows(&per_layer);

    match report {
        "json" => Ok(render_infer_json(
            seed,
            net.name(),
            device.name(),
            ctx.degree(),
            spans.total_nanos(),
            &op_rows,
            &layer_rows,
        )),
        _ => Ok(render_infer_text(
            seed,
            net.name(),
            device.name(),
            ctx.degree(),
            spans.total_nanos(),
            &op_rows,
            &layer_rows,
        )),
    }
}

fn render_attr_json(rows: &[AttributionRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "    {{\"key\": \"{}\", \"count\": {}, \"measured_ns\": {}, \
                 \"modeled_cycles\": {}, \"measured_share_pct\": {:.4}, \
                 \"modeled_share_pct\": {:.4}, \"model_error_pct\": {:.4}}}",
                r.key,
                r.count,
                r.measured_ns,
                r.modeled_cycles,
                r.measured_share_pct,
                r.modeled_share_pct,
                r.model_error_pct
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

#[allow(clippy::too_many_arguments)]
fn render_infer_json(
    seed: u64,
    network: &str,
    device: &str,
    degree: usize,
    total_ns: u64,
    op_rows: &[AttributionRow],
    layer_rows: &[AttributionRow],
) -> String {
    format!(
        "{{\n  \"schema\": \"fxhenn-infer-report/v1\",\n  \"seed\": {seed},\n  \
         \"network\": \"{network}\",\n  \"device\": \"{device}\",\n  \
         \"degree\": {degree},\n  \"total_measured_ns\": {total_ns},\n  \
         \"ops\": [\n{}\n  ],\n  \"layers\": [\n{}\n  ]\n}}\n",
        render_attr_json(op_rows),
        render_attr_json(layer_rows),
    )
}

fn render_attr_table(out: &mut String, rows: &[AttributionRow]) {
    out.push_str(&format!(
        "  {:<12} {:>6} {:>14} {:>15} {:>7} {:>7} {:>8}\n",
        "key", "count", "measured_ns", "modeled_cycles", "meas%", "model%", "err(pp)"
    ));
    for r in rows {
        out.push_str(&format!(
            "  {:<12} {:>6} {:>14} {:>15} {:>7.2} {:>7.2} {:>+8.2}\n",
            r.key,
            r.count,
            r.measured_ns,
            r.modeled_cycles,
            r.measured_share_pct,
            r.modeled_share_pct,
            r.model_error_pct
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn render_infer_text(
    seed: u64,
    network: &str,
    device: &str,
    degree: usize,
    total_ns: u64,
    op_rows: &[AttributionRow],
    layer_rows: &[AttributionRow],
) -> String {
    let mut out = format!(
        "{network}, seed {seed}, N={degree}, analytic model for {device}\n\
         measured HE time: {:.3} ms\n\nper-op attribution (share space):\n",
        total_ns as f64 / 1e6
    );
    render_attr_table(&mut out, op_rows);
    out.push_str("\nper-layer attribution (share space):\n");
    render_attr_table(&mut out, layer_rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_design_command() {
        let cmd = parse(&args(&["design", "--model", "mnist", "--device", "acu9eg"])).unwrap();
        assert_eq!(
            cmd,
            Command::Design {
                model: "mnist".into(),
                device: "acu9eg".into(),
                noise_floor_bits: fxhenn_nn::DEFAULT_PLAN_FLOOR_BITS,
            }
        );
        let cmd = parse(&args(&[
            "design",
            "--model",
            "mnist",
            "--device",
            "acu9eg",
            "--noise-floor-bits",
            "6.5",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Design {
                model: "mnist".into(),
                device: "acu9eg".into(),
                noise_floor_bits: 6.5,
            }
        );
        assert!(parse(&args(&[
            "design",
            "--model",
            "mnist",
            "--device",
            "acu9eg",
            "--noise-floor-bits",
            "NaN",
        ]))
        .is_err());
    }

    #[test]
    fn parses_cosim_with_default_seed() {
        assert_eq!(parse(&args(&["cosim"])).unwrap(), Command::Cosim { seed: 7 });
        assert_eq!(
            parse(&args(&["cosim", "--seed", "42"])).unwrap(),
            Command::Cosim { seed: 42 }
        );
    }

    #[test]
    fn rejects_unknown_model_and_device() {
        assert!(parse(&args(&["design", "--model", "resnet", "--device", "acu9eg"])).is_err());
        assert!(parse(&args(&["design", "--model", "mnist", "--device", "vu9p"])).is_err());
        assert!(parse(&args(&["design", "--model", "mnist"])).is_err());
    }

    #[test]
    fn rejects_bad_seed_and_unknown_command() {
        assert!(parse(&args(&["cosim", "--seed", "abc"])).is_err());
        assert!(parse(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn empty_and_help_yield_usage() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["help"])).unwrap(), Command::Help);
        let out = run(&Command::Help).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn info_runs_for_mnist() {
        let cmd = parse(&args(&["info", "--model", "mnist"])).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("FxHENN-MNIST"));
        assert!(out.contains("HOPs"));
        assert!(out.contains("Cnv1"));
    }

    #[test]
    fn cosim_runs_and_agrees() {
        let out = run(&Command::Cosim { seed: 3 }).unwrap();
        assert!(out.contains("argmax agrees: true"), "{out}");
        assert!(out.contains("trace matches: true"));
    }

    #[test]
    fn unvalidated_command_is_an_error_not_a_panic() {
        // Commands constructed directly (bypassing parse) must still
        // fail with a typed error instead of hitting unreachable code.
        let err = run(&Command::Design {
            model: "resnet".into(),
            device: "acu9eg".into(),
            noise_floor_bits: fxhenn_nn::DEFAULT_PLAN_FLOOR_BITS,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown model"), "{err}");
        let err = run(&Command::Design {
            model: "mnist".into(),
            device: "vu9p".into(),
            noise_floor_bits: fxhenn_nn::DEFAULT_PLAN_FLOOR_BITS,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown device"), "{err}");
        assert!(run(&Command::Info {
            model: "vgg".into()
        })
        .is_err());
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        assert_eq!(
            parse(&args(&["serve"])).unwrap(),
            Command::Serve {
                model: "mnist".into(),
                requests: 6,
                deadline_ms: 30_000,
                queue: 4,
                tight_every: 3,
                tenants: 1,
                workers: 1,
                chaos: false,
                seed: 7,
                metrics: false,
                metrics_port: None,
            }
        );
        assert_eq!(
            parse(&args(&[
                "serve",
                "--model",
                "mnist",
                "--requests",
                "10",
                "--deadline-ms",
                "500",
                "--queue",
                "2",
                "--tight-every",
                "0",
                "--tenants",
                "3",
                "--workers",
                "2",
                "--chaos",
                "--seed",
                "11",
                "--metrics",
                "--metrics-port",
                "9464",
            ]))
            .unwrap(),
            Command::Serve {
                model: "mnist".into(),
                requests: 10,
                deadline_ms: 500,
                queue: 2,
                tight_every: 0,
                tenants: 3,
                workers: 2,
                chaos: true,
                seed: 11,
                metrics: true,
                metrics_port: Some(9464),
            }
        );
        assert!(parse(&args(&["serve", "--model", "resnet"])).is_err());
        assert!(parse(&args(&["serve", "--requests", "many"])).is_err());
        assert!(parse(&args(&["serve", "--metrics-port", "not-a-port"])).is_err());
    }

    #[test]
    fn parses_infer_and_validates_report_format() {
        assert_eq!(
            parse(&args(&["infer"])).unwrap(),
            Command::Infer {
                seed: 7,
                report: "text".into(),
                noise_floor_bits: 0.0,
            }
        );
        assert_eq!(
            parse(&args(&[
                "infer",
                "--seed",
                "3",
                "--report",
                "json",
                "--noise-floor-bits",
                "1.5",
            ]))
            .unwrap(),
            Command::Infer {
                seed: 3,
                report: "json".into(),
                noise_floor_bits: 1.5,
            }
        );
        let err = parse(&args(&["infer", "--report", "xml"])).unwrap_err();
        assert_eq!(err.phase(), "parse");
        assert!(err.to_string().contains("--report"), "{err}");
    }

    #[test]
    fn cli_error_display_leads_with_the_phase() {
        let e = CliError::new("serve", "boom");
        assert_eq!(e.to_string(), "serve: boom");
        assert_eq!(e.phase(), "serve");
        assert_eq!(e.message(), "boom");
    }

    #[test]
    fn serve_sheds_load_beyond_the_queue() {
        // 3 requests into a 1-slot queue: one completes, two are shed
        // with a typed overload rejection — and the driver reports it.
        let out = run(&Command::Serve {
            model: "mnist".into(),
            requests: 3,
            deadline_ms: 60_000,
            queue: 1,
            tight_every: 0,
            tenants: 1,
            workers: 1,
            chaos: false,
            seed: 7,
            metrics: false,
            metrics_port: None,
        })
        .unwrap();
        assert!(out.contains("request 0: ok"), "{out}");
        assert!(out.contains("request 1: rejected: overloaded"), "{out}");
        assert!(out.contains("request 2: rejected: overloaded"), "{out}");
        assert!(out.contains("completed=1 shed=2"), "{out}");
    }

    #[test]
    fn serve_cancels_a_tight_deadline_request() {
        // Every request tight (1 ms): the flow is stopped by its
        // budget and reported as cancelled, not as infeasible.
        let out = run(&Command::Serve {
            model: "mnist".into(),
            requests: 1,
            deadline_ms: 60_000,
            queue: 1,
            tight_every: 1,
            tenants: 1,
            workers: 1,
            chaos: false,
            seed: 7,
            metrics: false,
            metrics_port: None,
        })
        .unwrap();
        assert!(out.contains("request 0: request stopped:"), "{out}");
        assert!(out.contains("expired during"), "{out}");
        assert!(out.contains("cancelled=1"), "{out}");
    }

    #[test]
    fn serve_metrics_flag_appends_the_exposition() {
        let out = run(&Command::Serve {
            model: "mnist".into(),
            requests: 2,
            deadline_ms: 60_000,
            queue: 1,
            tight_every: 0,
            tenants: 1,
            workers: 1,
            chaos: false,
            seed: 7,
            metrics: true,
            metrics_port: None,
        })
        .unwrap();
        assert!(out.contains("# TYPE fxhenn_serve_shed_total counter"), "{out}");
        assert!(out.contains("# TYPE fxhenn_serve_queue_depth gauge"), "{out}");
        assert!(
            out.contains("# TYPE fxhenn_serve_workers_healthy gauge"),
            "{out}"
        );
        assert!(
            out.contains("# TYPE fxhenn_serve_worker_quarantines_total counter"),
            "{out}"
        );
        assert!(
            out.contains("# TYPE fxhenn_serve_service_time_ns histogram"),
            "{out}"
        );
        // Registration makes families this run never touched render too.
        assert!(out.contains("fxhenn_nn_layers_total"), "{out}");
    }

    #[test]
    fn serve_chaos_mode_terminates_every_request_with_a_typed_outcome() {
        let out = run(&Command::Serve {
            model: "mnist".into(),
            requests: 12,
            deadline_ms: 10_000,
            queue: 16,
            tight_every: 0,
            tenants: 3,
            workers: 2,
            chaos: true,
            seed: 7,
            metrics: false,
            metrics_port: None,
        })
        .unwrap();
        // Every request appears exactly once in the output with a
        // typed line, and the report accounts for all twelve.
        for id in 0..12 {
            assert!(out.contains(&format!("request {id}: ")), "{out}");
        }
        assert!(out.contains("submitted=12"), "{out}");
    }

    #[test]
    fn metrics_endpoint_serves_one_scrape_and_exits() {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        });
        let served = serve_metrics_once(&listener, "demo_total 1\n").unwrap();
        assert_eq!(served, addr);
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"), "{response}");
        assert!(response.ends_with("demo_total 1\n"), "{response}");
    }

    #[test]
    fn infer_reports_measured_vs_analytic_attribution() {
        let text = run(&Command::Infer {
            seed: 3,
            report: "text".into(),
            noise_floor_bits: 0.0,
        })
        .unwrap();
        assert!(text.contains("per-op attribution"), "{text}");
        assert!(text.contains("per-layer attribution"), "{text}");
        assert!(text.contains("CCmult"), "{text}");
        assert!(text.contains("err(pp)"), "{text}");

        let json = run(&Command::Infer {
            seed: 3,
            report: "json".into(),
            noise_floor_bits: 0.0,
        })
        .unwrap();
        assert!(json.contains("\"schema\": \"fxhenn-infer-report/v1\""), "{json}");
        assert!(json.contains("\"model_error_pct\""), "{json}");
        assert!(json.contains("\"key\": \"Rescale\""), "{json}");
        assert!(json.contains("\"layers\""), "{json}");
        // Share-space model error sums to ~zero across op rows.
        let errs: Vec<f64> = json
            .lines()
            .take_while(|l| !l.contains("\"layers\""))
            .filter_map(|l| {
                l.split("\"model_error_pct\": ")
                    .nth(1)
                    .and_then(|t| t.trim_end_matches(['}', ',', ' ']).parse().ok())
            })
            .collect();
        assert!(!errs.is_empty(), "{json}");
        let sum: f64 = errs.iter().sum();
        assert!(sum.abs() < 0.1, "op model errors sum to {sum}");
    }

    #[test]
    fn design_runs_for_mnist_on_acu9eg() {
        let cmd = Command::Design {
            model: "mnist".into(),
            device: "acu9eg".into(),
            noise_floor_bits: fxhenn_nn::DEFAULT_PLAN_FLOOR_BITS,
        };
        let out = run(&cmd).unwrap();
        assert!(out.contains("FxHENN-MNIST"));
        assert!(out.contains("KeySwitch"));
    }

    #[test]
    fn unreachable_noise_floor_rejects_the_design() {
        // An absurd admission floor turns an otherwise feasible flow
        // into a typed noise-admission failure naming the binding layer.
        let err = run(&Command::Design {
            model: "mnist".into(),
            device: "acu9eg".into(),
            noise_floor_bits: 1e6,
        })
        .unwrap_err();
        assert_eq!(err.phase(), "noise-admission");
        assert!(
            err.to_string().contains("no noise-feasible evaluation"),
            "{err}"
        );
    }

    #[test]
    fn unreachable_noise_floor_fails_infer_typed() {
        // The runtime floor fires inside the executor's evaluator: the
        // inference fails with the typed exhaustion error instead of
        // decrypting garbage.
        let err = run(&Command::Infer {
            seed: 3,
            report: "text".into(),
            noise_floor_bits: 1e6,
        })
        .unwrap_err();
        assert_eq!(err.phase(), "infer");
        assert!(err.to_string().contains("noise budget exhausted"), "{err}");
    }
}
