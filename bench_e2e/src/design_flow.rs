//! `design_flow`: the paper's own contribution — lowering, design space
//! exploration and cycle simulation over both networks and both
//! devices. It executes no HE kernel, so a kernel change must leave it
//! flat; its simulated statistics are deterministic, so a change that
//! only speeds the flow up must leave them identical.

use crate::trace::{median, Tracer};
use crate::workload::{put, Metrics, OpReport, Shape, Workload};
use fxhenn::ckks::CkksParams;
use fxhenn::dse::explore::{try_explore_default, ExploredPoint};
use fxhenn::nn::{
    fxhenn_cifar10, fxhenn_mnist, lower_network, toy_cryptonets_like, toy_mnist_like, HeCnnProgram,
    Network,
};
use fxhenn::sim::{simulate, SimReport, PAPER_FXHENN_ROWS};
use fxhenn::{generate_accelerator, FpgaDevice};
use std::collections::BTreeMap;
use std::time::Instant;

/// One (network, parameters, device) point of the sweep.
struct Config {
    /// `<net>_<device>`, as the per-layer metric names spell it.
    label: String,
    net_label: &'static str,
    net: Network,
    params: CkksParams,
    device: FpgaDevice,
    /// The network lowered at set-up; every sweep must lower to the same.
    program: HeCnnProgram,
    /// The paper's Table VII latency for this point, in seconds.
    paper_latency_s: f64,
}

/// The simulated statistics of one config: what every sweep must
/// reproduce exactly.
#[derive(Clone, PartialEq)]
struct Simulated {
    design: ExploredPoint,
    sim: SimReport,
    points_explored: usize,
}

pub struct DesignFlow {
    configs: Vec<Config>,
    /// Statistics of the first sweep, per config.
    reference: Vec<Option<Simulated>>,
}

impl DesignFlow {
    pub fn setup(seed: u64, shape: Shape) -> Result<Self, String> {
        let nets = match shape {
            Shape::Full => [
                (
                    "mnist",
                    "MNIST",
                    fxhenn_mnist(seed),
                    CkksParams::fxhenn_mnist(),
                ),
                (
                    "cifar10",
                    "CIFAR10",
                    fxhenn_cifar10(seed),
                    CkksParams::fxhenn_cifar10(),
                ),
            ],
            Shape::Tiny => [
                (
                    "mnist",
                    "MNIST",
                    toy_mnist_like(seed),
                    CkksParams::insecure_toy(7),
                ),
                (
                    "cifar10",
                    "CIFAR10",
                    toy_cryptonets_like(seed),
                    CkksParams::insecure_toy(7),
                ),
            ],
        };
        let mut configs = Vec::new();
        for (net_label, dataset, net, params) in nets {
            for device in [FpgaDevice::acu9eg(), FpgaDevice::acu15eg()] {
                let paper_latency_s = PAPER_FXHENN_ROWS
                    .iter()
                    .find(|(d, dev, _)| *d == dataset && *dev == device.name())
                    .map(|&(_, _, latency)| latency)
                    .ok_or_else(|| {
                        format!("Table VII has no {dataset} on {} row", device.name())
                    })?;
                configs.push(Config {
                    label: format!("{net_label}_{}", device.name().to_lowercase()),
                    net_label,
                    net: net.clone(),
                    params: params.clone(),
                    device,
                    program: lower_network(&net, params.degree(), params.levels()),
                    paper_latency_s,
                });
            }
        }
        let reference = vec![None; configs.len()];
        Ok(Self { configs, reference })
    }

    /// Mean |ours − paper| / paper over the Table VII rows, in percent.
    fn model_paper_err_pct(&self) -> f64 {
        let errs: Vec<f64> = self
            .configs
            .iter()
            .zip(&self.reference)
            .filter_map(|(c, r)| {
                let ours = r.as_ref()?.sim.total_seconds;
                Some((ours - c.paper_latency_s).abs() / c.paper_latency_s * 100.0)
            })
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

impl Workload for DesignFlow {
    fn warmup(&self) -> u64 {
        1
    }

    /// One sweep over the four configs.
    fn op(&mut self, index: u64, tr: &mut Tracer) -> OpReport {
        let started = Instant::now();
        let sweep = tr.enter("design_flow.sweep", index);
        let mut verdict = Ok(());
        for (config, reference) in self.configs.iter().zip(&mut self.reference) {
            let c = config;
            let span = tr.enter(&format!("nn.lower.{}", c.net_label), index);
            let program = lower_network(&c.net, c.params.degree(), c.params.levels());
            tr.exit(span);

            let span = tr.enter("core.flow.generate_accelerator", index);
            let report = generate_accelerator(&c.net, &c.params, &c.device);
            tr.exit(span);
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    verdict = Err(format!("{}: {e}", c.label));
                    continue;
                }
            };

            let span = tr.enter("sim.simulate", index);
            let resimulated = simulate(
                &program,
                &report.design.point,
                &c.device,
                c.params.prime_bits(),
            );
            tr.exit(span);

            let simulated = Simulated {
                design: report.design,
                sim: report.sim,
                points_explored: report.points_explored,
            };
            if program != c.program || program != report.program || resimulated != simulated.sim {
                verdict = Err(format!(
                    "{}: the flow's pieces disagree with the flow",
                    c.label
                ));
            }
            match reference {
                Some(first) if *first != simulated => {
                    verdict = Err(format!(
                        "{}: simulated statistics changed between sweeps",
                        c.label
                    ));
                }
                Some(_) => {}
                None => *reference = Some(simulated),
            }
        }
        tr.exit(sweep);
        OpReport::single(
            started.elapsed().as_secs_f64(),
            verdict,
            "design_flow sweep",
        )
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("configs_per_sweep", self.configs.len() as f64),
            ("model_paper_err_pct", self.model_paper_err_pct()),
        ]
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        // Per sweep: the sum over its configs; across sweeps: the median.
        let per_sweep = |name: &str| {
            let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
            for s in tr.spans().iter().filter(|s| s.name == name) {
                *sums.entry(s.request).or_default() += s.seconds();
            }
            let sums: Vec<f64> = sums.into_values().collect();
            (median(&sums), sums.len())
        };
        for net in ["mnist", "cifar10"] {
            // Two lowerings of each network per sweep (one per device).
            let (sum, n) = per_sweep(&format!("nn.lower.{net}"));
            put(out, format!("nn.lower_{net}_s"), sum / 2.0, "s", n * 2);
        }
        let (flow, n) = per_sweep("core.flow.generate_accelerator");
        put(out, "core.flow.generate_accelerator_s", flow, "s", n);
        let (sim, n) = per_sweep("sim.simulate");
        put(out, "sim.simulate_s", sim, "s", n);

        let mut points = 0;
        for (c, reference) in self.configs.iter().zip(&self.reference) {
            let started = Instant::now();
            let explored = try_explore_default(&c.program, &c.device, c.params.prime_bits());
            put(
                out,
                format!("dse.explore_s.{}", c.label),
                started.elapsed().as_secs_f64(),
                "s",
                1,
            );
            points += explored.map_or(0, |r| r.points_enumerated);
            let modelled = reference.as_ref().map_or(f64::NAN, |r| r.sim.total_seconds);
            put(
                out,
                format!("sim.modeled_latency_s.{}", c.label),
                modelled,
                "s",
                1,
            );
        }
        put(
            out,
            "dse.points_evaluated",
            points as f64,
            "count",
            self.configs.len(),
        );
        put(
            out,
            "sim.model_paper_err_pct",
            self.model_paper_err_pct(),
            "%",
            self.configs.len(),
        );
    }
}
