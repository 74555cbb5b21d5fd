//! Trace-driven cycle simulation of a generated accelerator.
//!
//! Where the analytic layer model (Eqs. 1–3) reasons about the
//! steady-state bottleneck, the simulator *executes* the layer's HE
//! operation trace against module stations: every operation occupies one
//! instance of its class's module for its pipeline interval, instances
//! are claimed earliest-free, and the layer makespan includes explicit
//! pipeline fill (the first operation's full latency) and drain. BRAM
//! starvation is modeled with the harmonic stall factor calibrated on
//! Table III.

use fxhenn_dse::baseline::stall_factor;
use fxhenn_dse::design::{layer_governing_config, DesignPoint};
use fxhenn_hw::buffers::layer_bram_blocks;
use fxhenn_hw::calibration::LAYER_PIPELINE_OVERHEAD;
use fxhenn_hw::layer::LayerShape;
use fxhenn_hw::modules::{HeOpModule, OpClass};
use fxhenn_hw::FpgaDevice;
use fxhenn_math::budget::{self, BudgetStop, Progress};
use fxhenn_nn::{HeCnnProgram, HeLayerPlan};

/// Trace records processed between ambient-budget checks inside one
/// layer's station simulation. Station claims are nanosecond-scale, so
/// this bounds the post-deadline overrun without measurable overhead;
/// under an injected station stall every record is checked, against a
/// clock the stall has advanced.
const STALL_CHECK_INTERVAL: u64 = 64;

/// Simulation result for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSim {
    /// Layer name.
    pub name: String,
    /// Makespan in cycles (before stalls).
    pub cycles: u64,
    /// Stall multiplier from BRAM starvation (1.0 when fully buffered).
    pub stall: f64,
    /// Wall-clock seconds including stalls.
    pub seconds: f64,
    /// BRAM blocks the layer wants resident.
    pub bram_demand: usize,
    /// BRAM blocks it was granted.
    pub bram_granted: usize,
}

/// Simulation result for a full inference.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-layer results in execution order.
    pub layers: Vec<LayerSim>,
    /// End-to-end latency in seconds.
    pub total_seconds: f64,
    /// Energy at the device TDP, in joules.
    pub energy_joules: f64,
}

impl SimReport {
    /// The slowest layer, or `None` for an empty report. `total_cmp`
    /// makes the choice total even if a latency were NaN.
    pub fn try_bottleneck(&self) -> Option<&LayerSim> {
        self.layers
            .iter()
            .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
    }

    /// The slowest layer.
    ///
    /// # Panics
    ///
    /// Panics on an empty report; [`Self::try_bottleneck`] returns
    /// `None` instead.
    pub fn bottleneck(&self) -> &LayerSim {
        self.try_bottleneck().expect("at least one layer")
    }
}

/// Event-driven makespan of one layer's trace on the design's module
/// stations, in cycles (before the calibrated overhead factor).
///
/// Checks the ambient execution budget every [`STALL_CHECK_INTERVAL`]
/// records. An injected [`crate::faults::with_station_stall`] delay is
/// charged per station claim to the clock those checks read — the stall
/// is simulated time, not a sleep — so a never-completing station
/// surfaces as a typed [`BudgetStop`] after the same number of records
/// on any host.
fn layer_makespan_cycles(
    plan: &HeLayerPlan,
    point: &DesignPoint,
    degree: usize,
) -> Result<u64, BudgetStop> {
    // Earliest-free time per (class, instance).
    let mut stations: std::collections::BTreeMap<OpClass, Vec<u64>> =
        std::collections::BTreeMap::new();
    let mut finish = 0u64;
    let total_records = plan.trace.records().len() as u64;
    let stalling = crate::faults::station_stall_active();
    for (ri, rec) in plan.trace.records().iter().enumerate() {
        let progress = Progress::of(ri as u64, total_records);
        if stalling {
            let stalled = crate::faults::charge_station_stall().unwrap_or_default();
            budget::check_at("sim-station", progress, std::time::Instant::now() + stalled)?;
        } else if (ri as u64).is_multiple_of(STALL_CHECK_INTERVAL) {
            budget::check("sim-station", progress)?;
        }
        let class = OpClass::from(rec.kind);
        let cfg = point.modules.get(class);
        let module = HeOpModule::new(class, cfg);
        let pi = module.pipeline_interval_cycles(rec.level, degree);
        let occupancy = if class == OpClass::KeySwitch {
            rec.level as u64 * pi
        } else {
            pi
        };
        let insts = stations
            .entry(class)
            .or_insert_with(|| vec![0u64; cfg.p_inter.max(1)]);
        // earliest-free instance
        // invariant: the station vector above is never empty.
        let (idx, &free_at) = insts
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one module instance");
        let end = free_at + occupancy;
        insts[idx] = end;
        finish = finish.max(end);
    }
    // Pipeline drain: the last operation's results still flush through
    // the downstream stages (approximately one standalone op latency of
    // the slowest class used).
    let drain = plan
        .trace
        .kinds_used()
        .into_iter()
        .map(|k| {
            let class = OpClass::from(k);
            HeOpModule::new(class, point.modules.get(class))
                .op_latency_cycles(plan.level_in, degree)
        })
        .max()
        .unwrap_or(0);
    Ok(finish + drain)
}

/// Simulates a full inference of `prog` on the design, with each layer
/// granted `bram_grants[i]` blocks (pass the layer demands to simulate a
/// fully buffered FxHENN design). Returns a typed error when the grant
/// vector does not line up with the program or the program is empty.
pub fn try_simulate_with_grants(
    prog: &HeCnnProgram,
    point: &DesignPoint,
    device: &FpgaDevice,
    w_bits: u32,
    bram_grants: &[usize],
) -> Result<SimReport, crate::error::SimError> {
    if prog.layers.is_empty() {
        return Err(crate::error::SimError::EmptyProgram);
    }
    if bram_grants.len() != prog.layers.len() {
        return Err(crate::error::SimError::GrantCountMismatch {
            expected: prog.layers.len(),
            got: bram_grants.len(),
        });
    }
    let total_layers = prog.layers.len() as u64;
    let mut layers = Vec::with_capacity(prog.layers.len());
    for (li, (plan, &granted)) in prog.layers.iter().zip(bram_grants).enumerate() {
        budget::check("sim-layer", Progress::of(li as u64, total_layers))?;
        let shape = LayerShape::from_plan(plan, prog.degree, w_bits);
        let cfg = layer_governing_config(plan.class, &point.modules);
        let demand = layer_bram_blocks(&shape, &cfg);
        let cycles =
            (layer_makespan_cycles(plan, point, prog.degree)? as f64 * LAYER_PIPELINE_OVERHEAD)
                as u64;
        let stall = stall_factor(granted, demand, plan.class);
        let seconds = cycles as f64 * device.cycle_seconds() * stall;
        layers.push(LayerSim {
            name: plan.name.clone(),
            cycles,
            stall,
            seconds,
            bram_demand: demand,
            bram_granted: granted,
        });
    }
    let total_seconds: f64 = layers.iter().map(|l| l.seconds).sum();
    Ok(SimReport {
        layers,
        total_seconds,
        energy_joules: total_seconds * device.tdp_watts(),
    })
}

/// Simulates with explicit BRAM grants.
///
/// # Panics
///
/// Panics when the grant vector does not line up with the program;
/// [`try_simulate_with_grants`] returns a typed error instead.
pub fn simulate_with_grants(
    prog: &HeCnnProgram,
    point: &DesignPoint,
    device: &FpgaDevice,
    w_bits: u32,
    bram_grants: &[usize],
) -> SimReport {
    try_simulate_with_grants(prog, point, device, w_bits, bram_grants).expect("simulation")
}

/// Simulates a fully buffered FxHENN design (every layer granted its
/// demand — valid whenever the DSE marked the point feasible, since the
/// peak demand fits the device). Returns a typed error for an empty
/// program.
pub fn try_simulate(
    prog: &HeCnnProgram,
    point: &DesignPoint,
    device: &FpgaDevice,
    w_bits: u32,
) -> Result<SimReport, crate::error::SimError> {
    let grants: Vec<usize> = prog
        .layers
        .iter()
        .map(|plan| {
            let shape = LayerShape::from_plan(plan, prog.degree, w_bits);
            let cfg = layer_governing_config(plan.class, &point.modules);
            layer_bram_blocks(&shape, &cfg)
        })
        .collect();
    try_simulate_with_grants(prog, point, device, w_bits, &grants)
}

/// Simulates a fully buffered FxHENN design.
///
/// # Panics
///
/// Panics for an empty program; [`try_simulate`] returns a typed error
/// instead.
pub fn simulate(
    prog: &HeCnnProgram,
    point: &DesignPoint,
    device: &FpgaDevice,
    w_bits: u32,
) -> SimReport {
    try_simulate(prog, point, device, w_bits).expect("simulation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxhenn_dse::design::evaluate;
    use fxhenn_nn::{fxhenn_mnist, lower_network};

    fn mnist() -> HeCnnProgram {
        lower_network(&fxhenn_mnist(1), 8192, 7)
    }

    #[test]
    fn simulator_agrees_with_analytic_model() {
        let prog = mnist();
        let device = FpgaDevice::acu9eg();
        let point = DesignPoint::minimal();
        let sim = simulate(&prog, &point, &device, 30);
        let analytic = evaluate(&prog, &point, &device, 30);
        let ratio = sim.total_seconds / analytic.latency_s;
        assert!(
            (0.7..=1.6).contains(&ratio),
            "event simulation ({:.3}s) vs analytic model ({:.3}s): ratio {ratio:.2}",
            sim.total_seconds,
            analytic.latency_s
        );
    }

    #[test]
    fn fully_buffered_layers_do_not_stall() {
        let prog = mnist();
        let sim = simulate(&prog, &DesignPoint::minimal(), &FpgaDevice::acu9eg(), 30);
        for l in &sim.layers {
            assert_eq!(l.stall, 1.0, "{} should not stall", l.name);
            assert_eq!(l.bram_granted, l.bram_demand);
        }
    }

    #[test]
    fn starved_layers_slow_down() {
        let prog = mnist();
        let device = FpgaDevice::acu9eg();
        let point = DesignPoint::minimal();
        let full = simulate(&prog, &point, &device, 30);
        let halves: Vec<usize> = full.layers.iter().map(|l| l.bram_demand / 2).collect();
        let starved = simulate_with_grants(&prog, &point, &device, 30, &halves);
        assert!(starved.total_seconds > full.total_seconds * 1.3);
        for l in &starved.layers {
            assert!(l.stall > 1.0, "{} should stall", l.name);
        }
    }

    #[test]
    fn zero_grants_reproduce_table3_magnitude() {
        // Table III: Fc1 all-off-chip is ~139x slower.
        let prog = mnist();
        let device = FpgaDevice::acu9eg();
        let point = DesignPoint::minimal();
        let full = simulate(&prog, &point, &device, 30);
        let zeros = vec![0usize; prog.layers.len()];
        let off = simulate_with_grants(&prog, &point, &device, 30, &zeros);
        let fc1_idx = prog.layers.iter().position(|l| l.name == "Fc1").unwrap();
        let ratio = off.layers[fc1_idx].seconds / full.layers[fc1_idx].seconds;
        assert!(
            (130.0..150.0).contains(&ratio),
            "Fc1 off-chip ratio = {ratio:.1} (paper 139.6x)"
        );
    }

    #[test]
    fn bottleneck_is_fc1() {
        let prog = mnist();
        let sim = simulate(&prog, &DesignPoint::minimal(), &FpgaDevice::acu9eg(), 30);
        assert_eq!(sim.bottleneck().name, "Fc1");
    }

    #[test]
    fn energy_is_tdp_times_latency() {
        let prog = mnist();
        let device = FpgaDevice::acu9eg();
        let sim = simulate(&prog, &DesignPoint::minimal(), &device, 30);
        assert!((sim.energy_joules - sim.total_seconds * 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one BRAM grant per layer")]
    fn wrong_grant_count_panics() {
        let prog = mnist();
        simulate_with_grants(
            &prog,
            &DesignPoint::minimal(),
            &FpgaDevice::acu9eg(),
            30,
            &[1, 2],
        );
    }

    #[test]
    fn wrong_grant_count_is_a_typed_error() {
        let prog = mnist();
        let err = try_simulate_with_grants(
            &prog,
            &DesignPoint::minimal(),
            &FpgaDevice::acu9eg(),
            30,
            &[1, 2],
        )
        .unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::GrantCountMismatch {
                expected: prog.layers.len(),
                got: 2
            }
        );
    }

    #[test]
    fn stalled_station_surfaces_as_cancelled_within_twice_the_deadline() {
        use fxhenn_math::budget::Budget;
        use std::time::Duration;
        let prog = mnist();
        let deadline = Duration::from_millis(50);
        // 5 ms per station claim over thousands of trace records would
        // run for minutes; the budget must cut it off at the deadline.
        // The stall advances the budget's clock rather than sleeping, so
        // the stop lands on the same record however busy the host is.
        let err = crate::faults::with_station_stall(Duration::from_millis(5), || {
            budget::with_budget(&Budget::with_deadline(deadline), || {
                try_simulate(&prog, &DesignPoint::minimal(), &FpgaDevice::acu9eg(), 30)
            })
        })
        .unwrap_err();
        match err {
            crate::error::SimError::Cancelled(stop) => {
                assert_eq!(stop.phase, "sim-station");
                assert!(stop.elapsed >= deadline, "stopped early: {:?}", stop.elapsed);
                assert!(
                    stop.elapsed < deadline * 2,
                    "stopped after {:?}, more than 2x the {deadline:?} deadline",
                    stop.elapsed
                );
                assert!(stop.progress.done <= 11, "ten 5 ms claims reach the deadline");
            }
            other => panic!("expected cancellation, got {other}"),
        }
    }

    #[test]
    fn empty_report_has_no_bottleneck() {
        let report = SimReport {
            layers: vec![],
            total_seconds: 0.0,
            energy_joules: 0.0,
        };
        assert!(report.try_bottleneck().is_none());
    }
}
