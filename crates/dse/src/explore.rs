//! Exhaustive design space exploration (paper Sec. VI-B).
//!
//! The decision variables are, per HE operation module class: the NTT
//! core count `nc_NTT ∈ {2, 4, 8}`, the intra-operation parallelism
//! `P_intra ∈ 1..=L`, and the inter-operation parallelism
//! `P_inter ∈ 1..=4`. CCmult is pinned to the minimal configuration — as
//! the paper observes (Fig. 10), squaring is so rare in
//! ciphertext-input/plaintext-weight inference that parallelizing it
//! never pays. The objective minimizes the summed layer latencies
//! subject to the device's DSP capacity and (URAM-converted) BRAM budget
//! (Eq. 10).
//!
//! The space is a few tens of thousands of points and evaluates in
//! milliseconds — "negligible compared with the FPGA synthesis which
//! takes up to a few hours".

use crate::design::{DesignEval, DesignPoint, ProgramCost};
use crate::error::{BindingConstraint, DseError, InfeasibleDiagnosis, Relaxation};
use fxhenn_hw::{FpgaDevice, ModuleConfig, ModuleSet, OpClass};
use fxhenn_math::budget::{self, BudgetStop, Progress};
use fxhenn_nn::HeCnnProgram;
use std::ops::ControlFlow;

/// Points enumerated between ambient-budget checks. A point evaluation
/// is sub-microsecond, so this keeps check overhead invisible while
/// bounding the post-deadline overrun to well under a millisecond.
const BUDGET_CHECK_INTERVAL: u64 = 512;

/// The searchable configuration axes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// NTT core counts considered for Rescale and KeySwitch.
    pub nc_options: Vec<usize>,
    /// Intra-parallelism options for the NTT-bound classes.
    pub intra_options: Vec<usize>,
    /// Inter-parallelism options for the NTT-bound classes.
    pub inter_options: Vec<usize>,
    /// Parallelism options (intra, inter) for PCmult.
    pub pcmult_options: Vec<(usize, usize)>,
}

impl SearchSpace {
    /// The paper's design space for a program with `max_level` levels.
    pub fn paper_default(max_level: usize) -> Self {
        Self {
            nc_options: vec![2, 4, 8],
            intra_options: (1..=max_level).collect(),
            inter_options: vec![1, 2, 3, 4],
            pcmult_options: vec![(1, 1), (2, 1), (4, 1), (2, 2), (4, 2)],
        }
    }

    /// Number of candidate points this space enumerates.
    pub fn point_count(&self) -> usize {
        let ntt = self.nc_options.len() * self.intra_options.len() * self.inter_options.len();
        ntt * ntt * self.pcmult_options.len()
    }
}

/// One explored design point with its evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploredPoint {
    /// The configuration.
    pub point: DesignPoint,
    /// Its evaluation on the target device.
    pub eval: DesignEval,
}

/// The result of a DSE run.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// The best feasible point (minimum latency), if any exists.
    pub best: Option<ExploredPoint>,
    /// Every feasible point explored (for Pareto analysis, Fig. 9).
    pub feasible: Vec<ExploredPoint>,
    /// Total points enumerated.
    pub points_enumerated: usize,
}

/// Calls `f` with every design point the space enumerates, stopping
/// early when `f` breaks.
fn visit_points(
    space: &SearchSpace,
    mut f: impl FnMut(DesignPoint) -> ControlFlow<BudgetStop>,
) -> Result<(), BudgetStop> {
    for &ks_nc in &space.nc_options {
        for &ks_intra in &space.intra_options {
            for &ks_inter in &space.inter_options {
                for &rs_nc in &space.nc_options {
                    for &rs_intra in &space.intra_options {
                        for &rs_inter in &space.inter_options {
                            for &(pm_intra, pm_inter) in &space.pcmult_options {
                                let mut modules = ModuleSet::minimal();
                                modules.set(
                                    OpClass::KeySwitch,
                                    ModuleConfig {
                                        nc_ntt: ks_nc,
                                        p_intra: ks_intra,
                                        p_inter: ks_inter,
                                    },
                                );
                                modules.set(
                                    OpClass::Rescale,
                                    ModuleConfig {
                                        nc_ntt: rs_nc,
                                        p_intra: rs_intra,
                                        p_inter: rs_inter,
                                    },
                                );
                                modules.set(
                                    OpClass::PcMult,
                                    ModuleConfig {
                                        nc_ntt: 2,
                                        p_intra: pm_intra,
                                        p_inter: pm_inter,
                                    },
                                );
                                if let ControlFlow::Break(stop) = f(DesignPoint { modules }) {
                                    return Err(stop);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Budget-aware enumeration: calls `f` with every point, checking the
/// ambient execution budget every [`BUDGET_CHECK_INTERVAL`] points and
/// stopping with the typed [`BudgetStop`] once it is exhausted.
fn try_for_each_point(
    space: &SearchSpace,
    mut f: impl FnMut(DesignPoint),
) -> Result<(), BudgetStop> {
    let total = space.point_count() as u64;
    let mut done = 0u64;
    visit_points(space, |point| {
        if done.is_multiple_of(BUDGET_CHECK_INTERVAL) {
            if let Err(stop) = budget::check("dse-explore", Progress::of(done, total)) {
                return ControlFlow::Break(stop);
            }
        }
        done += 1;
        f(point);
        ControlFlow::Continue(())
    })
}

/// Calls `f` with every design point the space enumerates. Open-loop:
/// runs to completion regardless of any ambient budget (the `try_`
/// entry points use [`try_for_each_point`] instead).
fn for_each_point(space: &SearchSpace, mut f: impl FnMut(DesignPoint)) {
    // A Continue-only visitor never breaks, so the Result is always Ok.
    let _ = visit_points(space, |point| {
        f(point);
        ControlFlow::Continue(())
    });
}

/// Exhaustively explores the space for a program on a device.
pub fn explore(
    prog: &HeCnnProgram,
    device: &FpgaDevice,
    w_bits: u32,
    space: &SearchSpace,
) -> DseResult {
    let mut best: Option<ExploredPoint> = None;
    let mut feasible = Vec::new();
    let mut enumerated = 0usize;
    let cost = ProgramCost::new(prog, w_bits);

    for_each_point(space, |point| {
        enumerated += 1;
        let eval = cost.evaluate(&point, device);
        // Eq. 10: both DSP and BRAM are hard constraints for DSE
        // candidates.
        if !eval.feasible || !eval.fully_buffered {
            return;
        }
        let explored = ExploredPoint { point, eval };
        if best
            .as_ref()
            .map(|b| explored.eval.latency_s < b.eval.latency_s)
            .unwrap_or(true)
        {
            best = Some(explored.clone());
        }
        feasible.push(explored);
    });

    // Fallback: when no configuration fits fully on-chip (the paper's
    // FxHENN-CIFAR10-on-ACU9EG case, Fig. 10c), build the minimal
    // accelerator and stream the overflow from DRAM with stalls — the
    // design degenerates to "minimum intra- and inter-parallelism".
    if best.is_none() {
        let point = DesignPoint::minimal();
        let eval = cost.evaluate(&point, device);
        if eval.feasible {
            best = Some(ExploredPoint { point, eval });
        }
    }

    DseResult {
        best,
        feasible,
        points_enumerated: enumerated,
    }
}

/// Rejects spaces that enumerate nothing.
fn validate_space(space: &SearchSpace) -> Result<(), DseError> {
    if space.nc_options.is_empty()
        || space.intra_options.is_empty()
        || space.inter_options.is_empty()
        || space.pcmult_options.is_empty()
    {
        return Err(DseError::EmptySearchSpace);
    }
    Ok(())
}

/// Like [`explore`], but reports "no design at all" as a structured
/// [`DseError::Infeasible`] instead of `best: None`, and honours the
/// ambient execution budget: a deadline or cancellation mid-sweep
/// returns [`DseError::Cancelled`] instead of reporting a partial sweep
/// as exhaustive. The DRAM-stall fallback of [`explore`] still applies,
/// so the binding constraint here is always DSP: BRAM shortfalls
/// degrade into stalls.
pub fn try_explore(
    prog: &HeCnnProgram,
    device: &FpgaDevice,
    w_bits: u32,
    space: &SearchSpace,
) -> Result<DseResult, DseError> {
    validate_space(space)?;
    let cost = ProgramCost::new(prog, w_bits);
    let mut best: Option<ExploredPoint> = None;
    let mut feasible = Vec::new();
    let mut enumerated = 0usize;

    try_for_each_point(space, |point| {
        enumerated += 1;
        let eval = cost.evaluate(&point, device);
        if !eval.feasible || !eval.fully_buffered {
            return;
        }
        let explored = ExploredPoint { point, eval };
        if best
            .as_ref()
            .map(|b| explored.eval.latency_s < b.eval.latency_s)
            .unwrap_or(true)
        {
            best = Some(explored.clone());
        }
        feasible.push(explored);
    })?;

    // DRAM-stall fallback, as in `explore`.
    if best.is_none() {
        let point = DesignPoint::minimal();
        let eval = cost.evaluate(&point, device);
        if eval.feasible {
            best = Some(ExploredPoint { point, eval });
        }
    }
    if best.is_some() {
        return Ok(DseResult {
            best,
            feasible,
            points_enumerated: enumerated,
        });
    }
    // Even DesignPoint::minimal() exceeded the DSP budget, so every
    // point did. Name the cheapest point's demand as the floor.
    let mut min_dsp = cost.evaluate(&DesignPoint::minimal(), device).dsp_used;
    try_for_each_point(space, |point| {
        min_dsp = min_dsp.min(cost.evaluate(&point, device).dsp_used);
    })?;
    let available = device.dsp_slices();
    let additional = min_dsp.saturating_sub(available);
    Err(DseError::Infeasible(InfeasibleDiagnosis {
        device: device.name().to_string(),
        binding: BindingConstraint::Dsp {
            required_min: min_dsp,
            available,
        },
        relaxation: (additional > 0).then_some(Relaxation::RaiseDsp { additional }),
    }))
}

/// Convenience: [`try_explore`] with the paper's default space.
pub fn try_explore_default(
    prog: &HeCnnProgram,
    device: &FpgaDevice,
    w_bits: u32,
) -> Result<DseResult, DseError> {
    try_explore(prog, device, w_bits, &SearchSpace::paper_default(prog.max_level))
}

/// Strict exploration: every admitted design must hold its working set
/// fully on-chip — the DRAM-stall fallback of [`explore`] is disabled,
/// so the BRAM budget (Eqs. 8–9) becomes a hard constraint alongside
/// DSP. When nothing fits, the returned [`InfeasibleDiagnosis`] names
/// which of the two bound the search and the nearest feasible
/// relaxation: the smallest resource increase (or `nc_NTT` downgrade
/// below the space's floor) that admits a design.
pub fn try_explore_fully_buffered(
    prog: &HeCnnProgram,
    device: &FpgaDevice,
    w_bits: u32,
    space: &SearchSpace,
) -> Result<DseResult, DseError> {
    validate_space(space)?;
    let cost = ProgramCost::new(prog, w_bits);
    let mut best: Option<ExploredPoint> = None;
    let mut feasible = Vec::new();
    let mut enumerated = 0usize;
    let mut min_dsp: Option<usize> = None;
    // Least BRAM shortfall among DSP-feasible points:
    // (deficit, peak demand, budget at that point).
    let mut shortfall: Option<(usize, usize, usize)> = None;

    try_for_each_point(space, |point| {
        enumerated += 1;
        let eval = cost.evaluate(&point, device);
        min_dsp = Some(min_dsp.map_or(eval.dsp_used, |m| m.min(eval.dsp_used)));
        if eval.feasible && !eval.fully_buffered {
            let budget = cost.bram_budget(&point, device);
            let deficit = eval.bram_peak.saturating_sub(budget);
            if shortfall.is_none_or(|(d, _, _)| deficit < d) {
                shortfall = Some((deficit, eval.bram_peak, budget));
            }
        }
        if !eval.feasible || !eval.fully_buffered {
            return;
        }
        let explored = ExploredPoint { point, eval };
        if best
            .as_ref()
            .map(|b| explored.eval.latency_s < b.eval.latency_s)
            .unwrap_or(true)
        {
            best = Some(explored.clone());
        }
        feasible.push(explored);
    })?;

    if best.is_some() {
        return Ok(DseResult {
            best,
            feasible,
            points_enumerated: enumerated,
        });
    }
    Err(DseError::Infeasible(diagnose(
        &cost, device, space, min_dsp, shortfall,
    )))
}

/// Builds the structured diagnosis for a strict search that admitted
/// nothing.
fn diagnose(
    cost: &ProgramCost,
    device: &FpgaDevice,
    space: &SearchSpace,
    min_dsp: Option<usize>,
    shortfall: Option<(usize, usize, usize)>,
) -> InfeasibleDiagnosis {
    match shortfall {
        // No point even passed the DSP constraint.
        None => {
            let required_min = min_dsp.unwrap_or(0);
            let available = device.dsp_slices();
            let additional = required_min.saturating_sub(available);
            InfeasibleDiagnosis {
                device: device.name().to_string(),
                binding: BindingConstraint::Dsp {
                    required_min,
                    available,
                },
                relaxation: (additional > 0).then_some(Relaxation::RaiseDsp { additional }),
            }
        }
        // DSP-feasible points exist, but all of them overflow BRAM.
        Some((deficit, peak, budget)) => InfeasibleDiagnosis {
            device: device.name().to_string(),
            binding: BindingConstraint::Bram {
                required_min_blocks: peak,
                budget_blocks: budget,
            },
            relaxation: Some(ntt_downgrade(cost, device, space).unwrap_or(
                Relaxation::RaiseBramBudget {
                    additional_blocks: deficit,
                },
            )),
        },
    }
}

/// Checks whether dropping `nc_NTT` below the space's floor shrinks the
/// banked Bn buffers enough to fit on-chip (banking doubles the block
/// count at `nc_NTT = 8`, Sec. VI-A). Returns the largest such
/// downgrade, preferring the smallest change to the space.
fn ntt_downgrade(
    cost: &ProgramCost,
    device: &FpgaDevice,
    space: &SearchSpace,
) -> Option<Relaxation> {
    let floor = space.nc_options.iter().copied().min()?;
    for to in [4usize, 2] {
        if to >= floor {
            continue;
        }
        let cfg = ModuleConfig {
            nc_ntt: to,
            p_intra: 1,
            p_inter: 1,
        };
        let mut modules = ModuleSet::minimal();
        modules.set(OpClass::KeySwitch, cfg);
        modules.set(OpClass::Rescale, cfg);
        let eval = cost.evaluate(&DesignPoint { modules }, device);
        if eval.feasible && eval.fully_buffered {
            return Some(Relaxation::DowngradeNtt { to });
        }
    }
    None
}

/// Convenience: explores with the paper's default space.
pub fn explore_default(prog: &HeCnnProgram, device: &FpgaDevice, w_bits: u32) -> DseResult {
    explore(prog, device, w_bits, &SearchSpace::paper_default(prog.max_level))
}

/// Explores under an artificial BRAM block cap (for the Fig. 9 budget
/// sweep): the device's BRAM is replaced by `bram_cap` blocks and URAM
/// is removed.
pub fn explore_with_bram_cap(
    prog: &HeCnnProgram,
    device: &FpgaDevice,
    w_bits: u32,
    bram_cap: usize,
) -> DseResult {
    let capped = capped_device(device, bram_cap).expect("BRAM cap");
    explore_default(prog, &capped, w_bits)
}

/// Strict (fully-buffered) exploration under an artificial BRAM block
/// cap: the sweep of Fig. 9 continued below the feasibility floor,
/// where the explorer reports *why* the budget no longer admits a
/// design instead of silently degrading to DRAM stalls.
pub fn try_explore_fully_buffered_with_bram_cap(
    prog: &HeCnnProgram,
    device: &FpgaDevice,
    w_bits: u32,
    bram_cap: usize,
) -> Result<DseResult, DseError> {
    let capped = capped_device(device, bram_cap).map_err(DseError::Device)?;
    try_explore_fully_buffered(
        prog,
        &capped,
        w_bits,
        &SearchSpace::paper_default(prog.max_level),
    )
}

/// Replaces the device's BRAM with `bram_cap` blocks and strips URAM.
fn capped_device(
    device: &FpgaDevice,
    bram_cap: usize,
) -> Result<FpgaDevice, fxhenn_hw::ModelError> {
    FpgaDevice::try_new(
        format!("{}-cap{}", device.name(), bram_cap),
        device.dsp_slices(),
        bram_cap,
        0,
        device.clock_mhz(),
        device.tdp_watts(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxhenn_nn::{fxhenn_mnist, lower_network};

    fn mnist() -> HeCnnProgram {
        lower_network(&fxhenn_mnist(1), 8192, 7)
    }

    #[test]
    fn dse_finds_a_feasible_optimum_on_acu9eg() {
        let prog = mnist();
        let res = explore_default(&prog, &FpgaDevice::acu9eg(), 30);
        let best = res.best.expect("ACU9EG admits feasible designs");
        assert!(best.eval.feasible);
        // Paper Table VII: FxHENN-MNIST on ACU9EG runs in 0.24 s.
        assert!(
            (0.1..=0.5).contains(&best.eval.latency_s),
            "optimized MNIST latency = {:.3} s (paper 0.24 s)",
            best.eval.latency_s
        );
        assert!(res.points_enumerated > 1000, "space is non-trivial");
    }

    #[test]
    fn optimum_beats_minimal_point_substantially() {
        let prog = mnist();
        let device = FpgaDevice::acu9eg();
        let minimal = crate::design::evaluate(&prog, &DesignPoint::minimal(), &device, 30);
        let best = explore_default(&prog, &device, 30).best.unwrap();
        let speedup = minimal.latency_s / best.eval.latency_s;
        // Table IX: FxHENN (0.24 s) vs baseline (1.17 s) is ~4.9x.
        assert!(
            speedup > 3.0,
            "DSE speedup over minimal = {speedup:.2}x (paper ~4.9x)"
        );
    }

    #[test]
    fn bigger_device_is_at_least_as_fast() {
        let prog = mnist();
        let a9 = explore_default(&prog, &FpgaDevice::acu9eg(), 30)
            .best
            .unwrap();
        let a15 = explore_default(&prog, &FpgaDevice::acu15eg(), 30)
            .best
            .unwrap();
        assert!(
            a15.eval.latency_s <= a9.eval.latency_s * 1.01,
            "ACU15EG ({:.3}s) should not lose to ACU9EG ({:.3}s)",
            a15.eval.latency_s,
            a9.eval.latency_s
        );
    }

    #[test]
    fn tight_bram_cap_restricts_and_slows_designs() {
        let prog = mnist();
        let device = FpgaDevice::acu9eg();
        // Our buffer calibration floors the smallest feasible design just
        // below ~500 blocks (the paper's Fig. 9 sweep starts at 350).
        let tight = explore_with_bram_cap(&prog, &device, 30, 520);
        let loose = explore_with_bram_cap(&prog, &device, 30, 1500);
        let buffered = |r: &DseResult| r.feasible.iter().filter(|p| p.eval.fully_buffered).count();
        assert!(
            buffered(&tight) < buffered(&loose),
            "fewer designs fit a tight budget fully on-chip (Fig. 9 observation)"
        );
        let t = tight.best.expect("520 blocks still admits a design");
        let l = loose.best.unwrap();
        assert!(
            l.eval.latency_s <= t.eval.latency_s,
            "more BRAM can only help: {:.3}s vs {:.3}s",
            l.eval.latency_s,
            t.eval.latency_s
        );
    }

    #[test]
    fn space_counts_match_enumeration() {
        let prog = mnist();
        let space = SearchSpace {
            nc_options: vec![2, 4],
            intra_options: vec![1, 2],
            inter_options: vec![1],
            pcmult_options: vec![(1, 1)],
        };
        let res = explore(&prog, &FpgaDevice::acu9eg(), 30, &space);
        assert_eq!(res.points_enumerated, space.point_count());
        assert_eq!(res.points_enumerated, 16);
    }

    #[test]
    fn empty_space_is_reported() {
        let prog = mnist();
        let space = SearchSpace {
            nc_options: vec![],
            intra_options: vec![1],
            inter_options: vec![1],
            pcmult_options: vec![(1, 1)],
        };
        let err = try_explore(&prog, &FpgaDevice::acu9eg(), 30, &space).unwrap_err();
        assert_eq!(err, DseError::EmptySearchSpace);
    }

    #[test]
    fn strict_explorer_matches_default_when_everything_fits() {
        let prog = mnist();
        let device = FpgaDevice::acu9eg();
        let space = SearchSpace::paper_default(prog.max_level);
        let strict = try_explore_fully_buffered(&prog, &device, 30, &space)
            .expect("ACU9EG fits fully on-chip");
        let lax = explore(&prog, &device, 30, &space);
        assert_eq!(
            strict.best.unwrap().eval.latency_s,
            lax.best.unwrap().eval.latency_s,
            "with no overflow the stall fallback never engages"
        );
    }

    /// The MNIST program with one extra layer carrying the composite
    /// sign and ct×ct matmul workloads, as a lowered program with both
    /// new op kinds would.
    fn mnist_with_composites() -> HeCnnProgram {
        use fxhenn_ckks::{HeOpKind, OpTrace, RotationSet};
        use fxhenn_nn::{HeLayerClass, HeLayerPlan};
        let mut prog = mnist();
        let mut trace = OpTrace::new();
        trace.record(HeOpKind::Sign, 7);
        trace.record(HeOpKind::Sign, 4);
        trace.record(HeOpKind::CtMatmul, 7);
        prog.layers.push(HeLayerPlan {
            name: "SgnMm".to_string(),
            class: HeLayerClass::Ks,
            trace,
            input_cts: 1,
            output_cts: 1,
            level_in: 7,
            level_out: 1,
            plaintext_words: 0,
            rotation_steps: RotationSet::default(),
        });
        prog
    }

    #[test]
    fn composite_workloads_explore_feasibly_and_cost_extra() {
        // A program whose traces contain Sign and CtMatmul records must
        // still find a feasible design on ACU9EG — the composite module
        // DSP is provisioned on top of every point — and that design is
        // slower than the plain program's, never faster.
        let device = FpgaDevice::acu9eg();
        let plain = explore_default(&mnist(), &device, 30).best.unwrap();
        let res = explore_default(&mnist_with_composites(), &device, 30);
        let best = res.best.expect("ACU9EG still admits the composite program");
        assert!(best.eval.feasible);
        assert!(
            best.eval.latency_s >= plain.eval.latency_s,
            "composite ops add latency: {:.3}s vs {:.3}s",
            best.eval.latency_s,
            plain.eval.latency_s
        );
    }

    #[test]
    fn composite_workloads_name_binding_constraint_when_infeasible() {
        // On a device too small even for the provisioned composites the
        // failure is a diagnosis naming the binding resource, exactly as
        // for the plain program.
        let prog = mnist_with_composites();
        let tiny = FpgaDevice::new("tiny", 128, 912, 0, 250.0, 5.0);
        let err = try_explore_default(&prog, &tiny, 30).unwrap_err();
        let diag = err.diagnosis().expect("infeasible, not empty");
        assert_eq!(diag.device, "tiny");
        assert!(
            matches!(diag.binding, BindingConstraint::Dsp { .. }),
            "expected a DSP diagnosis, got {:?}",
            diag.binding
        );
        // The composite provisioning raises the DSP floor above the
        // plain program's.
        let plain_err = try_explore_default(&mnist(), &tiny, 30).unwrap_err();
        let plain_diag = plain_err.diagnosis().expect("plain also infeasible");
        let floor = |d: &InfeasibleDiagnosis| match d.binding {
            BindingConstraint::Dsp { required_min, .. } => required_min,
            _ => panic!("DSP binding expected"),
        };
        assert!(
            floor(diag) > floor(plain_diag),
            "composites must raise the DSP floor: {} vs {}",
            floor(diag),
            floor(plain_diag)
        );
    }

    #[test]
    fn dsp_infeasibility_names_binding_constraint_and_minimal_fix() {
        let prog = mnist();
        // 128 DSP slices cannot host even the minimal module set.
        let tiny = FpgaDevice::new("tiny", 128, 912, 0, 250.0, 5.0);
        let err = try_explore_default(&prog, &tiny, 30).unwrap_err();
        let diag = err.diagnosis().expect("infeasible, not empty");
        assert_eq!(diag.device, "tiny");
        let (required_min, additional) = match (&diag.binding, &diag.relaxation) {
            (
                BindingConstraint::Dsp {
                    required_min,
                    available: 128,
                },
                Some(Relaxation::RaiseDsp { additional }),
            ) => (*required_min, *additional),
            other => panic!("expected a DSP diagnosis, got {other:?}"),
        };
        assert_eq!(required_min, 128 + additional);
        // The relaxation is exact: that many extra slices admit a
        // design, one fewer does not.
        let fixed = FpgaDevice::new("tiny+", 128 + additional, 912, 0, 250.0, 5.0);
        assert!(try_explore_default(&prog, &fixed, 30).is_ok());
        let short = FpgaDevice::new("tiny-", 128 + additional - 1, 912, 0, 250.0, 5.0);
        assert!(try_explore_default(&prog, &short, 30).is_err());
    }

    #[test]
    fn bram_caps_below_feasibility_floor_yield_exact_diagnosis() {
        // Fig. 9 sweep continued below the ~500-block floor: every cap
        // under the smallest fully-buffered design must produce a BRAM
        // diagnosis whose relaxation is the exact distance back to
        // feasibility.
        let prog = mnist();
        let device = FpgaDevice::acu9eg();
        for cap in [350usize, 400, 450] {
            let err = try_explore_fully_buffered_with_bram_cap(&prog, &device, 30, cap)
                .expect_err("cap below the feasibility floor");
            let diag = err.diagnosis().expect("infeasible, not empty");
            let (need, budget, add) = match (&diag.binding, &diag.relaxation) {
                (
                    BindingConstraint::Bram {
                        required_min_blocks,
                        budget_blocks,
                    },
                    Some(Relaxation::RaiseBramBudget { additional_blocks }),
                ) => (*required_min_blocks, *budget_blocks, *additional_blocks),
                other => panic!("cap {cap}: expected a BRAM diagnosis, got {other:?}"),
            };
            assert_eq!(budget, cap, "no URAM, so the budget is the cap itself");
            assert_eq!(need, cap + add, "relaxation closes exactly the deficit");
            assert!(
                try_explore_fully_buffered_with_bram_cap(&prog, &device, 30, cap + add).is_ok(),
                "cap {cap}: raising the budget by {add} blocks must admit a design"
            );
        }
    }

    #[test]
    fn banking_bound_space_suggests_ntt_downgrade() {
        // With nc_NTT pinned to 8 the Bn banks double (Sec. VI-A), so a
        // budget that comfortably fits nc = 2 designs admits nothing;
        // the nearest relaxation is the core-count downgrade, not more
        // memory.
        let prog = mnist();
        let space = SearchSpace {
            nc_options: vec![8],
            intra_options: vec![1],
            inter_options: vec![1],
            pcmult_options: vec![(1, 1)],
        };
        let capped = FpgaDevice::new("ACU9EG-cap520", 2520, 520, 0, 250.0, 10.0);
        let err = try_explore_fully_buffered(&prog, &capped, 30, &space)
            .expect_err("520 blocks cannot hold doubled banks");
        let diag = err.diagnosis().expect("infeasible, not empty");
        assert!(matches!(diag.binding, BindingConstraint::Bram { .. }));
        assert!(
            matches!(diag.relaxation, Some(Relaxation::DowngradeNtt { to }) if to < 8),
            "expected an nc_NTT downgrade, got {:?}",
            diag.relaxation
        );
    }

    #[test]
    fn zero_bram_cap_is_a_device_error_not_a_panic() {
        let prog = mnist();
        let err = try_explore_fully_buffered_with_bram_cap(&prog, &FpgaDevice::acu9eg(), 30, 0)
            .unwrap_err();
        assert!(matches!(err, DseError::Device(_)), "{err}");
    }

    #[test]
    fn expired_budget_cancels_exploration_with_progress() {
        use fxhenn_math::budget::Budget;
        let prog = mnist();
        let b = Budget::with_deadline(std::time::Duration::ZERO);
        let err = budget::with_budget(&b, || {
            try_explore_default(&prog, &FpgaDevice::acu9eg(), 30)
        })
        .unwrap_err();
        match err {
            DseError::Cancelled(stop) => {
                assert_eq!(stop.phase, "dse-explore");
                assert!(stop.progress.total.is_some(), "space size is known up front");
            }
            other => panic!("expected cancellation, got {other}"),
        }
        // Without an ambient budget the same search completes.
        assert!(try_explore_default(&prog, &FpgaDevice::acu9eg(), 30).is_ok());
    }

    #[test]
    fn ccmult_stays_minimal_in_best_designs() {
        // Fig. 10: CCmult parallelism is 1 in every generated design.
        let prog = mnist();
        let best = explore_default(&prog, &FpgaDevice::acu9eg(), 30)
            .best
            .unwrap();
        assert_eq!(
            best.point.modules.get(OpClass::CcMult),
            ModuleConfig::minimal()
        );
    }
}
