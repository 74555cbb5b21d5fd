//! Always-on evaluator telemetry: per-`HeOpKind` counters and latency
//! histograms in the process-global [`fxhenn_obs`] collector, plus the
//! span-log type the evaluator fills when per-op attribution is wanted.
//!
//! Two tiers, matching DESIGN.md §10:
//!
//! * **Global metrics** (always on): every executed op bumps
//!   `fxhenn_he_ops_total{op=...}` and observes its wall time into
//!   `fxhenn_he_op_latency_ns{op=...}`. Order-independent atomic sums —
//!   identical totals whether the run was serial or threaded.
//! * **Span logs** (opt-in, like tracing): `Evaluator::start_spans`
//!   records `(kind, level, nanos)` per op into an [`OpSpanLog`], which
//!   parents merge from child evaluators in index order — the same
//!   deterministic merge discipline as `OpTrace`, kept in a separate
//!   structure so traces stay timing-free and byte-comparable.

use crate::trace::HeOpKind;
use fxhenn_obs::{global, Counter, Gauge, Histogram, SpanLog};
use std::sync::{Arc, OnceLock};

/// Wall-time spans of executed HE operations: label = `(kind, level)`.
pub type OpSpanLog = SpanLog<(HeOpKind, usize)>;

/// Handles into the global collector, resolved once per process and
/// indexed by [`HeOpKind::index`] so the hot path is two relaxed
/// atomic adds.
pub(crate) struct HeMetrics {
    pub ops: [Arc<Counter>; HeOpKind::COUNT],
    pub latency: [Arc<Histogram>; HeOpKind::COUNT],
    /// Key-switch digit decompositions: one per relinearize, rotate,
    /// conjugate or `hoist` — a hoisted rotation adds none.
    pub decompositions: Arc<Counter>,
    /// Plaintexts encoded by the evaluator (`encode_at` and the helpers
    /// over it); zero per request once a network's operands are cached.
    pub plain_encodes: Arc<Counter>,
}

pub(crate) fn he_metrics() -> &'static HeMetrics {
    static METRICS: OnceLock<HeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| HeMetrics {
        ops: HeOpKind::ALL
            .map(|k| global().counter(&format!("fxhenn_he_ops_total{{op=\"{k}\"}}"))),
        latency: HeOpKind::ALL
            .map(|k| global().histogram(&format!("fxhenn_he_op_latency_ns{{op=\"{k}\"}}"))),
        decompositions: global().counter("fxhenn_ckks_decompositions_total"),
        plain_encodes: global().counter("fxhenn_ckks_plain_encodes_total"),
    })
}

/// Registers the per-op metric families in the global collector without
/// executing any operation — exposition endpoints call this so the
/// families render (at zero) even before the first HE op runs.
pub fn register_he_metrics() {
    let _ = he_metrics();
    fxhenn_math::ntt::register_ntt_metrics();
}

/// Wire-path metric handles: byte volumes through encode/decode, the
/// zero-copy vs fallback-copy decode split, and mmap'd key-frame state.
/// Every `encode_*_v2` adds its frame length to
/// `fxhenn_wire_encoded_bytes_total`; `fxhenn_wire_copied_bytes_total`
/// moves only when a decode falls back to copying a frame's body, which
/// `tests/wire_zero_copy.rs` holds at zero for aligned input.
pub(crate) struct WireMetrics {
    pub encoded_bytes: Arc<Counter>,
    pub decoded_bytes: Arc<Counter>,
    pub copied_bytes: Arc<Counter>,
    pub zero_copy_decodes: Arc<Counter>,
    pub fallback_decodes: Arc<Counter>,
    // Only bumped by the mmap path, but always registered so the
    // families render in the exposition on every build.
    #[cfg_attr(not(all(feature = "mmap-keys", unix)), allow(dead_code))]
    pub mmap_active: Arc<Gauge>,
    #[cfg_attr(not(all(feature = "mmap-keys", unix)), allow(dead_code))]
    pub mmap_maps: Arc<Counter>,
    pub mmap_fallback: Arc<Counter>,
}

pub(crate) fn wire_metrics() -> &'static WireMetrics {
    static METRICS: OnceLock<WireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| WireMetrics {
        encoded_bytes: global().counter("fxhenn_wire_encoded_bytes_total"),
        decoded_bytes: global().counter("fxhenn_wire_decoded_bytes_total"),
        copied_bytes: global().counter("fxhenn_wire_copied_bytes_total"),
        zero_copy_decodes: global().counter("fxhenn_wire_decode_zero_copy_total"),
        fallback_decodes: global().counter("fxhenn_wire_decode_fallback_total"),
        mmap_active: global().gauge("fxhenn_wire_mmap_active"),
        mmap_maps: global().counter("fxhenn_wire_mmap_maps_total"),
        mmap_fallback: global().counter("fxhenn_wire_mmap_fallback_total"),
    })
}

/// Registers the wire metric families so they render (at zero) before
/// the first frame moves.
pub fn register_wire_metrics() {
    let _ = wire_metrics();
}

/// Noise-budget metric handles: per-op-kind histograms of the remaining
/// budget bits after each evaluator op, the floor margin observed at
/// decrypt, and counters for enforcement events (budget exhaustion,
/// canary checks, model violations).
pub(crate) struct NoiseMetrics {
    /// Remaining budget bits (clamped at 0) after each op, per kind.
    pub budget_bits: [Arc<Histogram>; HeOpKind::COUNT],
    /// Remaining budget bits at the most recent decrypt.
    pub floor_margin_bits: Arc<Gauge>,
    /// Histogram of budget bits observed at decrypt time.
    pub decrypt_budget_bits: Arc<Histogram>,
    /// Ops refused because they would cross the noise floor.
    pub exhausted: Arc<Counter>,
    /// Canary cross-checks performed at decrypt.
    pub canary_checks: Arc<Counter>,
    /// Canary checks whose measured error broke the model margin.
    pub model_violations: Arc<Counter>,
}

impl NoiseMetrics {
    /// Records the post-op budget for `kind` (negative budgets clamp
    /// to the zero bucket).
    pub fn observe_op(&self, kind: HeOpKind, budget_bits: f64) {
        self.budget_bits[kind.index()].observe(budget_bits.max(0.0) as u64);
    }

    /// Records the floor margin seen at a decrypt.
    pub fn observe_decrypt(&self, budget_bits: f64) {
        self.floor_margin_bits.set(budget_bits as i64);
        self.decrypt_budget_bits.observe(budget_bits.max(0.0) as u64);
    }
}

pub(crate) fn noise_metrics() -> &'static NoiseMetrics {
    static METRICS: OnceLock<NoiseMetrics> = OnceLock::new();
    METRICS.get_or_init(|| NoiseMetrics {
        budget_bits: HeOpKind::ALL
            .map(|k| global().histogram(&format!("fxhenn_noise_budget_bits{{op=\"{k}\"}}"))),
        floor_margin_bits: global().gauge("fxhenn_noise_floor_margin_bits"),
        decrypt_budget_bits: global().histogram("fxhenn_noise_decrypt_budget_bits"),
        exhausted: global().counter("fxhenn_noise_exhausted_total"),
        canary_checks: global().counter("fxhenn_noise_canary_checks_total"),
        model_violations: global().counter("fxhenn_noise_model_violations_total"),
    })
}

/// Registers the noise metric families so they render (at zero) before
/// the first enforcement event.
pub fn register_noise_metrics() {
    let _ = noise_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_exposes_all_registered_kinds() {
        register_he_metrics();
        let counters = global().counters();
        for kind in HeOpKind::ALL {
            let name = format!("fxhenn_he_ops_total{{op=\"{kind}\"}}");
            assert!(
                counters.iter().any(|(n, _)| *n == name),
                "missing {name}"
            );
        }
    }

    #[test]
    fn composite_op_families_render_in_exposition() {
        // The OP6/OP7 composite workloads must show up in the Prometheus
        // text exposition by their registry names — operators alert on
        // these exact label values, so spell them out rather than trust
        // the `ALL` loop above.
        register_he_metrics();
        register_noise_metrics();
        let text = fxhenn_obs::render_prometheus(global());
        for family in [
            "fxhenn_he_ops_total{op=\"Sign\"}",
            "fxhenn_he_ops_total{op=\"CtMatmul\"}",
            "fxhenn_he_op_latency_ns_count{op=\"Sign\"}",
            "fxhenn_he_op_latency_ns_count{op=\"CtMatmul\"}",
            "fxhenn_noise_budget_bits_count{op=\"Sign\"}",
            "fxhenn_noise_budget_bits_count{op=\"CtMatmul\"}",
        ] {
            assert!(text.contains(family), "exposition is missing {family}");
        }
    }

    #[test]
    fn noise_registration_exposes_all_families() {
        register_noise_metrics();
        let counters = global().counters();
        for name in [
            "fxhenn_noise_exhausted_total",
            "fxhenn_noise_canary_checks_total",
            "fxhenn_noise_model_violations_total",
        ] {
            assert!(counters.iter().any(|(n, _)| *n == name), "missing {name}");
        }
        let histograms = global().histograms();
        for kind in HeOpKind::ALL {
            let name = format!("fxhenn_noise_budget_bits{{op=\"{kind}\"}}");
            assert!(
                histograms.iter().any(|(n, _)| *n == name),
                "missing {name}"
            );
        }
        assert!(histograms
            .iter()
            .any(|(n, _)| *n == "fxhenn_noise_decrypt_budget_bits"));
        assert!(global()
            .gauges()
            .iter()
            .any(|(n, _)| *n == "fxhenn_noise_floor_margin_bits"));
    }

    #[test]
    fn wire_registration_exposes_all_families() {
        register_wire_metrics();
        let counters = global().counters();
        for name in [
            "fxhenn_wire_encoded_bytes_total",
            "fxhenn_wire_decoded_bytes_total",
            "fxhenn_wire_copied_bytes_total",
            "fxhenn_wire_decode_zero_copy_total",
            "fxhenn_wire_decode_fallback_total",
            "fxhenn_wire_mmap_maps_total",
            "fxhenn_wire_mmap_fallback_total",
        ] {
            assert!(counters.iter().any(|(n, _)| *n == name), "missing {name}");
        }
        assert!(global()
            .gauges()
            .iter()
            .any(|(n, _)| *n == "fxhenn_wire_mmap_active"));
    }
}
