//! Supervised multi-tenant serving: a bounded-queue, deadline-aware
//! driver over the FxHENN design flow with a worker pool, per-tenant
//! admission control and fault isolation.
//!
//! A deployed accelerator serves many inference requests from many
//! tenants, each with its own latency budget. This module provides the
//! software-side driver for that regime:
//!
//! * **Admission control** — requests enter a bounded queue; when the
//!   queue is full the driver *sheds load* with a typed
//!   [`ServeError::Overloaded`] carrying a retry-after hint derived
//!   from the measured (EWMA) service time — seeded, before any sample
//!   exists, from the analytic cycle model's latency for the requested
//!   model ([`analytic_service_estimate`]).
//! * **Tenant quotas and fairness** — every request carries a
//!   [`TenantId`]; a tenant may hold at most `tenant_quota` queued
//!   requests ([`ServeError::QuotaExceeded`] past that), and dequeue is
//!   weighted-fair (deficit round-robin over per-tenant lanes,
//!   [`WeightedFairQueue`]) so one flooding tenant cannot starve the
//!   others.
//! * **Per-request deadlines** — every dispatched request runs under an
//!   ambient [`Budget`], so the whole pipeline (evaluator ops, layers,
//!   DSE points, simulated trace records) stops cooperatively at the
//!   next check point once the deadline passes.
//! * **Retry with backoff** — transiently-failed attempts are retried
//!   with capped exponential backoff plus deterministic jitter, never
//!   past the request's own deadline.
//! * **Per-tenant circuit breakers** — consecutive failures against one
//!   `(tenant, model)` pair trip that pair's [`CircuitBreaker`]
//!   (closed → open → half-open), so a poisoned model stops consuming
//!   queue slots until a cooldown elapses — without bleeding into other
//!   tenants running the same model.
//! * **Worker supervision** — the driver owns a pool of worker
//!   evaluators. Failures add penalty points to the worker that served
//!   them (permanent faults weigh double; deadline slips are the
//!   request's fault, not the worker's). A worker whose penalty crosses
//!   `quarantine_threshold` is quarantined and rebuilt from the service
//!   factory — which typically re-verifies key material against a
//!   shared [`ModelCache`] — and re-enters rotation only when the
//!   rebuild succeeds.
//! * **Requests in parallel** — [`BatchDriver::run_queue`] drains the
//!   queue in waves of up to one request per healthy worker, run at the
//!   same time through [`par::fan_out`] (the calling thread serves one
//!   of them). Accounting stays on the calling thread, in dequeue
//!   order, after each wave returns.
//! * **Graceful degradation and drain** — consecutive deadline slips
//!   shrink the waves to one request under [`Parallelism::Serial`],
//!   trading throughput for the predictable latency of one unthreaded
//!   request at a time; and [`BatchDriver::drain`] closes admission
//!   ([`ServeError::Draining`]) while already-queued requests run to
//!   completion.
//!
//! Requests are admitted with [`BatchDriver::submit`] and drained with
//! [`BatchDriver::run_queue`]; both are called from one thread, which
//! owns every piece of driver state. Hard cancellation from outside
//! (operator abort) rides the driver's [`CancelToken`], which is
//! attached to every dispatched budget; [`ChaosService`] provides the
//! deterministic fault injector behind `fxhenn serve --chaos` and the
//! chaos-soak harness.

use crate::flow::{generate_accelerator, DesignReport, FlowError};
use crate::telemetry::{serve_metrics, tenant_metrics, TenantMetrics};
use fxhenn_ckks::wire::{
    decode_galois_keys_v2, encode_ciphertext_v2, encode_galois_keys_v2, encode_public_key_v2,
    encode_relin_key_v2, open_checksummed, seal_checksummed_v2, AlignedBytes, MappedFrame,
};
use fxhenn_ckks::{
    decode_public_key_checksummed, decode_relin_key_checksummed, Canary, Ciphertext, CkksContext,
    CkksParams, Encryptor, Evaluator, GaloisKeys, HeOpKind, KeyGenerator, PublicKey, RelinKey,
    RotationSet, SignPreset, DEFAULT_CANARY_MARGIN, DEFAULT_CANARY_SLOTS,
};
use fxhenn_hw::modules::{HeOpModule, ModuleConfig, OpClass};
use fxhenn_hw::FpgaDevice;
use fxhenn_math::budget::{self, Budget, BudgetStop, CancelToken, Progress, StopCause};
use fxhenn_math::par::{self, Parallelism};
use fxhenn_nn::{fxhenn_cifar10, fxhenn_mnist, try_lower_network, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The tenant a request is billed to. Quotas, fairness lanes and
/// circuit breakers are all scoped by tenant; the default tenant is
/// `"default"` for single-tenant deployments that never mention one.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

impl TenantId {
    /// A tenant identifier from any string-like name.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The tenant name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        Self("default".to_string())
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        Self::new(name)
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        Self(name)
    }
}

/// Tuning knobs for the [`BatchDriver`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Requests the admission queue holds before shedding load.
    pub queue_capacity: usize,
    /// Queued requests one tenant may hold before further submissions
    /// are rejected with [`ServeError::QuotaExceeded`].
    pub tenant_quota: usize,
    /// Worker evaluators in the pool (used by
    /// [`BatchDriver::with_factory`]; [`BatchDriver::new`] always runs
    /// one worker).
    pub worker_count: usize,
    /// Penalty points (transient failure = 1, permanent = 2; a success
    /// repays 1) at which a worker is quarantined and rebuilt.
    pub quarantine_threshold: u32,
    /// Retries granted to a transiently-failed request (attempts are
    /// `max_retries + 1` in total).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Consecutive failures on one `(tenant, model)` pair that trip its
    /// breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before one probe request
    /// is admitted (half-open).
    pub breaker_cooldown: Duration,
    /// Consecutive deadline slips before the driver degrades to
    /// one-wide waves under [`Parallelism::Serial`].
    pub slip_threshold: u32,
    /// Seed for the EWMA service-time estimate (used in retry-after
    /// hints before any request has completed, when the analytic model
    /// has no entry for the requested network).
    pub service_time_hint: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 16,
            tenant_quota: 8,
            worker_count: 1,
            quarantine_threshold: 3,
            max_retries: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            slip_threshold: 2,
            service_time_hint: Duration::from_millis(50),
        }
    }
}

impl ServeConfig {
    /// A builder seeded with the default configuration; [`build`]
    /// validates the combination before handing out a config.
    ///
    /// [`build`]: ServeConfigBuilder::build
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }
}

/// Builds a validated [`ServeConfig`]. Every setter overrides one field
/// of the default configuration; [`build`](Self::build) rejects
/// combinations the driver cannot run (a zero-capacity queue, a breaker
/// that trips on zero failures, backoff floors above their ceiling).
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the admission-queue capacity (must be at least 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.cfg.queue_capacity = n;
        self
    }

    /// Sets the per-tenant queued-request quota (must be at least 1).
    pub fn tenant_quota(mut self, n: usize) -> Self {
        self.cfg.tenant_quota = n;
        self
    }

    /// Sets the worker-pool size (must be at least 1).
    pub fn worker_count(mut self, n: usize) -> Self {
        self.cfg.worker_count = n;
        self
    }

    /// Sets the penalty-point threshold that quarantines a worker
    /// (must be at least 1).
    pub fn quarantine_threshold(mut self, n: u32) -> Self {
        self.cfg.quarantine_threshold = n;
        self
    }

    /// Sets the retry allowance for transient failures.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.cfg.max_retries = n;
        self
    }

    /// Sets the backoff before the first retry.
    pub fn base_backoff(mut self, d: Duration) -> Self {
        self.cfg.base_backoff = d;
        self
    }

    /// Sets the ceiling on any single backoff sleep.
    pub fn max_backoff(mut self, d: Duration) -> Self {
        self.cfg.max_backoff = d;
        self
    }

    /// Sets the consecutive-failure count that trips a breaker (must be
    /// at least 1).
    pub fn breaker_threshold(mut self, n: u32) -> Self {
        self.cfg.breaker_threshold = n;
        self
    }

    /// Sets how long a tripped breaker stays open.
    pub fn breaker_cooldown(mut self, d: Duration) -> Self {
        self.cfg.breaker_cooldown = d;
        self
    }

    /// Sets the consecutive deadline slips before serial degradation
    /// (must be at least 1).
    pub fn slip_threshold(mut self, n: u32) -> Self {
        self.cfg.slip_threshold = n;
        self
    }

    /// Sets the seed for the EWMA service-time estimate (must be
    /// non-zero — a zero estimate would emit useless retry-after
    /// hints).
    pub fn service_time_hint(mut self, d: Duration) -> Self {
        self.cfg.service_time_hint = d;
        self
    }

    /// Validates the combination and returns the config.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the offending field when
    /// `queue_capacity`, `tenant_quota`, `worker_count`,
    /// `quarantine_threshold`, `breaker_threshold` or `slip_threshold`
    /// is zero, when `base_backoff` exceeds `max_backoff`, or when
    /// `service_time_hint` is zero.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        let invalid = |message: String| Err(ServeError::InvalidConfig { message });
        let c = &self.cfg;
        if c.queue_capacity == 0 {
            return invalid("queue_capacity must be at least 1".into());
        }
        if c.tenant_quota == 0 {
            return invalid("tenant_quota must be at least 1".into());
        }
        if c.worker_count == 0 {
            return invalid("worker_count must be at least 1".into());
        }
        if c.quarantine_threshold == 0 {
            return invalid("quarantine_threshold must be at least 1".into());
        }
        if c.breaker_threshold == 0 {
            return invalid("breaker_threshold must be at least 1".into());
        }
        if c.slip_threshold == 0 {
            return invalid("slip_threshold must be at least 1".into());
        }
        if c.base_backoff > c.max_backoff {
            return invalid(format!(
                "base_backoff {:?} exceeds max_backoff {:?}",
                c.base_backoff, c.max_backoff
            ));
        }
        if c.service_time_hint.is_zero() {
            return invalid("service_time_hint must be non-zero".into());
        }
        Ok(self.cfg)
    }
}

/// One inference request: an identifier, the tenant it bills to, the
/// model it targets and the wall-clock budget it must finish within.
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    /// Caller-chosen identifier (also seeds the backoff jitter).
    pub id: u64,
    /// The tenant this request bills to (quotas, fairness lanes and
    /// breakers are tenant-scoped).
    pub tenant: TenantId,
    /// Model name the request targets.
    pub model: String,
    /// Wall-clock deadline measured from dispatch.
    pub deadline: Duration,
}

impl InferenceRequest {
    /// A request under the default tenant.
    pub fn new(id: u64, model: impl Into<String>, deadline: Duration) -> Self {
        Self {
            id,
            tenant: TenantId::default(),
            model: model.into(),
            deadline,
        }
    }

    /// Rebills the request to `tenant`.
    pub fn with_tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// Why a request was rejected or failed to complete.
#[derive(Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue is full; retry after the hinted delay.
    Overloaded {
        /// Requests currently queued.
        queue_depth: usize,
        /// The queue's capacity.
        capacity: usize,
        /// Estimated wait until a slot frees (queue depth × EWMA
        /// service time, analytically seeded before the first sample).
        retry_after: Duration,
    },
    /// The tenant already holds its quota of queued requests.
    QuotaExceeded {
        /// The tenant at quota.
        tenant: TenantId,
        /// Requests the tenant holds in the queue.
        in_queue: usize,
        /// The per-tenant quota.
        quota: usize,
        /// Estimated wait until the tenant's backlog drains.
        retry_after: Duration,
    },
    /// The `(tenant, model)` breaker is open; retry after the cooldown.
    CircuitOpen {
        /// The tenant whose breaker tripped.
        tenant: TenantId,
        /// The model whose breaker tripped.
        model: String,
        /// Consecutive failures that tripped it.
        consecutive_failures: u32,
        /// Remaining cooldown before a probe is admitted.
        retry_after: Duration,
    },
    /// The driver is draining toward shutdown and admits no new
    /// requests (already-queued requests still run).
    Draining,
    /// The request's deadline expired (or the driver was cancelled)
    /// while the pipeline was running; the stop carries phase and
    /// progress.
    Cancelled(BudgetStop),
    /// The request failed permanently after `attempts` tries.
    Failed {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// The final attempt's error text.
        message: String,
    },
    /// A [`ServeConfigBuilder`] was asked to build an unusable
    /// configuration.
    InvalidConfig {
        /// Which field (combination) was rejected and why.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                queue_depth,
                capacity,
                retry_after,
            } => write!(
                f,
                "overloaded: queue holds {queue_depth}/{capacity} requests, \
                 retry after {retry_after:?}"
            ),
            ServeError::QuotaExceeded {
                tenant,
                in_queue,
                quota,
                retry_after,
            } => write!(
                f,
                "tenant quota exceeded: {tenant} holds {in_queue}/{quota} queued \
                 requests, retry after {retry_after:?}"
            ),
            ServeError::CircuitOpen {
                tenant,
                model,
                consecutive_failures,
                retry_after,
            } => write!(
                f,
                "circuit open for tenant {tenant} model {model} after \
                 {consecutive_failures} consecutive failures, retry after {retry_after:?}"
            ),
            ServeError::Draining => {
                f.write_str("draining: the server is shutting down and admits no new requests")
            }
            ServeError::Cancelled(stop) => write!(f, "request stopped: {stop}"),
            ServeError::Failed { attempts, message } => {
                write!(f, "failed after {attempts} attempts: {message}")
            }
            ServeError::InvalidConfig { message } => {
                write!(f, "invalid serve config: {message}")
            }
        }
    }
}

impl fmt::Debug for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Cancelled(stop) => Some(stop),
            _ => None,
        }
    }
}

impl From<BudgetStop> for ServeError {
    fn from(stop: BudgetStop) -> Self {
        ServeError::Cancelled(stop)
    }
}

/// How one backend attempt failed — the classification drives the
/// driver's retry/breaker/supervision policy.
#[derive(Clone, PartialEq)]
pub enum AttemptError {
    /// The budget stopped the attempt: counted as a deadline slip,
    /// never retried (the deadline is already gone) and never held
    /// against the worker.
    Cancelled(BudgetStop),
    /// A transient fault (contention, resource blip): retried with
    /// backoff while deadline remains; one penalty point for the
    /// worker.
    Transient(String),
    /// A deterministic failure (infeasible model, bad parameters,
    /// corrupt input): never retried, counts toward the tenant's
    /// breaker and adds two penalty points to the worker.
    Permanent(String),
}

impl fmt::Display for AttemptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptError::Cancelled(stop) => write!(f, "cancelled: {stop}"),
            AttemptError::Transient(m) => write!(f, "transient: {m}"),
            AttemptError::Permanent(m) => write!(f, "permanent: {m}"),
        }
    }
}

impl fmt::Debug for AttemptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An inference backend the [`BatchDriver`] dispatches to.
///
/// The driver installs `budget` as the ambient budget of the thread
/// that runs the attempt before invoking [`infer`](Self::infer), so a
/// backend built on the FxHENN pipeline is deadline-aware with no extra
/// plumbing; the parameter is also passed explicitly for backends that
/// schedule work themselves. Attempts of a wave run on threads of their
/// own, so [`BatchDriver::run_queue`] asks for `Send` services and
/// outputs.
pub trait InferenceService {
    /// What a completed inference produces.
    type Output;

    /// Runs one attempt of `req` under `budget`.
    fn infer(
        &mut self,
        req: &InferenceRequest,
        budget: &Budget,
    ) -> Result<Self::Output, AttemptError>;
}

/// Counters the driver accumulates across its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Requests rejected because a `(tenant, model)` breaker was open.
    pub rejected_open: u64,
    /// Retry attempts made (not counting first tries).
    pub retries: u64,
    /// Times a breaker transitioned closed/half-open → open.
    pub breaker_trips: u64,
    /// Requests stopped by their deadline or a cancellation.
    pub cancelled: u64,
    /// Requests that failed permanently.
    pub failed: u64,
    /// True once the driver degraded to serial execution.
    pub degraded: bool,
    /// Requests rejected because their tenant was at quota.
    pub quota_rejected: u64,
    /// Requests rejected because the driver was draining.
    pub rejected_draining: u64,
    /// Times a worker was quarantined by the supervisor.
    pub quarantines: u64,
    /// Times a quarantined worker was rebuilt and returned to rotation.
    pub worker_recoveries: u64,
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "submitted={} completed={} shed={} rejected_open={} retries={} \
             breaker_trips={} cancelled={} failed={} degraded={} quota_rejected={} \
             rejected_draining={} quarantines={} worker_recoveries={}",
            self.submitted,
            self.completed,
            self.shed,
            self.rejected_open,
            self.retries,
            self.breaker_trips,
            self.cancelled,
            self.failed,
            self.degraded,
            self.quota_rejected,
            self.rejected_draining,
            self.quarantines,
            self.worker_recoveries
        )
    }
}

/// Where a [`CircuitBreaker`] is in its closed → open → half-open
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Admitting normally.
    Closed,
    /// Rejecting until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one probe at a time is admitted.
    HalfOpen,
}

/// A clock-injected circuit breaker over one `(tenant, model)` pair.
///
/// All transitions take the current time as a parameter
/// ([`admit_at`](Self::admit_at), [`record_failure_at`](Self::record_failure_at)),
/// so tests — including the property tests over the state machine —
/// drive it with a fabricated clock and never sleep.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    phase: BreakerPhase,
    opened_at: Option<Instant>,
    consecutive_failures: u32,
    probe_outstanding: bool,
    probes: u64,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// (clamped to at least 1) and cooling down for `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            threshold: threshold.max(1),
            cooldown,
            phase: BreakerPhase::Closed,
            opened_at: None,
            consecutive_failures: 0,
            probe_outstanding: false,
            probes: 0,
            trips: 0,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> BreakerPhase {
        self.phase
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Half-open probes admitted across the breaker's lifetime.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Times the breaker tripped open across its lifetime.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Decides admission at time `now`.
    ///
    /// Closed admits; open rejects until the cooldown elapses, then
    /// transitions to half-open and admits one probe; half-open rejects
    /// while that probe is outstanding.
    ///
    /// # Errors
    ///
    /// The remaining cooldown to wait before retrying.
    pub fn admit_at(&mut self, now: Instant) -> Result<(), Duration> {
        match self.phase {
            BreakerPhase::Closed => Ok(()),
            BreakerPhase::Open => {
                let since = self.opened_at.unwrap_or(now);
                let elapsed = now.saturating_duration_since(since);
                if elapsed < self.cooldown {
                    Err(self.cooldown - elapsed)
                } else {
                    self.phase = BreakerPhase::HalfOpen;
                    self.probe_outstanding = true;
                    self.probes += 1;
                    Ok(())
                }
            }
            BreakerPhase::HalfOpen => {
                if self.probe_outstanding {
                    Err(self.cooldown)
                } else {
                    self.probe_outstanding = true;
                    self.probes += 1;
                    Ok(())
                }
            }
        }
    }

    /// Records a successful attempt; any phase returns to closed.
    /// Returns `true` when this was a phase change (a closing probe).
    pub fn record_success(&mut self) -> bool {
        let was_open = self.phase != BreakerPhase::Closed;
        self.phase = BreakerPhase::Closed;
        self.opened_at = None;
        self.consecutive_failures = 0;
        self.probe_outstanding = false;
        was_open
    }

    /// Frees the half-open probe slot without a verdict. A probe that
    /// its deadline or a shutdown stopped says nothing about the model,
    /// so the next admission may probe again; without this the breaker
    /// would stay half-open, rejecting every request, for good.
    pub fn release_probe(&mut self) {
        self.probe_outstanding = false;
    }

    /// Records a failed attempt at time `now`. A closed breaker trips
    /// at `threshold` consecutive failures; a half-open probe failure
    /// re-opens immediately. Returns `true` when the breaker tripped.
    pub fn record_failure_at(&mut self, now: Instant) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.probe_outstanding = false;
        let trip = match self.phase {
            BreakerPhase::HalfOpen => true,
            BreakerPhase::Closed => self.consecutive_failures >= self.threshold,
            BreakerPhase::Open => false,
        };
        if trip {
            self.phase = BreakerPhase::Open;
            self.opened_at = Some(now);
            self.trips += 1;
        }
        trip
    }
}

/// A deficit round-robin queue over per-tenant lanes: each backlogged
/// tenant receives `weight` dequeues per rotation, so no tenant starves
/// no matter how another floods its lane. FIFO order holds within a
/// lane.
pub struct WeightedFairQueue<T> {
    lanes: Vec<Lane<T>>,
    index: HashMap<TenantId, usize>,
    cursor: usize,
    len: usize,
}

struct Lane<T> {
    tenant: TenantId,
    weight: u32,
    deficit: u32,
    items: VecDeque<T>,
}

impl<T> WeightedFairQueue<T> {
    /// An empty queue; lanes appear on first push (weight 1 unless
    /// [`set_weight`](Self::set_weight) said otherwise).
    pub fn new() -> Self {
        Self {
            lanes: Vec::new(),
            index: HashMap::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Total queued items across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items the given tenant holds in its lane.
    pub fn depth_of(&self, tenant: &TenantId) -> usize {
        self.index
            .get(tenant)
            .map_or(0, |&i| self.lanes[i].items.len())
    }

    /// Sets the tenant's fairness weight — dequeues per rotation while
    /// backlogged — clamped to at least 1. Creates the lane if absent.
    pub fn set_weight(&mut self, tenant: &TenantId, weight: u32) {
        let i = self.lane_of(tenant);
        self.lanes[i].weight = weight.max(1);
    }

    /// Enqueues `item` onto the tenant's lane.
    pub fn push(&mut self, tenant: TenantId, item: T) {
        let i = self.lane_of(&tenant);
        self.lanes[i].items.push_back(item);
        self.len += 1;
    }

    /// Dequeues the next item under deficit round-robin.
    pub fn pop(&mut self) -> Option<(TenantId, T)> {
        if self.len == 0 {
            return None;
        }
        let n = self.lanes.len();
        loop {
            let lane = &mut self.lanes[self.cursor];
            if lane.items.is_empty() {
                // An idle lane banks no credit: its deficit resets so a
                // returning tenant cannot burst past its weight.
                lane.deficit = 0;
                self.cursor = (self.cursor + 1) % n;
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = lane.weight;
            }
            let item = lane.items.pop_front()?;
            lane.deficit -= 1;
            self.len -= 1;
            let tenant = lane.tenant.clone();
            if lane.deficit == 0 || lane.items.is_empty() {
                if lane.items.is_empty() {
                    lane.deficit = 0;
                }
                self.cursor = (self.cursor + 1) % n;
            }
            return Some((tenant, item));
        }
    }

    fn lane_of(&mut self, tenant: &TenantId) -> usize {
        if let Some(&i) = self.index.get(tenant) {
            return i;
        }
        let i = self.lanes.len();
        self.lanes.push(Lane {
            tenant: tenant.clone(),
            weight: 1,
            deficit: 0,
            items: VecDeque::new(),
        });
        self.index.insert(tenant.clone(), i);
        i
    }
}

impl<T> Default for WeightedFairQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64: a tiny deterministic mixer seeding the backoff jitter
/// from `(request id, attempt)` — and the [`ChaosService`] fault
/// schedule — so runs reproduce exactly.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One worker evaluator in the pool, with the supervisor's health
/// bookkeeping.
struct Worker<S> {
    service: S,
    penalty: u32,
    quarantined: bool,
    served: u64,
}

impl<S> Worker<S> {
    fn new(service: S) -> Self {
        Self {
            service,
            penalty: 0,
            quarantined: false,
            served: 0,
        }
    }
}

/// A dequeued request on its way through the driver's waves: its place
/// in the dequeue order, when service began, the attempts made so far
/// and the backoff its next attempt waits out first.
struct InFlight {
    slot: usize,
    req: InferenceRequest,
    accepted: Instant,
    attempt: u32,
    backoff: Duration,
}

impl InFlight {
    /// One attempt on `service`, on whichever thread the wave gave it:
    /// wait out the backoff, then run under a budget of the remaining
    /// deadline plus the shutdown token, installed ambiently, with the
    /// wave's parallelism pin (`None` keeps the thread's own policy).
    /// Returns the attempt's result and its service time.
    fn attempt_on<S: InferenceService>(
        &self,
        service: &mut S,
        shutdown: &CancelToken,
        pin: Option<Parallelism>,
    ) -> (Result<S::Output, AttemptError>, Duration) {
        if !self.backoff.is_zero() {
            std::thread::sleep(self.backoff);
        }
        let dispatched = Instant::now();
        let remaining = self.req.deadline.saturating_sub(self.accepted.elapsed());
        if remaining.is_zero() {
            // Backoff (or earlier attempts) consumed the whole deadline
            // before this attempt could start.
            let stop = BudgetStop {
                phase: "serve-dispatch",
                cause: StopCause::DeadlineExpired {
                    deadline: self.req.deadline,
                },
                elapsed: self.accepted.elapsed(),
                progress: Progress::done(u64::from(self.attempt)),
            };
            return (Err(AttemptError::Cancelled(stop)), Duration::ZERO);
        }
        let b = Budget::with_deadline(remaining)
            .with_cancel(shutdown.clone())
            .start();
        let mut run = || budget::with_budget(&b, || service.infer(&self.req, &b));
        let result = match pin {
            Some(mode) => par::with_parallelism(mode, run),
            None => run(),
        };
        (result, dispatched.elapsed())
    }
}

/// A dequeued request's id and, once it is settled, its outcome.
type Slot<O> = (u64, Option<Result<O, ServeError>>);

/// Builds a fresh worker service — the supervisor calls this to rebuild
/// a quarantined worker. Returning `Err` keeps the worker quarantined
/// (the next selection pass retries).
pub type ServiceFactory<S> = Box<dyn FnMut() -> Result<S, String>>;

/// The bounded-queue, deadline-aware, multi-tenant batch driver.
pub struct BatchDriver<S: InferenceService> {
    workers: Vec<Worker<S>>,
    factory: Option<ServiceFactory<S>>,
    next_worker: usize,
    cfg: ServeConfig,
    queue: WeightedFairQueue<InferenceRequest>,
    breakers: HashMap<TenantId, HashMap<String, CircuitBreaker>>,
    tenant_stats: HashMap<TenantId, TenantMetrics>,
    /// EWMA of successful-attempt service time, in nanoseconds.
    ewma_nanos: f64,
    /// Completed requests feeding the EWMA (0 = still on the hint).
    ewma_samples: u64,
    consecutive_slips: u32,
    shutdown: CancelToken,
    report: ServeReport,
}

impl<S: InferenceService> BatchDriver<S> {
    /// A single-worker driver over `service` with the given
    /// configuration (no factory: a quarantined worker is reset in
    /// place rather than rebuilt).
    pub fn new(service: S, cfg: ServeConfig) -> Self {
        Self::assemble(vec![Worker::new(service)], None, cfg)
    }

    /// A pool of `cfg.worker_count` workers, each built by `factory` —
    /// typically from a shared, integrity-checked [`ModelCache`]. The
    /// factory is retained to rebuild quarantined workers.
    ///
    /// # Errors
    ///
    /// [`ServeError::Failed`] when the factory cannot build the initial
    /// pool.
    pub fn with_factory(cfg: ServeConfig, mut factory: ServiceFactory<S>) -> Result<Self, ServeError> {
        let count = cfg.worker_count.max(1);
        let mut workers = Vec::with_capacity(count);
        for i in 0..count {
            match factory() {
                Ok(service) => workers.push(Worker::new(service)),
                Err(message) => {
                    return Err(ServeError::Failed {
                        attempts: 1,
                        message: format!("worker {i} construction failed: {message}"),
                    })
                }
            }
        }
        Ok(Self::assemble(workers, Some(factory), cfg))
    }

    fn assemble(
        workers: Vec<Worker<S>>,
        factory: Option<ServiceFactory<S>>,
        cfg: ServeConfig,
    ) -> Self {
        let ewma_nanos = cfg.service_time_hint.as_nanos() as f64;
        let driver = Self {
            workers,
            factory,
            next_worker: 0,
            cfg,
            queue: WeightedFairQueue::new(),
            breakers: HashMap::new(),
            tenant_stats: HashMap::new(),
            ewma_nanos,
            ewma_samples: 0,
            consecutive_slips: 0,
            shutdown: CancelToken::new(),
            report: ServeReport::default(),
        };
        driver.publish_worker_gauges();
        driver
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The lifetime counters so far.
    pub fn report(&self) -> &ServeReport {
        &self.report
    }

    /// Workers in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Workers currently in rotation.
    pub fn healthy_workers(&self) -> usize {
        self.workers.len() - self.quarantined_workers()
    }

    /// Workers currently quarantined.
    pub fn quarantined_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.quarantined).count()
    }

    /// The parallelism policy a one-wide wave dispatches under: the
    /// calling thread's own until the driver degrades,
    /// [`Parallelism::Serial`] after. Attempts of a wider wave always
    /// run `Serial`.
    pub fn mode(&self) -> Parallelism {
        if self.report.degraded {
            Parallelism::Serial
        } else {
            par::parallelism()
        }
    }

    /// A handle that cancels every in-flight and future request when
    /// triggered (operator abort).
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// Starts a graceful drain: admission closes
    /// ([`ServeError::Draining`]) while already-queued requests run to
    /// completion under their own deadlines.
    pub fn drain(&mut self) {
        self.shutdown.request_drain();
    }

    /// Whether the driver is draining (or hard-cancelled).
    pub fn is_draining(&self) -> bool {
        self.shutdown.is_draining()
    }

    /// Sets a tenant's fairness weight: dequeues per round-robin
    /// rotation while backlogged (default 1, clamped to at least 1).
    pub fn set_tenant_weight(&mut self, tenant: &TenantId, weight: u32) {
        self.queue.set_weight(tenant, weight);
    }

    /// The current EWMA service-time estimate.
    pub fn service_time_estimate(&self) -> Duration {
        Duration::from_nanos(self.ewma_nanos as u64)
    }

    /// The estimate used in retry-after hints for `model`: the EWMA
    /// once a sample exists, else the analytic cycle-model latency,
    /// else the configured hint.
    fn service_time_estimate_for(&self, model: &str) -> Duration {
        if self.ewma_samples == 0 {
            if let Some(analytic) = analytic_service_estimate(model) {
                return analytic;
            }
        }
        self.service_time_estimate()
    }

    /// Admits `req` into its tenant's lane, shedding load when the
    /// driver is draining, the `(tenant, model)` breaker is open, the
    /// tenant is at quota, or the queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::Draining`] after [`drain`](Self::drain);
    /// [`ServeError::CircuitOpen`] while the pair's breaker cools down;
    /// [`ServeError::QuotaExceeded`] when the tenant holds
    /// `tenant_quota` queued requests; [`ServeError::Overloaded`] when
    /// the queue is at capacity — the latter three carry a retry-after
    /// hint.
    pub fn submit(&mut self, req: InferenceRequest) -> Result<(), ServeError> {
        if self.shutdown.is_draining() {
            self.report.rejected_draining += 1;
            serve_metrics().rejected_draining.inc();
            return Err(ServeError::Draining);
        }
        if let Some(rejection) = self.breaker_rejection(&req.tenant, &req.model) {
            self.report.rejected_open += 1;
            serve_metrics().rejected_open.inc();
            self.tenant_stats(&req.tenant).rejected.inc();
            return Err(rejection);
        }
        let held = self.queue.depth_of(&req.tenant);
        if held >= self.cfg.tenant_quota {
            self.report.quota_rejected += 1;
            serve_metrics().quota_rejected.inc();
            self.tenant_stats(&req.tenant).rejected.inc();
            return Err(ServeError::QuotaExceeded {
                tenant: req.tenant.clone(),
                in_queue: held,
                quota: self.cfg.tenant_quota,
                retry_after: self
                    .service_time_estimate_for(&req.model)
                    .saturating_mul(held.min(u32::MAX as usize) as u32),
            });
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.report.shed += 1;
            serve_metrics().shed.inc();
            self.tenant_stats(&req.tenant).rejected.inc();
            let queue_depth = self.queue.len();
            return Err(ServeError::Overloaded {
                queue_depth,
                capacity: self.cfg.queue_capacity,
                retry_after: self
                    .service_time_estimate_for(&req.model)
                    .saturating_mul(queue_depth.min(u32::MAX as usize) as u32),
            });
        }
        self.report.submitted += 1;
        serve_metrics().submitted.inc();
        self.tenant_stats(&req.tenant).submitted.inc();
        self.queue.push(req.tenant.clone(), req);
        serve_metrics()
            .queue_depth
            .set(self.queue.len().min(i64::MAX as usize) as i64);
        Ok(())
    }

    fn tenant_stats(&mut self, tenant: &TenantId) -> &TenantMetrics {
        self.tenant_stats
            .entry(tenant.clone())
            .or_insert_with(|| tenant_metrics(tenant.as_str()))
    }

    /// If the pair's breaker rejects admission at this instant, the
    /// rejection to return; transitions open → half-open (admitting one
    /// probe) once the cooldown has elapsed.
    fn breaker_rejection(&mut self, tenant: &TenantId, model: &str) -> Option<ServeError> {
        let breaker = self.breakers.get_mut(tenant)?.get_mut(model)?;
        let before = breaker.phase();
        match breaker.admit_at(Instant::now()) {
            Ok(()) => {
                if before == BreakerPhase::Open && breaker.phase() == BreakerPhase::HalfOpen {
                    serve_metrics().breaker_to_half_open.inc();
                }
                None
            }
            Err(retry_after) => Some(ServeError::CircuitOpen {
                tenant: tenant.clone(),
                model: model.to_string(),
                consecutive_failures: breaker.consecutive_failures(),
                retry_after,
            }),
        }
    }

    /// Drains the queue in waves, one request per healthy worker at a
    /// time, and returns `(id, outcome)` per request in dequeue order.
    ///
    /// Each wave takes up to [`healthy_workers`](Self::healthy_workers)
    /// requests — retries from the previous wave first, then fresh ones
    /// in weighted-fair order — and hands the i-th to the i-th worker in
    /// round-robin order. The wave's attempts run at the same time
    /// through [`par::fan_out`]: the calling thread serves the first
    /// itself, so a one-wide wave spawns nothing and inherits the
    /// caller's parallelism policy, while every attempt of a wider wave
    /// runs [`Parallelism::Serial`]. Once the wave is back, its outcomes
    /// are accounted here, in dequeue order — breakers, the EWMA, slips,
    /// penalties, quarantine and rebuild — so no worker is rebuilt while
    /// it runs. A degraded driver serves one-wide waves under `Serial`.
    pub fn run_queue(&mut self) -> Vec<(u64, Result<S::Output, ServeError>)>
    where
        S: Send,
        S::Output: Send,
    {
        let mut outcomes: Vec<Slot<S::Output>> = Vec::with_capacity(self.queue.len());
        let mut retries: VecDeque<InFlight> = VecDeque::new();
        loop {
            let width = if self.report.degraded {
                1
            } else {
                self.healthy_workers().max(1)
            };
            let mut wave = Vec::with_capacity(width);
            while wave.len() < width {
                let Some(flight) = retries.pop_front().or_else(|| self.dequeue(&mut outcomes))
                else {
                    break;
                };
                match self.select_worker() {
                    Some(widx) => wave.push((widx, flight)),
                    None => outcomes[flight.slot].1 = Some(Err(self.account_no_worker(&flight))),
                }
            }
            if wave.is_empty() {
                break;
            }
            let pin = (wave.len() > 1 || self.report.degraded).then_some(Parallelism::Serial);
            let shutdown = &self.shutdown;
            let mut services: Vec<Option<&mut S>> = self
                .workers
                .iter_mut()
                .map(|w| Some(&mut w.service))
                .collect();
            let jobs: Vec<(&mut S, &InFlight)> = wave
                .iter()
                .map(|(widx, flight)| {
                    let service = services[*widx]
                        .take()
                        .expect("a wave assigns each worker at most once");
                    (service, flight)
                })
                .collect();
            let attempts = par::fan_out(jobs, true, &|_, (service, flight)| {
                flight.attempt_on(service, shutdown, pin)
            });
            for ((widx, mut flight), (result, service_time)) in wave.into_iter().zip(attempts) {
                if let Some(outcome) = self.settle(widx, &mut flight, result, service_time) {
                    outcomes[flight.slot].1 = Some(outcome);
                } else {
                    retries.push_back(flight);
                }
            }
        }
        outcomes
            .into_iter()
            .map(|(id, outcome)| (id, outcome.expect("every dequeued request is settled")))
            .collect()
    }

    /// Pops the next request in weighted-fair order and reserves its
    /// place in the outcome list.
    fn dequeue(&mut self, outcomes: &mut Vec<Slot<S::Output>>) -> Option<InFlight> {
        let (_tenant, req) = self.queue.pop()?;
        serve_metrics()
            .queue_depth
            .set(self.queue.len().min(i64::MAX as usize) as i64);
        outcomes.push((req.id, None));
        Some(InFlight {
            slot: outcomes.len() - 1,
            req,
            accepted: Instant::now(),
            attempt: 0,
            backoff: Duration::ZERO,
        })
    }

    /// Accounts one attempt of `flight` on worker `widx` against the
    /// tenant's breaker and the worker's health. Returns the request's
    /// outcome, or `None` when a transient failure earned it a retry in
    /// the next wave (after a capped, jittered backoff).
    fn settle(
        &mut self,
        widx: usize,
        flight: &mut InFlight,
        result: Result<S::Output, AttemptError>,
        service_time: Duration,
    ) -> Option<Result<S::Output, ServeError>> {
        let req = &flight.req;
        match result {
            Ok(out) => {
                self.worker_success(widx);
                self.account_success(req, service_time);
                Some(Ok(out))
            }
            // The deadline (or a shutdown) stopped the attempt; the
            // worker is blameless.
            Err(AttemptError::Cancelled(stop)) => Some(Err(self.account_slip(req, stop))),
            Err(AttemptError::Transient(message)) => {
                self.penalize_worker(widx, 1);
                flight.attempt += 1;
                let backoff = self.backoff_delay(req.id, flight.attempt);
                let left = req.deadline.saturating_sub(flight.accepted.elapsed());
                if flight.attempt > self.cfg.max_retries || backoff >= left {
                    self.account_failure(&req.tenant, &req.model);
                    return Some(Err(ServeError::Failed {
                        attempts: flight.attempt,
                        message,
                    }));
                }
                self.report.retries += 1;
                serve_metrics().retries.inc();
                flight.backoff = backoff;
                None
            }
            Err(AttemptError::Permanent(message)) => {
                self.penalize_worker(widx, 2);
                self.account_failure(&req.tenant, &req.model);
                Some(Err(ServeError::Failed {
                    attempts: flight.attempt + 1,
                    message,
                }))
            }
        }
    }

    /// Round-robin over healthy workers; when every worker is
    /// quarantined, attempt recovery in place so the pool self-heals
    /// once its factory (e.g. a repaired [`ModelCache`]) works again.
    fn select_worker(&mut self) -> Option<usize> {
        let n = self.workers.len();
        for step in 0..n {
            let idx = (self.next_worker + step) % n;
            if !self.workers[idx].quarantined {
                self.next_worker = (idx + 1) % n;
                return Some(idx);
            }
        }
        for idx in 0..n {
            if self.try_recover(idx) {
                self.next_worker = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    fn worker_success(&mut self, idx: usize) {
        let w = &mut self.workers[idx];
        w.served += 1;
        // Good service repays past penalties, so a worker with an old
        // blip does not hover one fault from quarantine forever.
        w.penalty = w.penalty.saturating_sub(1);
    }

    /// Adds penalty points to a worker and quarantines it past the
    /// threshold, immediately attempting a rebuild.
    fn penalize_worker(&mut self, idx: usize, points: u32) {
        let threshold = self.cfg.quarantine_threshold;
        let w = &mut self.workers[idx];
        w.penalty = w.penalty.saturating_add(points);
        if w.penalty >= threshold && !w.quarantined {
            w.quarantined = true;
            self.report.quarantines += 1;
            serve_metrics().worker_quarantines.inc();
            self.try_recover(idx);
        }
        self.publish_worker_gauges();
    }

    /// Rebuilds a quarantined worker from the factory (or resets it in
    /// place when the driver has none). Returns `true` when the worker
    /// re-entered rotation.
    fn try_recover(&mut self, idx: usize) -> bool {
        if !self.workers[idx].quarantined {
            return true;
        }
        let rebuilt = match &mut self.factory {
            Some(factory) => factory().ok(),
            None => {
                // No factory: the best supervision available is a
                // penalty reset (the service state is all there is).
                let w = &mut self.workers[idx];
                w.penalty = 0;
                w.quarantined = false;
                self.report.worker_recoveries += 1;
                serve_metrics().worker_recoveries.inc();
                self.publish_worker_gauges();
                return true;
            }
        };
        match rebuilt {
            Some(service) => {
                let w = &mut self.workers[idx];
                w.service = service;
                w.penalty = 0;
                w.quarantined = false;
                self.report.worker_recoveries += 1;
                serve_metrics().worker_recoveries.inc();
                self.publish_worker_gauges();
                true
            }
            None => false,
        }
    }

    fn publish_worker_gauges(&self) {
        let quarantined = self.workers.iter().filter(|w| w.quarantined).count();
        let healthy = self.workers.len() - quarantined;
        serve_metrics()
            .workers_healthy
            .set(healthy.min(i64::MAX as usize) as i64);
        serve_metrics()
            .workers_quarantined
            .set(quarantined.min(i64::MAX as usize) as i64);
    }

    /// Capped exponential backoff with deterministic jitter: the base
    /// delay doubles per attempt up to the cap; the jitter (seeded by
    /// request id and attempt) spreads retries across
    /// `[delay/2, delay]`.
    fn backoff_delay(&self, id: u64, attempt: u32) -> Duration {
        let doubled = self
            .cfg
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16));
        let capped = doubled.min(self.cfg.max_backoff);
        let half = capped / 2;
        let span = half.as_nanos() as u64;
        if span == 0 {
            return capped;
        }
        let jitter = splitmix64(id ^ (u64::from(attempt) << 32)) % span;
        half + Duration::from_nanos(jitter)
    }

    fn account_success(&mut self, req: &InferenceRequest, service_time: Duration) {
        self.report.completed += 1;
        serve_metrics().completed.inc();
        self.tenant_stats(&req.tenant).completed.inc();
        serve_metrics()
            .service_time
            .observe(service_time.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.consecutive_slips = 0;
        // EWMA with alpha = 0.3: recent requests dominate, one outlier
        // does not.
        self.ewma_nanos = 0.7 * self.ewma_nanos + 0.3 * service_time.as_nanos() as f64;
        self.ewma_samples += 1;
        if let Some(breaker) = self.breaker_of(req) {
            if breaker.record_success() {
                serve_metrics().breaker_to_closed.inc();
            }
        }
    }

    /// The `(tenant, model)` breaker of `req`, if one was ever created.
    fn breaker_of(&mut self, req: &InferenceRequest) -> Option<&mut CircuitBreaker> {
        self.breakers.get_mut(&req.tenant)?.get_mut(&req.model)
    }

    /// A deadline slip: count it, free the pair's half-open probe slot,
    /// and degrade to one-wide waves under [`Parallelism::Serial`] once
    /// `slip_threshold` slips arrive in a row.
    fn account_slip(&mut self, req: &InferenceRequest, stop: BudgetStop) -> ServeError {
        if let Some(breaker) = self.breaker_of(req) {
            breaker.release_probe();
        }
        self.report.cancelled += 1;
        self.consecutive_slips += 1;
        serve_metrics().deadline_slips.inc();
        if self.consecutive_slips >= self.cfg.slip_threshold && !self.report.degraded {
            self.report.degraded = true;
            serve_metrics().degraded.set(1);
        }
        ServeError::Cancelled(stop)
    }

    /// A request no worker could take: the pool is quarantined and no
    /// rebuild succeeds. The model was never tried, so the pair's
    /// half-open probe slot is freed.
    fn account_no_worker(&mut self, flight: &InFlight) -> ServeError {
        if let Some(breaker) = self.breaker_of(&flight.req) {
            breaker.release_probe();
        }
        self.report.failed += 1;
        serve_metrics().failed.inc();
        ServeError::Failed {
            attempts: flight.attempt + 1,
            message: "no healthy worker available (pool quarantined, rebuilds failing)".to_string(),
        }
    }

    fn account_failure(&mut self, tenant: &TenantId, model: &str) {
        self.report.failed += 1;
        serve_metrics().failed.inc();
        let threshold = self.cfg.breaker_threshold;
        let cooldown = self.cfg.breaker_cooldown;
        let breaker = self
            .breakers
            .entry(tenant.clone())
            .or_default()
            .entry(model.to_string())
            .or_insert_with(|| CircuitBreaker::new(threshold, cooldown));
        if breaker.record_failure_at(Instant::now()) {
            self.report.breaker_trips += 1;
            serve_metrics().breaker_to_open.inc();
        }
    }
}

/// The analytic cycle model's end-to-end latency for `model`'s HE
/// program on the reference device (ACU9EG, minimal module parallelism):
/// the cold-start seed for retry-after hints before the EWMA has a
/// sample. `None` for models the lowering does not know.
///
/// Computed once per model name and memoized for the process lifetime.
pub fn analytic_service_estimate(model: &str) -> Option<Duration> {
    static CACHE: OnceLock<Mutex<HashMap<String, Option<Duration>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Ok(guard) = cache.lock() {
        if let Some(&hit) = guard.get(model) {
            return hit;
        }
    }
    let computed = compute_analytic_estimate(model);
    if let Ok(mut guard) = cache.lock() {
        guard.insert(model.to_string(), computed);
    }
    computed
}

fn compute_analytic_estimate(model: &str) -> Option<Duration> {
    let (net, params): (Network, CkksParams) = match model {
        "mnist" => (fxhenn_mnist(42), CkksParams::fxhenn_mnist()),
        "cifar10" => (fxhenn_cifar10(42), CkksParams::fxhenn_cifar10()),
        _ => return None,
    };
    let program = try_lower_network(&net, params.degree(), params.levels()).ok()?;
    let device = FpgaDevice::acu9eg();
    let clock_mhz = device.clock_mhz();
    let n = params.degree();
    let mut modules: HashMap<OpClass, HeOpModule> = HashMap::new();
    let mut seconds = 0.0f64;
    for record in program.total_trace().records() {
        let class = OpClass::from(record.kind);
        let module = modules
            .entry(class)
            .or_insert_with(|| HeOpModule::new(class, ModuleConfig::minimal()));
        seconds += module.op_latency_seconds(record.level, n, clock_mhz);
    }
    (seconds.is_finite() && seconds > 0.0).then(|| Duration::from_secs_f64(seconds))
}

/// The read-only shared context/key cache behind a worker pool: per
/// model, the CKKS parameters plus serialized, checksummed key frames.
/// Workers rebuild from the cache through [`verify`](Self::verify),
/// which re-opens every frame (checksum) and range-checks the decoded
/// key material against a fresh context — so corrupted-at-rest keys
/// fail loudly at rebuild time instead of corrupting ciphertexts
/// silently at run time.
pub struct ModelCache {
    entries: HashMap<String, ModelEntry>,
}

/// Backing storage of one sealed key frame. Generated frames live in an
/// [`AlignedBytes`] buffer and disk-loaded frames in a [`MappedFrame`]
/// — both keep the frame 8-byte aligned, so the v2 decoders read the
/// key material in place without copying residue words.
enum FrameBytes {
    Owned(AlignedBytes),
    Mapped(MappedFrame),
}

impl FrameBytes {
    fn bytes(&self) -> &[u8] {
        match self {
            FrameBytes::Owned(b) => b.as_bytes(),
            FrameBytes::Mapped(m) => m.bytes(),
        }
    }

    fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Flips one bit of the frame — the chaos harness's at-rest bit rot.
    /// A mapped frame is copy-on-poisoned into an owned buffer first
    /// (the mapping itself is read-only).
    fn flip_byte(&mut self, idx: usize) {
        let mut raw = self.bytes().to_vec();
        raw[idx] ^= 0x01;
        let mut owned = AlignedBytes::with_byte_capacity(raw.len());
        owned.extend_from_slice(&raw);
        *self = FrameBytes::Owned(owned);
    }
}

struct ModelEntry {
    params: CkksParams,
    public_frame: FrameBytes,
    relin_frame: FrameBytes,
    galois_frame: FrameBytes,
}

/// Key material that passed the cache's integrity checks.
pub struct VerifiedModel {
    /// The model's CKKS parameters.
    pub params: CkksParams,
    /// The verified public key.
    pub public_key: PublicKey,
    /// The verified relinearization key.
    pub relin_key: RelinKey,
    /// The verified Galois (rotation) keys.
    pub galois_keys: GaloisKeys,
    /// Combined content checksum over the model's key frames.
    pub checksum: u64,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            entries: HashMap::new(),
        }
    }

    /// Generates and seals key material for `model` under `params`,
    /// with a Galois key for each of `rotations`, cut to the level its
    /// step is applied at (a program's
    /// [`required_rotations`](fxhenn_nn::HeCnnProgram::required_rotations)).
    /// Deterministic in `seed`.
    pub fn generate(
        &mut self,
        model: &str,
        params: CkksParams,
        rotations: &RotationSet,
        seed: u64,
    ) {
        let ctx = CkksContext::new(params.clone());
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(seed));
        let pk = kg.public_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys_at(rotations);
        self.entries.insert(
            model.to_string(),
            ModelEntry {
                params,
                public_frame: FrameBytes::Owned(seal_checksummed_v2(encode_public_key_v2(&pk))),
                relin_frame: FrameBytes::Owned(seal_checksummed_v2(encode_relin_key_v2(&rk))),
                galois_frame: FrameBytes::Owned(seal_checksummed_v2(encode_galois_keys_v2(&gks))),
            },
        );
    }

    /// Writes the model's sealed frames to `dir` as
    /// `<model>.{public,relin,galois}.fxk`, creating the directory if
    /// needed. Returns `false` when the model is not cached.
    ///
    /// # Errors
    ///
    /// Any I/O error while creating the directory or writing a frame.
    pub fn store_to_dir(&self, model: &str, dir: &std::path::Path) -> std::io::Result<bool> {
        let Some(e) = self.entries.get(model) else {
            return Ok(false);
        };
        std::fs::create_dir_all(dir)?;
        for (suffix, frame) in [
            ("public", &e.public_frame),
            ("relin", &e.relin_frame),
            ("galois", &e.galois_frame),
        ] {
            std::fs::write(dir.join(format!("{model}.{suffix}.fxk")), frame.bytes())?;
        }
        Ok(true)
    }

    /// Loads the model's sealed frames from `dir` (written by
    /// [`store_to_dir`](Self::store_to_dir)). With the `mmap-keys`
    /// feature the frames are memory-mapped — key material then streams
    /// from the page cache on first use instead of being read (and
    /// copied) up front; without it they are read into aligned buffers.
    /// Either way [`verify`](Self::verify) checksums and range-checks
    /// the bytes before any worker touches them.
    ///
    /// # Errors
    ///
    /// Any I/O error while opening or mapping a frame file.
    pub fn load_from_dir(
        &mut self,
        model: &str,
        params: CkksParams,
        dir: &std::path::Path,
    ) -> std::io::Result<()> {
        let open = |suffix: &str| -> std::io::Result<FrameBytes> {
            Ok(FrameBytes::Mapped(MappedFrame::open(
                &dir.join(format!("{model}.{suffix}.fxk")),
            )?))
        };
        let entry = ModelEntry {
            params,
            public_frame: open("public")?,
            relin_frame: open("relin")?,
            galois_frame: open("galois")?,
        };
        self.entries.insert(model.to_string(), entry);
        Ok(())
    }

    /// Whether the cache holds `model`.
    pub fn contains(&self, model: &str) -> bool {
        self.entries.contains_key(model)
    }

    /// The cached model names, in arbitrary order.
    pub fn models(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// The combined content checksum of the model's key frames, or
    /// `None` when absent: the sums stored in the frames' trailers, which
    /// [`verify`](Self::verify) holds against the payloads.
    pub fn checksum_of(&self, model: &str) -> Option<u64> {
        let stored = |frame: &FrameBytes| {
            let bytes = frame.bytes();
            let trailer = bytes.len().checked_sub(8).map(|at| &bytes[at..]);
            trailer.map_or(0, |t| u64::from_le_bytes(t.try_into().expect("8-byte trailer")))
        };
        let e = self.entries.get(model)?;
        Some(
            stored(&e.public_frame)
                ^ stored(&e.relin_frame).rotate_left(1)
                ^ stored(&e.galois_frame).rotate_left(2),
        )
    }

    /// Opens, decodes and range-checks the model's key material.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first failed integrity
    /// check: a missing model, a checksum mismatch on any frame, a
    /// malformed frame, or decoded key material outside its moduli.
    pub fn verify(&self, model: &str) -> Result<VerifiedModel, String> {
        let e = self
            .entries
            .get(model)
            .ok_or_else(|| format!("model {model:?} is not in the cache"))?;
        let public_key = decode_public_key_checksummed(e.public_frame.bytes())
            .map_err(|err| format!("public key frame: {err}"))?;
        let relin_key = decode_relin_key_checksummed(e.relin_frame.bytes())
            .map_err(|err| format!("relin key frame: {err}"))?;
        let galois_view = open_checksummed(e.galois_frame.bytes())
            .and_then(decode_galois_keys_v2)
            .map_err(|err| format!("galois key frame: {err}"))?;
        let ctx = CkksContext::new(e.params.clone());
        ctx.validate_public_key(&public_key)
            .map_err(|err| format!("public key range check: {err}"))?;
        ctx.validate_relin_key(&relin_key)
            .map_err(|err| format!("relin key range check: {err}"))?;
        // The frame is checked before it is owned: an owned key set would
        // collapse a repeated exponent.
        ctx.validate_galois_keys_view(&galois_view)
            .map_err(|err| format!("galois key range check: {err}"))?;
        let galois_keys = galois_view.to_owned_galois_keys();
        Ok(VerifiedModel {
            params: e.params.clone(),
            public_key,
            relin_key,
            galois_keys,
            checksum: self.checksum_of(model).unwrap_or(0),
        })
    }

    /// Corrupts one payload byte of the model's relinearization frame —
    /// the chaos harness's stand-in for at-rest bit rot. Returns `true`
    /// when the model existed.
    pub fn poison(&mut self, model: &str) -> bool {
        match self.entries.get_mut(model) {
            Some(e) if e.relin_frame.len() > 16 => {
                let mid = e.relin_frame.len() / 2;
                e.relin_frame.flip_byte(mid);
                true
            }
            _ => false,
        }
    }

    /// Regenerates the model's key material in place (same parameters),
    /// undoing any poisoning. Returns `false` when the model is absent.
    pub fn repair(&mut self, model: &str, rotations: &RotationSet, seed: u64) -> bool {
        let Some(params) = self.entries.get(model).map(|e| e.params.clone()) else {
            return false;
        };
        self.generate(model, params, rotations, seed);
        true
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The real backend: runs the full FxHENN design flow
/// ([`generate_accelerator`]) for the requested model on the configured
/// device. Deadline checks ride the ambient budget the driver installs.
pub struct DesignFlowService {
    device: FpgaDevice,
}

impl DesignFlowService {
    /// A service targeting `device`.
    pub fn new(device: FpgaDevice) -> Self {
        Self { device }
    }

    fn model_of(name: &str) -> Result<(Network, CkksParams), AttemptError> {
        match name {
            "mnist" => Ok((fxhenn_mnist(42), CkksParams::fxhenn_mnist())),
            "cifar10" => Ok((fxhenn_cifar10(42), CkksParams::fxhenn_cifar10())),
            other => Err(AttemptError::Permanent(format!(
                "unknown model {other:?} (expected mnist or cifar10)"
            ))),
        }
    }
}

impl InferenceService for DesignFlowService {
    type Output = DesignReport;

    fn infer(
        &mut self,
        req: &InferenceRequest,
        _budget: &Budget,
    ) -> Result<DesignReport, AttemptError> {
        let (net, params) = Self::model_of(&req.model)?;
        generate_accelerator(&net, &params, &self.device).map_err(|e| match e {
            FlowError::Cancelled(stop) => AttemptError::Cancelled(stop),
            other => AttemptError::Permanent(other.to_string()),
        })
    }
}

/// A deterministic fault injector over real CKKS material: the backend
/// behind `fxhenn serve --chaos` and the chaos-soak harness.
///
/// Construction verifies the shared [`ModelCache`]'s key frames and
/// pre-encrypts a template ciphertext — so a poisoned cache makes
/// worker rebuilds fail, exactly like a real evaluator refusing corrupt
/// key material. Per request the service rolls a seeded schedule:
///
/// * models named `poisoned*` always fail permanently (lowering
///   rejects them) — the breaker-isolation fault class;
/// * ~6% of calls simulate transport corruption: the template
///   ciphertext's bytes are flipped, and the context's
///   `validate_ciphertext` range check rejects the decoded result
///   (a permanent failure);
/// * ~2% of calls simulate noise exhaustion: a real evaluator with an
///   unreachable noise floor refuses the operation typed
///   (`NoiseBudgetExhausted`, a permanent failure);
/// * ~2% of calls exercise the `key-switch` class ([`HeOpKind::Rotate`]):
///   the fresh top-level template is rotated with the cache's Galois
///   keys, which a level-cut cache holds below the top level, and the
///   rotation is refused typed (`GaloisKeyTooShallow`, permanent) before
///   any arithmetic;
/// * ~3% of calls simulate a silent kernel fault: a decrypt-time
///   canary check sees slot values unrelated to its expectation and
///   raises `NoiseModelViolation` (permanent — the worker's penalty
///   climbs toward quarantine);
/// * ~2% of calls exercise the `sign-precision` class (from
///   [`HeOpKind::Sign`]'s registry entry): a real composite sign
///   evaluation is handed a ciphertext without the depth the preset
///   needs and the typed level guard refuses it;
/// * ~2% of calls exercise the `matmul-block` class
///   ([`HeOpKind::CtMatmul`]): a blocked ct×ct matmul refused the same
///   way, before any rotation key is touched;
/// * ~12% of calls are transient blips (retried by the driver);
/// * everything else succeeds, returning the request id.
///
/// Deadline storms and cancellations are induced from outside (tight
/// deadlines, the shutdown token); the entry budget check makes the
/// service stop cooperatively for both.
pub struct ChaosService {
    seed: u64,
    calls: u64,
    ctx: CkksContext,
    template: Ciphertext,
    relin: RelinKey,
    gks: GaloisKeys,
    key_checksum: u64,
}

impl ChaosService {
    /// Builds the service from the cache's verified key material.
    ///
    /// # Errors
    ///
    /// The cache's integrity-check failure text when `model`'s frames
    /// are missing, corrupt or out of range.
    pub fn from_cache(cache: &ModelCache, model: &str, seed: u64) -> Result<Self, String> {
        let verified = cache.verify(model)?;
        let ctx = CkksContext::new(verified.params.clone());
        let template = {
            let mut enc = Encryptor::new(&ctx, verified.public_key, StdRng::seed_from_u64(seed));
            enc.encrypt(&[1.0, -0.5, 0.25, 0.125])
        };
        Ok(Self {
            seed,
            calls: 0,
            ctx,
            template,
            relin: verified.relin_key,
            gks: verified.galois_keys,
            key_checksum: verified.checksum,
        })
    }

    /// The checksum of the key material this worker was built from.
    pub fn key_checksum(&self) -> u64 {
        self.key_checksum
    }

    /// Calls served (including faulted ones) by this worker instance.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl InferenceService for ChaosService {
    type Output = u64;

    fn infer(&mut self, req: &InferenceRequest, budget: &Budget) -> Result<u64, AttemptError> {
        self.calls += 1;
        budget
            .check("chaos-service", Progress::done(self.calls))
            .map_err(AttemptError::Cancelled)?;
        if req.model.starts_with("poisoned") {
            return Err(AttemptError::Permanent(format!(
                "model {:?} failed lowering (poisoned)",
                req.model
            )));
        }
        let roll = splitmix64(
            self.seed
                ^ req.id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (self.calls << 17),
        ) % 100;
        if roll < 6 {
            // Transport corruption: re-encode the healthy template as a
            // v2 frame, smash the tail residues, and run the received
            // bytes through the real ingress — a length-prefixed frame
            // in an aligned receive buffer, decoded in place and
            // range-checked before any evaluation.
            let mut bytes = encode_ciphertext_v2(&self.template).as_bytes().to_vec();
            let n = bytes.len();
            if n >= 16 {
                for b in &mut bytes[n - 16..] {
                    *b = 0xFF;
                }
            }
            let mut rx = AlignedBytes::with_byte_capacity(bytes.len() + 16);
            crate::wire::push_frame(&mut rx, &bytes);
            let payload = crate::wire::FrameCursor::new(rx.as_bytes())
                .next()
                .and_then(Result::ok)
                .unwrap_or_default();
            return match crate::wire::ingest_ciphertext(&self.ctx, payload) {
                Ok(_) => Ok(req.id),
                Err(e) => Err(AttemptError::Permanent(format!(
                    "rejected corrupt ciphertext: {e}"
                ))),
            };
        }
        if roll < 8 {
            // Noise exhaustion: a real evaluator refuses the op because
            // the predicted budget sits below the (unreachably high)
            // floor — the same typed path a genuinely over-deep circuit
            // takes at runtime.
            let mut ev = Evaluator::new(&self.ctx);
            ev.set_noise_floor_bits(1e6);
            return match ev.add(&self.template, &self.template) {
                Ok(_) => Ok(req.id),
                Err(e) => Err(AttemptError::Permanent(format!(
                    "evaluation refused: {e}"
                ))),
            };
        }
        if roll < 10 {
            // Key-switch fault: a rotation above the level the cache cut
            // its Galois keys to, refused before any arithmetic.
            let mut ev = Evaluator::new(&self.ctx);
            return match ev.rotate(&self.template, 1, &self.gks) {
                Ok(_) => Ok(req.id),
                Err(e) => Err(AttemptError::Permanent(format!(
                    "{} fault: {e}",
                    HeOpKind::Rotate.fault_class()
                ))),
            };
        }
        if roll < 13 {
            // Kernel fault: the decrypt-time canary cross-check sees
            // slot values unrelated to its expectation and raises a
            // noise-model violation.
            let slots = self.ctx.degree() / 2;
            let mut values = vec![0.25; 4];
            let verdict = Canary::seed_into(
                &mut values,
                slots,
                DEFAULT_CANARY_SLOTS,
                self.seed ^ req.id,
            )
            .and_then(|canary| {
                let garbage = vec![0.0; slots];
                canary.verify(
                    &garbage,
                    &self.template.noise_estimate(),
                    &self.ctx,
                    DEFAULT_CANARY_MARGIN,
                )
            });
            return match verdict {
                Ok(()) => Ok(req.id),
                Err(e) => Err(AttemptError::Permanent(format!(
                    "canary verification failed: {e}"
                ))),
            };
        }
        if roll < 15 {
            // Sign-precision fault: a real composite sign evaluation is
            // handed a ciphertext too shallow for the preset's depth, and
            // the typed level guard refuses it before any key is used.
            // The class string comes from the op-descriptor registry.
            let mut ev = Evaluator::new(&self.ctx);
            let shallow = ev
                .mod_switch_to(&self.template, 2)
                .unwrap_or_else(|_| self.template.clone());
            return match fxhenn_ckks::sign(&mut ev, &shallow, &self.relin, SignPreset::Low) {
                Ok(_) => Ok(req.id),
                Err(e) => Err(AttemptError::Permanent(format!(
                    "{} fault: {e}",
                    HeOpKind::Sign.fault_class()
                ))),
            };
        }
        if roll < 17 {
            // Matmul-block fault: a blocked ct×ct matmul refused the
            // same way — the level guard fires before any rotation key
            // is touched, so the soak's minimal galois set suffices.
            let mut ev = Evaluator::new(&self.ctx);
            let shallow = ev
                .mod_switch_to(&self.template, 2)
                .unwrap_or_else(|_| self.template.clone());
            let d = fxhenn_ckks::matmul_block_dim(self.ctx.degree());
            return match fxhenn_ckks::ct_matmul(
                &mut ev,
                &shallow,
                &shallow,
                &self.relin,
                &self.gks,
                d,
            ) {
                Ok(_) => Ok(req.id),
                Err(e) => Err(AttemptError::Permanent(format!(
                    "{} fault: {e}",
                    HeOpKind::CtMatmul.fault_class()
                ))),
            };
        }
        if roll < 29 {
            return Err(AttemptError::Transient("injected transport blip".into()));
        }
        Ok(req.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted backend: each call pops the next outcome; `Ok` yields
    /// the request id.
    struct Scripted {
        outcomes: VecDeque<Result<u64, AttemptError>>,
        calls: u64,
    }

    impl Scripted {
        fn new(outcomes: Vec<Result<u64, AttemptError>>) -> Self {
            Self {
                outcomes: outcomes.into(),
                calls: 0,
            }
        }
    }

    impl InferenceService for Scripted {
        type Output = u64;
        fn infer(
            &mut self,
            req: &InferenceRequest,
            budget: &Budget,
        ) -> Result<u64, AttemptError> {
            self.calls += 1;
            budget
                .check("scripted", Progress::done(0))
                .map_err(AttemptError::Cancelled)?;
            match self.outcomes.pop_front() {
                Some(Ok(_)) => Ok(req.id),
                Some(Err(e)) => Err(e),
                None => Ok(req.id),
            }
        }
    }

    fn req(id: u64, model: &str, deadline: Duration) -> InferenceRequest {
        InferenceRequest::new(id, model, deadline)
    }

    fn treq(id: u64, tenant: &str, model: &str, deadline: Duration) -> InferenceRequest {
        InferenceRequest::new(id, model, deadline).with_tenant(tenant)
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            queue_capacity: 2,
            tenant_quota: 2,
            worker_count: 1,
            quarantine_threshold: 100,
            max_retries: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(20),
            slip_threshold: 2,
            service_time_hint: Duration::from_millis(1),
        }
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = ServeConfig::builder().build().expect("defaults are valid");
        let def = ServeConfig::default();
        assert_eq!(built.queue_capacity, def.queue_capacity);
        assert_eq!(built.tenant_quota, def.tenant_quota);
        assert_eq!(built.worker_count, def.worker_count);
        assert_eq!(built.quarantine_threshold, def.quarantine_threshold);
        assert_eq!(built.max_retries, def.max_retries);
        assert_eq!(built.base_backoff, def.base_backoff);
        assert_eq!(built.max_backoff, def.max_backoff);
        assert_eq!(built.breaker_threshold, def.breaker_threshold);
        assert_eq!(built.breaker_cooldown, def.breaker_cooldown);
        assert_eq!(built.slip_threshold, def.slip_threshold);
        assert_eq!(built.service_time_hint, def.service_time_hint);
    }

    #[test]
    fn builder_setters_reach_every_field() {
        let built = ServeConfig::builder()
            .queue_capacity(4)
            .tenant_quota(3)
            .worker_count(2)
            .quarantine_threshold(6)
            .max_retries(7)
            .base_backoff(Duration::from_micros(10))
            .max_backoff(Duration::from_millis(2))
            .breaker_threshold(5)
            .breaker_cooldown(Duration::from_millis(33))
            .slip_threshold(9)
            .service_time_hint(Duration::from_millis(3))
            .build()
            .expect("a consistent config builds");
        assert_eq!(built.queue_capacity, 4);
        assert_eq!(built.tenant_quota, 3);
        assert_eq!(built.worker_count, 2);
        assert_eq!(built.quarantine_threshold, 6);
        assert_eq!(built.max_retries, 7);
        assert_eq!(built.base_backoff, Duration::from_micros(10));
        assert_eq!(built.max_backoff, Duration::from_millis(2));
        assert_eq!(built.breaker_threshold, 5);
        assert_eq!(built.breaker_cooldown, Duration::from_millis(33));
        assert_eq!(built.slip_threshold, 9);
        assert_eq!(built.service_time_hint, Duration::from_millis(3));
    }

    #[test]
    fn builder_rejects_unusable_configs_with_typed_errors() {
        let cases: Vec<(ServeConfigBuilder, &str)> = vec![
            (ServeConfig::builder().queue_capacity(0), "queue_capacity"),
            (ServeConfig::builder().tenant_quota(0), "tenant_quota"),
            (ServeConfig::builder().worker_count(0), "worker_count"),
            (
                ServeConfig::builder().quarantine_threshold(0),
                "quarantine_threshold",
            ),
            (
                ServeConfig::builder().breaker_threshold(0),
                "breaker_threshold",
            ),
            (ServeConfig::builder().slip_threshold(0), "slip_threshold"),
            (
                ServeConfig::builder()
                    .base_backoff(Duration::from_secs(1))
                    .max_backoff(Duration::from_millis(1)),
                "base_backoff",
            ),
            (
                ServeConfig::builder().service_time_hint(Duration::ZERO),
                "service_time_hint",
            ),
        ];
        for (builder, field) in cases {
            match builder.build() {
                Err(ServeError::InvalidConfig { message }) => {
                    assert!(
                        message.contains(field),
                        "error for {field} should name it: {message}"
                    );
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn full_queue_sheds_with_retry_after_hint() {
        let mut cfg = cfg();
        cfg.tenant_quota = 8; // capacity binds before the quota here
        let mut d = BatchDriver::new(Scripted::new(vec![]), cfg);
        let sec = Duration::from_secs(1);
        assert!(d.submit(req(0, "m", sec)).is_ok());
        assert!(d.submit(req(1, "m", sec)).is_ok());
        let err = d.submit(req(2, "m", sec)).unwrap_err();
        match err {
            ServeError::Overloaded {
                queue_depth,
                capacity,
                retry_after,
            } => {
                assert_eq!((queue_depth, capacity), (2, 2));
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        assert_eq!(d.report().shed, 1);
        assert_eq!(d.report().submitted, 2);
    }

    #[test]
    fn tenant_quota_rejects_flooder_but_admits_others() {
        let mut cfg = cfg();
        cfg.queue_capacity = 16;
        cfg.tenant_quota = 2;
        let mut d = BatchDriver::new(Scripted::new(vec![]), cfg);
        let sec = Duration::from_secs(1);
        assert!(d.submit(treq(0, "noisy", "m", sec)).is_ok());
        assert!(d.submit(treq(1, "noisy", "m", sec)).is_ok());
        let err = d.submit(treq(2, "noisy", "m", sec)).unwrap_err();
        match err {
            ServeError::QuotaExceeded {
                tenant,
                in_queue,
                quota,
                ..
            } => {
                assert_eq!(tenant.as_str(), "noisy");
                assert_eq!((in_queue, quota), (2, 2));
            }
            other => panic!("expected QuotaExceeded, got {other}"),
        }
        // The quiet tenant is unaffected by the noisy one's quota.
        assert!(d.submit(treq(3, "quiet", "m", sec)).is_ok());
        assert_eq!(d.report().quota_rejected, 1);
        assert_eq!(d.report().submitted, 3);
    }

    #[test]
    fn weighted_fair_dequeue_interleaves_backlogged_tenants() {
        let mut q: WeightedFairQueue<u64> = WeightedFairQueue::new();
        let (a, b) = (TenantId::new("a"), TenantId::new("b"));
        for i in 0..4 {
            q.push(a.clone(), i);
        }
        q.push(b.clone(), 100);
        q.push(b.clone(), 101);
        let order: Vec<TenantId> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        // Equal weights: strict alternation while both lanes hold work.
        let names: Vec<&str> = order.iter().map(TenantId::as_str).collect();
        assert_eq!(names, ["a", "b", "a", "b", "a", "a"]);
    }

    #[test]
    fn weighted_fair_dequeue_honors_weights() {
        let mut q: WeightedFairQueue<u64> = WeightedFairQueue::new();
        let (heavy, light) = (TenantId::new("heavy"), TenantId::new("light"));
        q.set_weight(&heavy, 2);
        for i in 0..6 {
            q.push(heavy.clone(), i);
            q.push(light.clone(), 100 + i);
        }
        let mut first_six = Vec::new();
        for _ in 0..6 {
            let (t, _) = q.pop().expect("queued");
            first_six.push(t.as_str().to_string());
        }
        let heavy_share = first_six.iter().filter(|t| t.as_str() == "heavy").count();
        assert_eq!(heavy_share, 4, "weight 2 vs 1 gives a 2:1 split: {first_six:?}");
        // FIFO within a lane.
        assert!(q.depth_of(&heavy) + q.depth_of(&light) == 6);
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let svc = Scripted::new(vec![
            Err(AttemptError::Transient("blip".into())),
            Err(AttemptError::Transient("blip".into())),
            Ok(7),
        ]);
        let mut d = BatchDriver::new(svc, cfg());
        d.submit(req(7, "m", Duration::from_secs(2))).unwrap();
        let outcomes = d.run_queue();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].1.as_ref().ok(), Some(&7));
        assert_eq!(d.report().retries, 2);
        assert_eq!(d.report().completed, 1);
        assert_eq!(d.report().failed, 0);
    }

    #[test]
    fn retries_exhaust_into_a_typed_failure() {
        let svc = Scripted::new(vec![
            Err(AttemptError::Transient("blip".into()));
            8
        ]);
        let mut d = BatchDriver::new(svc, cfg());
        d.submit(req(1, "m", Duration::from_secs(2))).unwrap();
        let outcomes = d.run_queue();
        match &outcomes[0].1 {
            Err(ServeError::Failed { attempts, message }) => {
                assert_eq!(*attempts, 4, "initial try + max_retries");
                assert!(message.contains("blip"));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn consecutive_failures_trip_and_cool_the_breaker() {
        let svc = Scripted::new(vec![
            Err(AttemptError::Permanent("bad".into())),
            Err(AttemptError::Permanent("bad".into())),
            Ok(0),
        ]);
        let mut d = BatchDriver::new(svc, cfg());
        let sec = Duration::from_secs(1);
        d.submit(req(0, "m", sec)).unwrap();
        let _ = d.run_queue();
        d.submit(req(1, "m", sec)).unwrap();
        let _ = d.run_queue();
        assert_eq!(d.report().breaker_trips, 1);

        // Open: admission is rejected with a cooldown hint.
        let err = d.submit(req(2, "m", sec)).unwrap_err();
        match err {
            ServeError::CircuitOpen {
                model,
                consecutive_failures,
                retry_after,
                ..
            } => {
                assert_eq!(model, "m");
                assert_eq!(consecutive_failures, 2);
                assert!(retry_after <= cfg().breaker_cooldown);
            }
            other => panic!("expected CircuitOpen, got {other}"),
        }
        assert_eq!(d.report().rejected_open, 1);

        // Another model is unaffected.
        assert!(d.submit(req(3, "other", sec)).is_ok());
        let _ = d.run_queue();

        // After the cooldown a probe is admitted; its success closes
        // the breaker.
        std::thread::sleep(cfg().breaker_cooldown + Duration::from_millis(5));
        d.submit(req(4, "m", sec)).unwrap();
        let outcomes = d.run_queue();
        assert!(outcomes[0].1.is_ok());
        assert!(d.submit(req(5, "m", sec)).is_ok());
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let svc = Scripted::new(vec![
            Err(AttemptError::Permanent("bad".into())),
            Err(AttemptError::Permanent("bad".into())),
            Err(AttemptError::Permanent("still bad".into())),
        ]);
        let mut d = BatchDriver::new(svc, cfg());
        let sec = Duration::from_secs(1);
        for id in 0..2 {
            d.submit(req(id, "m", sec)).unwrap();
            let _ = d.run_queue();
        }
        assert_eq!(d.report().breaker_trips, 1);
        std::thread::sleep(cfg().breaker_cooldown + Duration::from_millis(5));
        // Half-open probe fails: breaker re-opens (second trip).
        d.submit(req(2, "m", sec)).unwrap();
        let _ = d.run_queue();
        assert_eq!(d.report().breaker_trips, 2);
        assert!(matches!(
            d.submit(req(3, "m", sec)),
            Err(ServeError::CircuitOpen { .. })
        ));
    }

    #[test]
    fn a_cancelled_probe_frees_the_half_open_slot() {
        let svc = Scripted::new(vec![
            Err(AttemptError::Permanent("bad".into())),
            Err(AttemptError::Permanent("bad".into())),
        ]);
        let mut d = BatchDriver::new(svc, cfg());
        let sec = Duration::from_secs(1);
        for id in 0..2 {
            d.submit(req(id, "m", sec)).unwrap();
            let _ = d.run_queue();
        }
        assert_eq!(d.report().breaker_trips, 1);
        std::thread::sleep(cfg().breaker_cooldown + Duration::from_millis(5));
        // The half-open probe slips on a zero deadline: no verdict on
        // the model, so the next request probes instead of being
        // rejected for good.
        d.submit(req(2, "m", Duration::ZERO)).unwrap();
        assert!(matches!(d.run_queue()[0].1, Err(ServeError::Cancelled(_))));
        d.submit(req(3, "m", sec)).unwrap();
        assert!(d.run_queue()[0].1.is_ok());
        assert!(d.submit(req(4, "m", sec)).is_ok(), "the probe closed it");
    }

    #[test]
    fn breakers_do_not_bleed_across_tenants() {
        // Same model, two tenants: tenant a's failures trip only a's
        // breaker.
        let svc = Scripted::new(vec![
            Err(AttemptError::Permanent("bad".into())),
            Err(AttemptError::Permanent("bad".into())),
            Ok(0),
        ]);
        let mut cfg = cfg();
        cfg.queue_capacity = 8;
        let mut d = BatchDriver::new(svc, cfg);
        let sec = Duration::from_secs(1);
        for id in 0..2 {
            d.submit(treq(id, "a", "m", sec)).unwrap();
            let _ = d.run_queue();
        }
        assert_eq!(d.report().breaker_trips, 1);
        assert!(matches!(
            d.submit(treq(2, "a", "m", sec)),
            Err(ServeError::CircuitOpen { .. })
        ));
        // Tenant b still runs model m.
        d.submit(treq(3, "b", "m", sec)).unwrap();
        let outcomes = d.run_queue();
        assert!(outcomes[0].1.is_ok());
    }

    #[test]
    fn deadline_slips_degrade_to_serial() {
        // Every attempt sees an already-expired budget.
        let mut d = BatchDriver::new(Scripted::new(vec![]), cfg());
        for id in 0..2 {
            d.submit(req(id, "m", Duration::ZERO)).unwrap();
        }
        let outcomes = d.run_queue();
        assert!(outcomes
            .iter()
            .all(|(_, o)| matches!(o, Err(ServeError::Cancelled(_)))));
        assert_eq!(d.report().cancelled, 2);
        assert!(d.report().degraded);
        assert!(matches!(d.mode(), Parallelism::Serial));
        // A later success resets the slip streak (mode stays serial —
        // degradation is sticky by design).
        d.submit(req(9, "m", Duration::from_secs(1))).unwrap();
        assert!(d.run_queue()[0].1.is_ok());
        assert_eq!(d.report().completed, 1);
    }

    /// Records the parallelism policy and thread of every attempt.
    #[derive(Clone, Default)]
    struct PolicyProbe {
        seen: std::sync::Arc<Mutex<Vec<(Parallelism, std::thread::ThreadId)>>>,
    }

    impl PolicyProbe {
        fn take(&self) -> Vec<(Parallelism, std::thread::ThreadId)> {
            std::mem::take(&mut *self.seen.lock().expect("probe lock"))
        }
    }

    impl InferenceService for PolicyProbe {
        type Output = u64;
        fn infer(&mut self, req: &InferenceRequest, _: &Budget) -> Result<u64, AttemptError> {
            let here = (par::parallelism(), std::thread::current().id());
            self.seen.lock().expect("probe lock").push(here);
            Ok(req.id)
        }
    }

    #[test]
    fn one_wide_waves_inherit_the_callers_policy_and_wider_waves_run_serial() {
        let caller = std::thread::current().id();
        let sec = Duration::from_secs(1);
        let probe = PolicyProbe::default();
        // One worker: every wave is one wide and keeps the caller's pin.
        for pinned in [Parallelism::Serial, Parallelism::Threads(3)] {
            let mut d = BatchDriver::new(probe.clone(), cfg());
            d.submit(req(0, "m", sec)).unwrap();
            d.submit(req(1, "m", sec)).unwrap();
            par::with_parallelism(pinned, || d.run_queue());
            assert_eq!(probe.take(), [(pinned, caller); 2]);
        }
        // Two workers: a two-wide wave runs Serial whatever the caller
        // pinned, and the caller serves one of its requests.
        let mut two = cfg();
        two.worker_count = 2;
        let factory: ServiceFactory<PolicyProbe> = {
            let probe = probe.clone();
            Box::new(move || Ok(probe.clone()))
        };
        let mut d = BatchDriver::with_factory(two, factory).expect("pool builds");
        d.submit(req(0, "m", sec)).unwrap();
        d.submit(req(1, "m", sec)).unwrap();
        par::with_parallelism(Parallelism::Threads(3), || d.run_queue());
        let seen = probe.take();
        assert!(
            seen.iter().all(|(mode, _)| *mode == Parallelism::Serial),
            "{seen:?}"
        );
        assert!(seen.iter().any(|(_, t)| *t == caller));
        // Two slips degrade the driver: from then on waves are one wide,
        // served on the caller under Serial.
        d.submit(req(2, "m", Duration::ZERO)).unwrap();
        d.submit(req(3, "m", Duration::ZERO)).unwrap();
        let _ = d.run_queue();
        assert!(d.report().degraded);
        assert_eq!(d.mode(), Parallelism::Serial);
        d.submit(req(4, "m", sec)).unwrap();
        d.submit(req(5, "m", sec)).unwrap();
        par::with_parallelism(Parallelism::Threads(3), || d.run_queue());
        assert_eq!(probe.take(), [(Parallelism::Serial, caller); 2]);
    }

    #[test]
    fn shutdown_token_cancels_queued_requests() {
        let mut d = BatchDriver::new(Scripted::new(vec![]), cfg());
        d.submit(req(0, "m", Duration::from_secs(30))).unwrap();
        d.shutdown_token().cancel();
        let outcomes = d.run_queue();
        match &outcomes[0].1 {
            Err(ServeError::Cancelled(stop)) => {
                assert_eq!(stop.cause, StopCause::CancelRequested);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn drain_closes_admission_but_serves_queued_requests() {
        let mut d = BatchDriver::new(Scripted::new(vec![]), cfg());
        d.submit(req(0, "m", Duration::from_secs(1))).unwrap();
        d.drain();
        assert!(d.is_draining());
        assert!(matches!(d.submit(req(1, "m", Duration::from_secs(1))), Err(ServeError::Draining)));
        // The queued request still completes: drain is advisory for
        // in-flight work, unlike a hard cancel.
        let outcomes = d.run_queue();
        assert!(outcomes[0].1.is_ok());
        assert_eq!(d.report().completed, 1);
        assert_eq!(d.report().rejected_draining, 1);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let d = BatchDriver::new(Scripted::new(vec![]), cfg());
        let b1 = d.backoff_delay(42, 1);
        assert_eq!(b1, d.backoff_delay(42, 1), "same seed, same delay");
        assert_ne!(
            d.backoff_delay(42, 1),
            d.backoff_delay(43, 1),
            "ids decorrelate"
        );
        for attempt in 1..12 {
            let b = d.backoff_delay(42, attempt);
            assert!(b <= cfg().max_backoff, "attempt {attempt}: {b:?} over cap");
            assert!(b >= cfg().base_backoff / 2);
        }
    }

    #[test]
    fn ewma_tracks_service_time() {
        let svc = Scripted::new(vec![]);
        let mut d = BatchDriver::new(svc, cfg());
        let before = d.service_time_estimate();
        d.submit(req(0, "m", Duration::from_secs(1))).unwrap();
        let _ = d.run_queue();
        // The scripted service is near-instant, so the estimate decays
        // toward zero from the 1 ms hint.
        assert!(d.service_time_estimate() < before);
    }

    #[test]
    fn cold_start_hint_uses_the_analytic_cycle_model() {
        let analytic = analytic_service_estimate("mnist")
            .expect("the lowering knows mnist");
        assert!(analytic > Duration::ZERO);
        assert_eq!(
            analytic_service_estimate("mnist"),
            Some(analytic),
            "memoized"
        );
        assert_eq!(analytic_service_estimate("no-such-model"), None);

        let mut cfg = cfg();
        cfg.queue_capacity = 1;
        cfg.tenant_quota = 8;
        let mut d = BatchDriver::new(Scripted::new(vec![]), cfg);
        d.submit(req(0, "mnist", Duration::from_secs(1))).unwrap();
        // No sample yet: the overload hint comes from the cycle model,
        // not the configured 1 ms hint.
        match d.submit(req(1, "mnist", Duration::from_secs(1))).unwrap_err() {
            ServeError::Overloaded { retry_after, .. } => {
                assert_eq!(retry_after, analytic, "depth 1 × analytic estimate");
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        // After a sample the EWMA takes over.
        let _ = d.run_queue();
        assert!(d.report().completed == 1);
        d.submit(req(2, "mnist", Duration::from_secs(1))).unwrap();
        match d.submit(req(3, "mnist", Duration::from_secs(1))).unwrap_err() {
            ServeError::Overloaded { retry_after, .. } => {
                assert!(retry_after < analytic, "EWMA of a near-instant service");
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }

    #[test]
    fn quarantine_rebuilds_the_worker_from_the_factory() {
        let mut cfg = cfg();
        cfg.worker_count = 2;
        cfg.quarantine_threshold = 2;
        cfg.queue_capacity = 8;
        cfg.tenant_quota = 8;
        // The initial pool (builds 0 and 1) is defective — every call
        // fails permanently. Rebuilt workers (build 2 onward) are
        // healthy.
        let builds = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let b = std::sync::Arc::clone(&builds);
        let factory: ServiceFactory<Scripted> = Box::new(move || {
            let n = b.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n < 2 {
                Ok(Scripted::new(vec![
                    Err(AttemptError::Permanent("defective worker".into()));
                    8
                ]))
            } else {
                Ok(Scripted::new(vec![]))
            }
        });
        let mut d = BatchDriver::with_factory(cfg, factory).expect("pool builds");
        assert_eq!(d.worker_count(), 2);
        let sec = Duration::from_secs(1);
        // One permanent failure per worker (+2 penalty, threshold 2):
        // both quarantine and are immediately rebuilt healthy.
        for id in 0..2 {
            d.submit(treq(id, format!("t{id}").as_str(), "m", sec)).unwrap();
        }
        let _ = d.run_queue();
        assert_eq!(d.report().quarantines, 2, "{}", d.report());
        assert_eq!(
            d.report().quarantines,
            d.report().worker_recoveries,
            "every quarantine rebuilt immediately: {}",
            d.report()
        );
        assert_eq!(d.healthy_workers(), 2);
        // The rebuilt pool serves cleanly.
        d.submit(treq(9, "t9", "m", sec)).unwrap();
        d.submit(treq(10, "t10", "m", sec)).unwrap();
        let outcomes = d.run_queue();
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()), "{}", d.report());
    }

    #[test]
    fn failing_factory_leaves_pool_quarantined_with_typed_failures() {
        let mut cfg = cfg();
        cfg.worker_count = 1;
        cfg.quarantine_threshold = 1;
        cfg.queue_capacity = 8;
        cfg.tenant_quota = 8;
        let healthy = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let h = std::sync::Arc::clone(&healthy);
        let factory: ServiceFactory<Scripted> = Box::new(move || {
            if h.load(std::sync::atomic::Ordering::SeqCst) {
                Ok(Scripted::new(vec![Err(AttemptError::Permanent(
                    "bad".into(),
                ))]))
            } else {
                Err("key cache poisoned".into())
            }
        });
        let mut d = BatchDriver::with_factory(cfg, factory).expect("pool builds");
        // Poison the factory, then fail the only worker: quarantine
        // with no rebuild possible.
        healthy.store(false, std::sync::atomic::Ordering::SeqCst);
        let sec = Duration::from_secs(1);
        d.submit(treq(0, "a", "m", sec)).unwrap();
        let _ = d.run_queue();
        assert_eq!(d.quarantined_workers(), 1);
        // Subsequent requests fail typed, not by panic.
        d.submit(treq(1, "b", "m", sec)).unwrap();
        let outcomes = d.run_queue();
        match &outcomes[0].1 {
            Err(ServeError::Failed { message, .. }) => {
                assert!(message.contains("no healthy worker"), "{message}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // Repair the factory: the next selection recovers the pool.
        healthy.store(true, std::sync::atomic::Ordering::SeqCst);
        d.submit(treq(2, "c", "m", sec)).unwrap();
        let _ = d.run_queue();
        assert_eq!(d.quarantined_workers(), 0);
        assert!(d.report().worker_recoveries >= 1);
    }

    #[test]
    fn model_cache_verifies_poison_and_repair() {
        let mut cache = ModelCache::new();
        let rotations = RotationSet::at_level([1, 2], 2);
        cache.generate("toy", CkksParams::insecure_toy(3), &rotations, 7);
        assert!(cache.contains("toy"));
        let healthy_checksum = cache.checksum_of("toy").expect("cached");
        let verified = cache.verify("toy").expect("fresh material verifies");
        assert_eq!(verified.checksum, healthy_checksum);
        assert!(cache.poison("toy"));
        let err = match cache.verify("toy") {
            Err(e) => e,
            Ok(_) => panic!("poisoned material must not verify"),
        };
        assert!(err.contains("relin key frame"), "{err}");
        assert!(cache.repair("toy", &rotations, 7));
        assert_eq!(cache.checksum_of("toy"), Some(healthy_checksum));
        assert!(cache.verify("toy").is_ok());
        assert!(cache.verify("missing").is_err());
    }

    #[test]
    fn model_cache_roundtrips_through_disk_frames() {
        let mut cache = ModelCache::new();
        cache.generate("toy", CkksParams::insecure_toy(3), &RotationSet::at_level([1, 2], 2), 7);
        let checksum = cache.checksum_of("toy").expect("cached");
        let dir =
            std::env::temp_dir().join(format!("fxhenn-cache-test-{}", std::process::id()));
        assert!(cache.store_to_dir("toy", &dir).expect("store"));
        assert!(!cache.store_to_dir("missing", &dir).expect("store"));

        let mut loaded = ModelCache::new();
        loaded
            .load_from_dir("toy", CkksParams::insecure_toy(3), &dir)
            .expect("load");
        assert_eq!(loaded.checksum_of("toy"), Some(checksum));
        assert!(loaded.verify("toy").is_ok());

        // Poisoning a loaded frame copy-on-writes the in-memory bytes;
        // the files on disk stay intact and reload cleanly.
        assert!(loaded.poison("toy"));
        assert!(loaded.verify("toy").is_err());
        let mut reloaded = ModelCache::new();
        reloaded
            .load_from_dir("toy", CkksParams::insecure_toy(3), &dir)
            .expect("reload");
        assert!(reloaded.verify("toy").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_service_is_deterministic_and_rejects_corruption() {
        let mut cache = ModelCache::new();
        // Keys cut below the template's top level, as a program that
        // rotates only after its first rescale has them.
        cache.generate("toy", CkksParams::insecure_toy(3), &RotationSet::at_level([1], 2), 11);
        let mut a = ChaosService::from_cache(&cache, "toy", 99).expect("verifies");
        let mut b = ChaosService::from_cache(&cache, "toy", 99).expect("verifies");
        let budget = Budget::unlimited().start();
        let mut saw_corrupt = false;
        let mut saw_exhausted = false;
        let mut saw_key_switch = false;
        let mut saw_canary = false;
        let mut saw_sign = false;
        let mut saw_matmul = false;
        let mut saw_transient = false;
        let mut saw_ok = false;
        for id in 0..200 {
            let r = req(id, "toy", Duration::from_secs(1));
            let ra = a.infer(&r, &budget);
            let rb = b.infer(&r, &budget);
            assert_eq!(ra.is_ok(), rb.is_ok(), "same seed, same schedule");
            match ra {
                Ok(_) => saw_ok = true,
                Err(AttemptError::Permanent(m)) => {
                    if m.contains("corrupt") {
                        saw_corrupt = true;
                    } else if m.contains("evaluation refused") {
                        assert!(m.contains("noise budget exhausted"), "{m}");
                        saw_exhausted = true;
                    } else if m.contains("canary verification failed") {
                        assert!(m.contains("noise model violation"), "{m}");
                        saw_canary = true;
                    } else if m.starts_with(HeOpKind::Rotate.fault_class()) {
                        assert!(m.contains("reaches level 2"), "{m}");
                        saw_key_switch = true;
                    } else if m.starts_with(HeOpKind::Sign.fault_class()) {
                        assert!(m.contains("level exhausted"), "{m}");
                        saw_sign = true;
                    } else if m.starts_with(HeOpKind::CtMatmul.fault_class()) {
                        assert!(m.contains("level exhausted"), "{m}");
                        saw_matmul = true;
                    } else {
                        panic!("unexpected permanent failure: {m}");
                    }
                }
                Err(AttemptError::Transient(_)) => saw_transient = true,
                Err(AttemptError::Cancelled(_)) => panic!("unlimited budget"),
            }
        }
        assert!(
            saw_ok && saw_corrupt && saw_exhausted && saw_canary && saw_transient,
            "all legacy fault classes must fire in 200 calls"
        );
        assert!(
            saw_key_switch && saw_sign && saw_matmul,
            "registry-derived fault classes must fire in 200 calls"
        );
        // Poisoned models always fail permanently.
        let r = req(0, "poisoned-v2", Duration::from_secs(1));
        assert!(matches!(
            a.infer(&r, &budget),
            Err(AttemptError::Permanent(_))
        ));
        // A poisoned cache refuses to build a worker at all.
        cache.poison("toy");
        assert!(ChaosService::from_cache(&cache, "toy", 99).is_err());
    }
}
