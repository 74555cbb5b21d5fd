//! Cooperative execution budgets: wall-clock deadlines and cancellation.
//!
//! FxHENN's value proposition is *bounded* latency — the DSE guarantees
//! an inference finishes within a device budget (Eqs. 1–9). The software
//! stack mirrors that guarantee with a cooperative [`Budget`]: a
//! deadline plus a [`CancelToken`] that every long-running loop checks
//! at a natural granularity (limb batch, HE op, network layer, DSE
//! point, simulated trace record). A loop that observes an exhausted
//! budget stops at the next check point and returns a typed
//! `Cancelled`-style error carrying the phase, the elapsed time and how
//! far it got — never a wedged thread, never a partial result passed
//! off as complete.
//!
//! # Ambient installation
//!
//! Budgets are installed for a dynamic scope with [`with_budget`]; the
//! checks ([`check`]) read the calling thread's ambient budget, so deep
//! callees (the evaluator inside the executor inside the co-simulator)
//! honour the caller's deadline without every signature carrying a
//! budget parameter. [`crate::par`]'s scheduling point forwards the
//! ambient budget into its worker threads, so limb-parallel work items
//! see the same deadline as the thread that spawned them.
//!
//! With no ambient budget installed every check is `Ok(())` and costs
//! one thread-local read — the unbudgeted hot path stays unchanged.
//!
//! # The budget clock
//!
//! Budgets read [`now`]: the wall clock plus whatever time injected
//! faults have charged on this thread. A fault that models a slow
//! kernel ([`crate::par::with_limb_delay`]) advances that clock instead
//! of sleeping, so a deadline test stops at the same point whatever the
//! host's load or the kernels' speed. Outside fault injection nothing is
//! charged and [`now`] is `Instant::now()`.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag: clone it, hand one handle to the worker
/// and keep one to cancel from outside (another thread, a signal
/// handler, a serve-driver admission loop).
///
/// Shutdown is two-phase. [`request_drain`](Self::request_drain) is the
/// soft phase: admission loops stop accepting new work but in-flight
/// requests run to completion — budget checks keep passing. [`cancel`]
/// (Self::cancel) is the hard phase: every budget gate observes the
/// stop at its next check point. Draining a token never cancels it;
/// cancelling a token implies it is also draining (no admission while
/// tearing down).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once any clone has called [`cancel`](Self::cancel).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: stop admitting new work, let
    /// in-flight work finish. Advisory — budget checks ignore it;
    /// admission paths consult [`is_draining`](Self::is_draining).
    /// Idempotent; visible to every clone.
    pub fn request_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// True once any clone has requested a drain *or* a hard cancel
    /// (cancellation implies no further admission).
    pub fn is_draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || self.is_cancelled()
    }
}

/// How far a cancelled loop had progressed when it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Work items completed before the stop (ops, layers, points,
    /// records — the phase names the unit).
    pub done: u64,
    /// Total work items, when the loop knows it up front.
    pub total: Option<u64>,
}

impl Progress {
    /// Progress with an unknown total.
    pub fn done(done: u64) -> Self {
        Self { done, total: None }
    }

    /// Progress out of a known total.
    pub fn of(done: u64, total: u64) -> Self {
        Self {
            done,
            total: Some(total),
        }
    }
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.total {
            Some(t) => write!(f, "{}/{t}", self.done),
            None => write!(f, "{}", self.done),
        }
    }
}

/// Why a budget check said "stop".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The [`CancelToken`] was triggered.
    CancelRequested,
    /// The wall-clock deadline passed.
    DeadlineExpired {
        /// The deadline that was set.
        deadline: Duration,
    },
}

/// A failed budget check: the typed payload every per-crate `Cancelled`
/// error wraps.
#[derive(Clone, PartialEq)]
pub struct BudgetStop {
    /// The loop that observed the stop ("he-op", "layer",
    /// "dse-explore", "sim-station", ...).
    pub phase: &'static str,
    /// Why the loop stopped.
    pub cause: StopCause,
    /// Wall-clock time since the budget started.
    pub elapsed: Duration,
    /// How far the loop got.
    pub progress: Progress,
}

impl std::fmt::Display for BudgetStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cause = match self.cause {
            StopCause::CancelRequested => "cancelled".to_string(),
            StopCause::DeadlineExpired { deadline } => {
                format!("deadline of {deadline:?} expired")
            }
        };
        write!(
            f,
            "{cause} during {} after {:?} ({} items done)",
            self.phase, self.elapsed, self.progress
        )
    }
}

impl std::fmt::Debug for BudgetStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for BudgetStop {}

/// A cooperative execution budget: an optional wall-clock deadline and
/// an optional cancellation token, measured from [`Budget::start`] (or
/// construction).
#[derive(Debug, Clone)]
pub struct Budget {
    started: Instant,
    deadline: Option<Duration>,
    token: Option<CancelToken>,
}

impl Budget {
    /// A budget that never stops anything (checks always pass).
    pub fn unlimited() -> Self {
        Self {
            started: now(),
            deadline: None,
            token: None,
        }
    }

    /// A budget that expires `deadline` after construction.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            started: now(),
            deadline: Some(deadline),
            token: None,
        }
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Restarts the clock: elapsed time and the deadline are measured
    /// from now. Used by drivers that construct a budget ahead of
    /// dispatching the request it bounds.
    pub fn start(mut self) -> Self {
        self.started = now();
        self
    }

    /// Time since the budget('s clock) started.
    pub fn elapsed(&self) -> Duration {
        now().saturating_duration_since(self.started)
    }

    /// Time left before the deadline (`None` when no deadline is set,
    /// zero once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_sub(self.elapsed()))
    }

    /// True when a check would fail right now.
    pub fn is_exhausted(&self) -> bool {
        self.exhaustion(now()).is_some()
    }

    fn exhaustion(&self, now: Instant) -> Option<StopCause> {
        if self.token.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopCause::CancelRequested);
        }
        match self.deadline {
            Some(d) if now.saturating_duration_since(self.started) >= d => {
                Some(StopCause::DeadlineExpired { deadline: d })
            }
            _ => None,
        }
    }

    /// The cooperative check point: `Ok(())` while the budget holds,
    /// a typed [`BudgetStop`] naming `phase` and `progress` once the
    /// token fired or the deadline passed.
    pub fn check(&self, phase: &'static str, progress: Progress) -> Result<(), BudgetStop> {
        self.check_at(phase, progress, now())
    }

    /// [`check`](Self::check) against a caller-supplied clock: the
    /// deadline is judged at `now`. A loop that models waiting — the
    /// simulator's stalled station — advances `now` instead of sleeping,
    /// so its deadline behaviour does not depend on the host's load.
    pub fn check_at(
        &self,
        phase: &'static str,
        progress: Progress,
        now: Instant,
    ) -> Result<(), BudgetStop> {
        match self.exhaustion(now) {
            None => Ok(()),
            Some(cause) => Err(BudgetStop {
                phase,
                cause,
                elapsed: now.saturating_duration_since(self.started),
                progress,
            }),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

thread_local! {
    static AMBIENT: RefCell<Option<Budget>> = const { RefCell::new(None) };
    static CHARGED: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// The budget clock of the calling thread: the wall clock plus the time
/// injected faults have charged to it (see the module docs).
pub fn now() -> Instant {
    Instant::now() + charged()
}

/// Time injected faults have charged to this thread's budget clock.
pub(crate) fn charged() -> Duration {
    CHARGED.with(Cell::get)
}

/// Sets the time charged to this thread's budget clock: fault hooks
/// advance it instead of sleeping and restore it on exit, and spawned
/// workers inherit the caller's.
pub(crate) fn set_charged(d: Duration) {
    CHARGED.with(|c| c.set(d));
}

/// Runs `f` with `budget` installed as the calling thread's ambient
/// budget, restoring the previous ambient afterwards. Nested
/// installations shadow outer ones for their scope.
pub fn with_budget<R>(budget: &Budget, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Budget>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|b| *b.borrow_mut() = self.0.take());
        }
    }
    let prev = AMBIENT.with(|b| b.borrow_mut().replace(budget.clone()));
    let _restore = Restore(prev);
    f()
}

/// The calling thread's ambient budget, if one is installed.
/// [`crate::par`] uses this to forward the budget into worker threads.
pub fn current() -> Option<Budget> {
    AMBIENT.with(|b| b.borrow().clone())
}

/// Checks the ambient budget: always `Ok(())` when none is installed.
pub fn check(phase: &'static str, progress: Progress) -> Result<(), BudgetStop> {
    AMBIENT.with(|b| match &*b.borrow() {
        None => Ok(()),
        Some(budget) => budget.check(phase, progress),
    })
}

/// Checks the ambient budget at a caller-supplied `now` (see
/// [`Budget::check_at`]).
pub fn check_at(phase: &'static str, progress: Progress, now: Instant) -> Result<(), BudgetStop> {
    AMBIENT.with(|b| match &*b.borrow() {
        None => Ok(()),
        Some(budget) => budget.check_at(phase, progress, now),
    })
}

/// True when an ambient budget is installed and already exhausted.
pub fn ambient_exhausted() -> bool {
    AMBIENT.with(|b| b.borrow().as_ref().is_some_and(Budget::is_exhausted))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(b.check("x", Progress::done(0)).is_ok());
        assert!(!b.is_exhausted());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn expired_deadline_stops_with_cause_and_progress() {
        let b = Budget::with_deadline(Duration::ZERO);
        let stop = b.check("phase-x", Progress::of(3, 10)).unwrap_err();
        assert_eq!(stop.phase, "phase-x");
        assert_eq!(stop.progress, Progress::of(3, 10));
        assert!(matches!(stop.cause, StopCause::DeadlineExpired { .. }));
        assert!(stop.to_string().contains("phase-x"), "{stop}");
        assert!(stop.to_string().contains("3/10"), "{stop}");
    }

    #[test]
    fn check_at_judges_the_deadline_on_the_supplied_clock() {
        let deadline = Duration::from_secs(3600);
        let b = Budget::with_deadline(deadline);
        let now = Instant::now();
        assert!(b.check_at("x", Progress::done(0), now).is_ok());
        let stop = b
            .check_at("x", Progress::done(1), now + deadline)
            .unwrap_err();
        assert!(matches!(stop.cause, StopCause::DeadlineExpired { .. }));
        assert!(stop.elapsed >= deadline, "elapsed is read off the same clock");
        // The ambient form follows the installed budget.
        with_budget(&b, || {
            assert!(check_at("y", Progress::done(0), now).is_ok());
            assert!(check_at("y", Progress::done(0), now + deadline).is_err());
        });
        assert!(check_at("y", Progress::done(0), now + deadline).is_ok());
    }

    #[test]
    fn drain_is_advisory_and_cancel_implies_draining() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        token.request_drain();
        // Drain stops admission, not in-flight work: checks still pass.
        assert!(token.is_draining());
        assert!(!token.is_cancelled());
        assert!(b.check("in-flight", Progress::done(1)).is_ok());
        // Hard cancel flips both.
        let hard = CancelToken::new();
        hard.cancel();
        assert!(hard.is_cancelled());
        assert!(hard.is_draining(), "cancel must imply draining");
    }

    #[test]
    fn cancel_token_stops_every_clone() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert!(b.check("p", Progress::done(0)).is_ok());
        token.clone().cancel();
        let stop = b.check("p", Progress::done(7)).unwrap_err();
        assert_eq!(stop.cause, StopCause::CancelRequested);
    }

    #[test]
    fn ambient_budget_is_scoped_and_restored() {
        assert!(check("outside", Progress::done(0)).is_ok());
        let b = Budget::with_deadline(Duration::ZERO);
        with_budget(&b, || {
            assert!(check("inside", Progress::done(0)).is_err());
            with_budget(&Budget::unlimited(), || {
                assert!(check("nested", Progress::done(0)).is_ok());
            });
            assert!(check("inside-again", Progress::done(0)).is_err());
        });
        assert!(check("after", Progress::done(0)).is_ok());
        assert!(current().is_none());
    }

    #[test]
    fn remaining_counts_down_and_saturates() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        let r = b.remaining().unwrap();
        assert!(r <= Duration::from_secs(3600) && r > Duration::from_secs(3500));
        let expired = Budget::with_deadline(Duration::ZERO);
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn restart_resets_the_clock() {
        let b = Budget::with_deadline(Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(2));
        let restarted = b.clone().start();
        assert!(restarted.elapsed() < b.elapsed());
    }
}
