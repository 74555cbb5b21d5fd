//! Smoke test for the deadline-aware batch driver: a mixed stream of
//! requests must demonstrate load shedding, backoff-retry success, a
//! circuit-breaker trip and deadline cancellation — without a single
//! panic, and without the harness ever hanging (the whole scenario is
//! driven under a watchdog thread).
//!
//! The second half proves the pool serves a wave of requests at once,
//! with interleavings forced by barriers and channels: requests that
//! must meet deadlock if served one at a time, outcomes keep dequeue
//! order, deadlines and cancels end typed on every thread, and a wave
//! spawns at most one thread fewer than it has workers.

use fxhenn::math::budget::{Budget, Progress, StopCause};
use fxhenn::math::par;
use fxhenn::serve::{
    AttemptError, BatchDriver, DesignFlowService, InferenceRequest, InferenceService, ServeConfig,
    ServeError,
};
use fxhenn::FpgaDevice;
use std::collections::{HashSet, VecDeque};
#[cfg(feature = "parallel")]
use std::sync::Barrier;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// Runs `f` on a worker thread and fails the test if it has not
/// finished within `limit` — a wedged driver is a test failure, not a
/// stuck CI job.
fn under_watchdog<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("driver did not finish within {limit:?}"));
    handle.join().expect("driver thread panicked");
    out
}

/// A scripted backend: pops the next outcome per call; an empty script
/// means success. Checks its budget like a real service would.
struct Scripted {
    outcomes: VecDeque<Result<(), AttemptError>>,
}

impl InferenceService for Scripted {
    type Output = u64;
    fn infer(&mut self, req: &InferenceRequest, budget: &Budget) -> Result<u64, AttemptError> {
        budget
            .check("scripted", Progress::done(0))
            .map_err(AttemptError::Cancelled)?;
        match self.outcomes.pop_front() {
            Some(Ok(())) | None => Ok(req.id),
            Some(Err(e)) => Err(e),
        }
    }
}

fn req(id: u64, model: &str, deadline: Duration) -> InferenceRequest {
    InferenceRequest::new(id, model, deadline)
}

#[test]
fn mixed_request_stream_exercises_every_policy() {
    let report = under_watchdog(Duration::from_secs(60), || {
        let script = vec![
            // id 0: two transient blips, then success (retry path).
            Err(AttemptError::Transient("link blip".into())),
            Err(AttemptError::Transient("link blip".into())),
            Ok(()),
            // id 1: clean success.
            Ok(()),
            // ids 2 and 3: permanent failures — trip the breaker.
            Err(AttemptError::Permanent("model corrupt".into())),
            Err(AttemptError::Permanent("model corrupt".into())),
        ];
        let cfg = ServeConfig {
            queue_capacity: 4,
            // Above queue_capacity so the shared-capacity check (not
            // the per-tenant quota) rejects the 5th request below.
            tenant_quota: 8,
            max_retries: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(30),
            slip_threshold: 2,
            service_time_hint: Duration::from_millis(1),
            ..ServeConfig::default()
        };
        let mut driver = BatchDriver::new(
            Scripted {
                outcomes: script.into(),
            },
            cfg,
        );

        let generous = Duration::from_secs(5);
        // Admit 4 healthy-model requests into a 4-slot queue...
        for id in 0..4 {
            let model = if id < 2 { "good" } else { "flaky" };
            driver.submit(req(id, model, generous)).expect("queue has room");
        }
        // ...and shed the 5th.
        let shed = driver.submit(req(4, "good", generous)).unwrap_err();
        assert!(
            matches!(shed, ServeError::Overloaded { retry_after, .. } if retry_after > Duration::ZERO),
            "expected a retry-after hint, got {shed}"
        );

        let outcomes = driver.run_queue();
        assert_eq!(outcomes.len(), 4);
        // Retry path: id 0 succeeded after two transient failures.
        assert_eq!(outcomes[0].1.as_ref().ok(), Some(&0));
        assert_eq!(outcomes[1].1.as_ref().ok(), Some(&1));
        // Breaker path: both "flaky" requests failed permanently...
        assert!(matches!(outcomes[2].1, Err(ServeError::Failed { .. })));
        assert!(matches!(outcomes[3].1, Err(ServeError::Failed { .. })));
        // ...and the breaker is now open for that model only.
        let rejected = driver.submit(req(5, "flaky", generous)).unwrap_err();
        assert!(
            matches!(&rejected, ServeError::CircuitOpen { model, .. } if model == "flaky"),
            "expected CircuitOpen for flaky, got {rejected}"
        );
        assert!(driver.submit(req(6, "good", generous)).is_ok());

        // Deadline path: two zero-deadline requests slip and degrade
        // the driver to serial dispatch.
        driver.submit(req(7, "good", Duration::ZERO)).expect("room");
        driver.submit(req(8, "good", Duration::ZERO)).expect("room");
        let outcomes = driver.run_queue();
        let cancelled = outcomes
            .iter()
            .filter(|(_, o)| matches!(o, Err(ServeError::Cancelled(_))))
            .count();
        assert_eq!(cancelled, 2, "both zero-deadline requests must slip");

        driver.report().clone()
    });

    assert_eq!(report.completed, 3, "ids 0, 1 and 6");
    assert_eq!(report.shed, 1);
    assert_eq!(report.retries, 2);
    assert_eq!(report.failed, 2);
    assert_eq!(report.breaker_trips, 1);
    assert_eq!(report.rejected_open, 1);
    assert_eq!(report.cancelled, 2);
    assert!(report.degraded, "consecutive slips must degrade to serial");
}

#[test]
fn real_flow_backend_sheds_and_completes() {
    // The real DesignFlowService end to end: a 2-slot queue fed 3
    // requests completes 2 designs and sheds 1, deterministically.
    let report = under_watchdog(Duration::from_secs(300), || {
        let mut driver = BatchDriver::new(
            DesignFlowService::new(FpgaDevice::acu9eg()),
            ServeConfig {
                queue_capacity: 2,
                ..ServeConfig::default()
            },
        );
        let generous = Duration::from_secs(120);
        for id in 0..3 {
            let _ = driver.submit(req(id, "mnist", generous));
        }
        let outcomes = driver.run_queue();
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()), "{outcomes:?}");
        driver.report().clone()
    });
    assert_eq!(report.completed, 2);
    assert_eq!(report.shed, 1);
    assert_eq!(report.failed, 0);
    assert!(!report.degraded);
}

#[test]
fn real_flow_backend_is_cancelled_by_a_tight_deadline() {
    // A 2 ms deadline cannot fit a full MNIST design flow: the request
    // must come back Cancelled (typed), never wedge the driver.
    let outcome = under_watchdog(Duration::from_secs(60), || {
        let mut driver = BatchDriver::new(
            DesignFlowService::new(FpgaDevice::acu9eg()),
            ServeConfig::default(),
        );
        driver
            .submit(req(0, "mnist", Duration::from_millis(2)))
            .expect("queue has room");
        let mut outcomes = driver.run_queue();
        outcomes.pop().expect("one outcome").1
    });
    match outcome {
        Err(ServeError::Cancelled(stop)) => {
            assert!(
                stop.elapsed < Duration::from_secs(30),
                "cancel must be prompt, took {:?}",
                stop.elapsed
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// A backend made of a closure, so each concurrency test states its
/// behaviour where it is used.
struct FnService<F>(F);

impl<F> InferenceService for FnService<F>
where
    F: FnMut(&InferenceRequest, &Budget) -> Result<u64, AttemptError>,
{
    type Output = u64;
    fn infer(&mut self, req: &InferenceRequest, budget: &Budget) -> Result<u64, AttemptError> {
        (self.0)(req, budget)
    }
}

/// A pool of `workers` copies of `service` behind a queue large enough
/// for every test below.
fn pool<F>(workers: usize, service: F) -> BatchDriver<FnService<F>>
where
    F: FnMut(&InferenceRequest, &Budget) -> Result<u64, AttemptError> + Clone + 'static,
{
    let cfg = ServeConfig {
        queue_capacity: 16,
        tenant_quota: 16,
        worker_count: workers,
        ..ServeConfig::default()
    };
    BatchDriver::with_factory(cfg, Box::new(move || Ok(FnService(service.clone()))))
        .expect("the pool builds")
}

/// Admits requests `0..count` for model `"m"`, each with `deadline`.
fn submit_all<S: InferenceService>(driver: &mut BatchDriver<S>, count: u64, deadline: Duration) {
    for id in 0..count {
        driver
            .submit(req(id, "m", deadline))
            .expect("the queue has room");
    }
}

/// Records the calling thread into `log`.
fn log_thread(log: &Mutex<Vec<ThreadId>>) {
    log.lock()
        .expect("the thread log is never held across a panic")
        .push(std::thread::current().id());
}

#[cfg(feature = "parallel")]
#[test]
fn two_workers_serve_two_requests_at_once() {
    // Every attempt waits at a two-party barrier: served one at a time,
    // the first request would wait forever.
    let outcomes = under_watchdog(Duration::from_secs(60), || {
        let barrier = Arc::new(Barrier::new(2));
        let mut driver = pool(2, move |req: &InferenceRequest, _: &Budget| {
            barrier.wait();
            Ok(req.id)
        });
        submit_all(&mut driver, 2, Duration::from_secs(30));
        driver.run_queue()
    });
    let ids: Vec<_> = outcomes
        .iter()
        .map(|(id, o)| (*id, o.as_ref().ok().copied()))
        .collect();
    assert_eq!(ids, [(0, Some(0)), (1, Some(1))]);
}

#[cfg(feature = "parallel")]
#[test]
fn outcomes_keep_dequeue_order_when_the_first_request_finishes_last() {
    let (outcomes, finished) = under_watchdog(Duration::from_secs(60), || {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Arc::new(Mutex::new(rx));
        let finished = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&finished);
        // Request 0 (served by the caller) waits for request 1 (on the
        // spawned thread) to finish first.
        let mut driver = pool(2, move |req: &InferenceRequest, _: &Budget| {
            if req.id == 0 {
                rx.lock()
                    .expect("rx lock")
                    .recv()
                    .expect("request 1 signals");
            }
            log.lock().expect("finish log").push(req.id);
            if req.id == 1 {
                tx.send(()).expect("request 0 listens");
            }
            Ok(req.id)
        });
        submit_all(&mut driver, 2, Duration::from_secs(30));
        let outcomes = driver.run_queue();
        let finished = finished.lock().expect("finish log").clone();
        (outcomes, finished)
    });
    assert_eq!(finished, [1, 0], "request 1 must finish first");
    let ids: Vec<u64> = outcomes.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, [0, 1], "outcomes come back in dequeue order");
    assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
}

#[test]
fn zero_deadlines_and_a_shutdown_cancel_end_typed_on_every_thread() {
    let (expired, cancelled, threads, caller) = under_watchdog(Duration::from_secs(60), || {
        let caller = std::thread::current().id();
        let threads = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&threads);
        let service = move |req: &InferenceRequest, budget: &Budget| {
            log_thread(&log);
            budget
                .check("probe", Progress::done(0))
                .map_err(AttemptError::Cancelled)?;
            Ok(req.id)
        };

        // A two-wide wave of zero-deadline requests.
        let mut driver = pool(2, service.clone());
        submit_all(&mut driver, 2, Duration::ZERO);
        let expired = driver.run_queue();

        // A two-wide wave stopped by the shutdown token.
        let mut driver = pool(2, service);
        submit_all(&mut driver, 2, Duration::from_secs(30));
        driver.shutdown_token().cancel();
        let cancelled = driver.run_queue();
        let threads = threads.lock().expect("thread log").clone();
        (expired, cancelled, threads, caller)
    });
    for (id, outcome) in &expired {
        assert!(
            matches!(outcome, Err(ServeError::Cancelled(stop))
                if matches!(stop.cause, StopCause::DeadlineExpired { .. })),
            "request {id}: {outcome:?}"
        );
    }
    for (id, outcome) in &cancelled {
        assert!(
            matches!(outcome, Err(ServeError::Cancelled(stop))
                if stop.cause == StopCause::CancelRequested),
            "request {id}: {outcome:?}"
        );
    }
    assert_eq!(expired.len() + cancelled.len(), 4);
    // Only the cancelled wave reached the service: once on the caller,
    // and (with the `parallel` feature) once on a spawned thread.
    assert_eq!(threads.len(), 2);
    assert!(threads.contains(&caller));
    #[cfg(feature = "parallel")]
    assert!(threads.iter().any(|t| *t != caller));
}

#[test]
fn a_budget_clock_charged_by_a_kernel_delay_trips_the_deadline_on_every_thread() {
    let (outcomes, threads, caller) = under_watchdog(Duration::from_secs(60), || {
        let caller = std::thread::current().id();
        let threads = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&threads);
        // An hour charged at one kernel scheduling point, against a
        // one-minute deadline: no sleep, and no dependence on the host.
        let mut driver = pool(2, move |req: &InferenceRequest, budget: &Budget| {
            log_thread(&log);
            par::with_limb_delay(Duration::from_secs(3600), || {
                let _ = par::map_indexed(2, 1, |i| i);
                budget.check("slow-kernel", Progress::done(1))
            })
            .map_err(AttemptError::Cancelled)?;
            Ok(req.id)
        });
        submit_all(&mut driver, 2, Duration::from_secs(60));
        let outcomes = driver.run_queue();
        let threads = threads.lock().expect("thread log").clone();
        (outcomes, threads, caller)
    });
    assert_eq!(outcomes.len(), 2);
    for (id, outcome) in &outcomes {
        assert!(
            matches!(outcome, Err(ServeError::Cancelled(stop))
                if matches!(stop.cause, StopCause::DeadlineExpired { .. })
                    && stop.phase == "slow-kernel"),
            "request {id}: {outcome:?}"
        );
    }
    assert!(threads.contains(&caller));
    #[cfg(feature = "parallel")]
    assert!(threads.iter().any(|t| *t != caller));
}

#[test]
fn each_wave_spawns_at_most_one_thread_fewer_than_its_workers() {
    const WORKERS: usize = 3;
    let rounds = under_watchdog(Duration::from_secs(60), || {
        let caller = std::thread::current().id();
        let threads = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&threads);
        let mut driver = pool(WORKERS, move |req: &InferenceRequest, _: &Budget| {
            log_thread(&log);
            Ok(req.id)
        });
        let mut rounds = Vec::new();
        for round in 0..3u64 {
            for k in 0..WORKERS as u64 {
                driver
                    .submit(req(round * 10 + k, "m", Duration::from_secs(30)))
                    .expect("room");
            }
            assert!(driver.run_queue().iter().all(|(_, o)| o.is_ok()));
            let served = std::mem::take(&mut *threads.lock().expect("thread log"));
            rounds.push((caller, served));
        }
        rounds
    });
    for (caller, served) in rounds {
        assert_eq!(served.len(), WORKERS);
        let on_caller = served.iter().filter(|t| **t == caller).count();
        let others: HashSet<_> = served.iter().filter(|t| **t != caller).collect();
        assert!(on_caller >= 1, "the caller serves a request of every wave");
        assert!(
            others.len() < WORKERS,
            "{} spawned threads for {WORKERS} workers",
            others.len()
        );
        // With threads available, the wave is fully concurrent: one
        // request on the caller, each other on a thread of its own.
        #[cfg(feature = "parallel")]
        assert_eq!((on_caller, others.len()), (1, WORKERS - 1));
    }
}
