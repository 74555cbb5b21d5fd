//! `serve_toy`: the toy network (≈ 25 ms a request at N = 1024) through
//! the batch driver — requests short enough that queueing, dispatch and
//! worker concurrency are what the clock sees.

use crate::host::nproc;
use crate::infer::Model;
use crate::trace::{median, quantile, Tracer};
use crate::workload::{put, Metrics, OpReport, Shape, Workload};
use fxhenn::ckks::wire::AlignedBytes;
use fxhenn::ckks::CkksParams;
use fxhenn::math::budget::{Budget, Progress};
use fxhenn::nn::{toy_mnist_like, CtLayout};
use fxhenn::{AttemptError, BatchDriver, InferenceRequest, InferenceService, ServeConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MODEL_NAME: &str = "toy-mnist";
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Generous on purpose: no request of this workload should slip.
const DEADLINE: Duration = Duration::from_secs(60);

/// When a worker started and finished one request, stage by stage.
struct Stamp {
    id: u64,
    start: Instant,
    ingested: Instant,
    ran: Instant,
    done: Instant,
}

/// What the client and the workers share: framed requests waiting for
/// their worker, and the workers' stamps.
#[derive(Default)]
struct Shared {
    inbox: Mutex<HashMap<u64, Arc<AlignedBytes>>>,
    stamps: Mutex<Vec<Stamp>>,
}

/// The framed result of one request.
pub struct Reply {
    response: AlignedBytes,
    layout: CtLayout,
}

/// The benchmark's own backend. It owns nothing thread-bound, so a
/// driver that runs workers on real threads can take it as it is.
struct ToyService {
    model: Arc<Model>,
    shared: Arc<Shared>,
}

const _: fn() = || {
    fn is_send_static<T: Send + 'static>() {}
    is_send_static::<ToyService>();
};

impl InferenceService for ToyService {
    type Output = Reply;

    fn infer(&mut self, req: &InferenceRequest, budget: &Budget) -> Result<Reply, AttemptError> {
        budget
            .check("toy-service", Progress::done(0))
            .map_err(AttemptError::Cancelled)?;
        let frames = self
            .shared
            .inbox
            .lock()
            .expect("inbox lock is never held across a panic")
            .remove(&req.id)
            .ok_or_else(|| AttemptError::Permanent(format!("request {} has no frames", req.id)))?;
        let served = self
            .model
            .serve(frames.as_bytes(), false)
            .map_err(AttemptError::Permanent)?;
        self.shared
            .stamps
            .lock()
            .expect("stamps lock is never held across a panic")
            .push(Stamp {
                id: req.id,
                start: served.start,
                ingested: served.ingested,
                ran: served.ran,
                done: served.done,
            });
        Ok(Reply {
            response: served.response,
            layout: served.layout,
        })
    }
}

pub struct ServeToy {
    model: Arc<Model>,
    shared: Arc<Shared>,
    driver: BatchDriver<ToyService>,
    workers: usize,
    per_round: u64,
    seed: u64,
    wire_bytes: usize,
    // Samples over every timed round, in seconds.
    submit_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    service_s: Vec<f64>,
    latency_s: Vec<f64>,
    drain_s: Vec<f64>,
}

impl ServeToy {
    pub fn setup(seed: u64, shape: Shape) -> Result<Self, String> {
        let workers = nproc();
        let per_round = match shape {
            Shape::Full => 4 * workers as u64,
            Shape::Tiny => 2,
        };
        let (model, _) =
            Model::build(toy_mnist_like(seed), CkksParams::insecure_toy(7), seed, 0.0)?;
        let model = Arc::new(model);
        let shared = Arc::new(Shared::default());
        let config = ServeConfig::builder()
            .queue_capacity(per_round as usize)
            .tenant_quota(per_round as usize)
            .worker_count(workers)
            .service_time_hint(Duration::from_millis(25))
            .build()
            .map_err(|e| e.to_string())?;
        let factory = {
            let (model, shared) = (model.clone(), shared.clone());
            Box::new(move || {
                Ok::<_, String>(ToyService {
                    model: model.clone(),
                    shared: shared.clone(),
                })
            })
        };
        let driver = BatchDriver::with_factory(config, factory).map_err(|e| e.to_string())?;
        Ok(Self {
            model,
            shared,
            driver,
            workers,
            per_round,
            seed,
            wire_bytes: 0,
            submit_s: Vec::new(),
            queue_wait_s: Vec::new(),
            service_s: Vec::new(),
            latency_s: Vec::new(),
            drain_s: Vec::new(),
        })
    }
}

impl Workload for ServeToy {
    fn warmup(&self) -> u64 {
        2
    }

    /// One round: frame `per_round` requests, submit them all, drain the
    /// queue, then decrypt and check every reply.
    fn op(&mut self, index: u64, tr: &mut Tracer) -> OpReport {
        let timed = index >= self.warmup();
        let ids: Vec<u64> = (0..self.per_round)
            .map(|k| index * self.per_round + k)
            .collect();
        let images: Vec<_> = ids
            .iter()
            .map(|&id| self.model.image(self.seed.wrapping_add(id)))
            .collect();
        let mut report = OpReport {
            attempted: self.per_round,
            ..OpReport::default()
        };
        let mut request_bytes = HashMap::new();
        for (&id, image) in ids.iter().zip(&images) {
            match self
                .model
                .encrypt(image, self.seed ^ id.wrapping_mul(0x9E37_79B9))
            {
                Ok(input) => {
                    let frames = Model::frame_request(&input);
                    request_bytes.insert(id, frames.len());
                    self.shared
                        .inbox
                        .lock()
                        .expect("inbox lock is never held across a panic")
                        .insert(id, Arc::new(frames));
                }
                Err(why) => eprintln!("serve_toy request {id}: FAILED to encrypt: {why}"),
            }
        }

        let round_started = Instant::now();
        let round = tr.enter("core.serve.round", index);
        let mut submitted_at = HashMap::new();
        for (k, &id) in ids.iter().enumerate() {
            let span = tr.enter("core.serve.submit", id);
            let started = Instant::now();
            let request = InferenceRequest::new(id, MODEL_NAME, DEADLINE)
                .with_tenant(TENANTS[k % TENANTS.len()]);
            let admitted = self.driver.submit(request);
            let now = Instant::now();
            tr.exit(span);
            match admitted {
                Ok(()) => {
                    if timed {
                        self.submit_s.push((now - started).as_secs_f64());
                    }
                    submitted_at.insert(id, now);
                }
                Err(why) => eprintln!("serve_toy request {id}: REFUSED: {why}"),
            }
        }
        let drain = tr.enter("core.serve.run_queue", index);
        let drain_started = Instant::now();
        let outcomes = self.driver.run_queue();
        if timed {
            self.drain_s.push(drain_started.elapsed().as_secs_f64());
        }
        tr.exit(drain);
        tr.exit(round);
        report.wall_s = round_started.elapsed().as_secs_f64();

        let stamps = std::mem::take(
            &mut *self
                .shared
                .stamps
                .lock()
                .expect("stamps lock is never held across a panic"),
        );
        let stamps: HashMap<u64, Stamp> = stamps.into_iter().map(|s| (s.id, s)).collect();
        let mut correct = 0;
        for (id, outcome) in outcomes {
            let checked = outcome.map_err(|e| e.to_string()).and_then(|reply| {
                let image = &images[(id - ids[0]) as usize];
                let logits = self
                    .model
                    .decrypt(reply.response.as_bytes(), &reply.layout)?;
                self.model.check(&logits, image)?;
                Ok(reply.response.len())
            });
            match (checked, stamps.get(&id), submitted_at.get(&id)) {
                (Ok(reply_bytes), Some(stamp), Some(&submitted)) => {
                    correct += 1;
                    self.wire_bytes = request_bytes[&id] + reply_bytes;
                    let latency = (stamp.done - submitted).as_secs_f64();
                    report.latencies_s.push(latency);
                    if timed {
                        self.latency_s.push(latency);
                        self.queue_wait_s
                            .push((stamp.start - submitted).as_secs_f64());
                        self.service_s
                            .push((stamp.done - stamp.start).as_secs_f64());
                    }
                    tr.add_child(drain, "core.serve.service", id, stamp.start, stamp.done);
                    tr.add_child(drain, "core.wire.ingest", id, stamp.start, stamp.ingested);
                    tr.add_child(drain, "nn.try_run", id, stamp.ingested, stamp.ran);
                }
                (Ok(_), _, _) => eprintln!("serve_toy request {id}: FAILED: completed unstamped"),
                (Err(why), _, _) => eprintln!("serve_toy request {id}: FAILED: {why}"),
            }
        }
        report.failed = self.per_round - correct;
        report
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ring_degree", self.model.ctx.degree() as f64),
            ("levels", self.model.ctx.max_level() as f64),
            ("workers", self.workers as f64),
            ("tenants", TENANTS.len() as f64),
            ("requests_per_round", self.per_round as f64),
            ("wire_bytes_per_request", self.wire_bytes as f64),
        ]
    }

    fn layer_metrics(&mut self, _tr: &mut Tracer, out: &mut Metrics) {
        let n = self.latency_s.len();
        put(
            out,
            "core.serve.submit_ns",
            median(&self.submit_s) * 1e9,
            "ns",
            self.submit_s.len(),
        );
        put(
            out,
            "core.serve.queue_wait_p50_s",
            median(&self.queue_wait_s),
            "s",
            n,
        );
        put(
            out,
            "core.serve.service_p50_s",
            median(&self.service_s),
            "s",
            n,
        );
        put(
            out,
            "core.serve.request_latency_p95_s",
            quantile(&self.latency_s, 0.95),
            "s",
            n,
        );
        put(
            out,
            "core.serve.round_drain_p50_s",
            median(&self.drain_s),
            "s",
            self.drain_s.len(),
        );
        let busy: f64 = self.service_s.iter().sum();
        let capacity: f64 = self.drain_s.iter().sum::<f64>() * self.workers as f64;
        put(
            out,
            "core.serve.parallel_efficiency",
            busy / capacity,
            "1",
            n,
        );
        let report = self.driver.report();
        put(out, "core.serve.shed", report.shed as f64, "count", 1);
        put(out, "core.serve.retries", report.retries as f64, "count", 1);
        put(out, "core.serve.failed", report.failed as f64, "count", 1);
    }
}
