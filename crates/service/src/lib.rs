//! Codesign-as-a-service: a long-running, admission-controlled,
//! multi-tenant front end over the DSE explorer and the crash-consistent
//! artifact store (PR 9 tentpole).
//!
//! # Shape
//!
//! A [`Service`] owns a **bounded request queue** (an
//! `std::sync::mpsc::sync_channel`) drained by a fixed **worker pool**.
//! [`Service::submit`] is non-blocking admission control: when the queue
//! is full the request is *shed* with a typed [`Rejected::QueueFull`] —
//! the caller is told immediately instead of stacking unbounded latency
//! — and when the service is draining, with [`Rejected::Draining`].
//!
//! Each accepted request runs one DSE exploration with three protective
//! layers, all riding existing machinery:
//!
//! * **Deadline** — the per-request `deadline_ms` (measured from
//!   *submission*, so queue wait counts) becomes a [`RunControl`]
//!   deadline, honored at DSE iteration boundaries; per-candidate
//!   runaway protection stays with [`DseConfig::eval_budget_ms`].
//! * **Cancellation** — the caller can hand in an `Arc<AtomicBool>`
//!   token and flip it at any time; the explorer stops at the next
//!   iteration boundary with [`StopCause::Cancelled`].
//! * **Warm start** — an attached [`ArtifactStore`] serves verified
//!   schedules persisted by earlier processes; transient store I/O is
//!   retried with exponential backoff inside the store itself.
//!
//! [`Service::drain`] is graceful shutdown: the queue closes (new
//! submissions are rejected), every already-admitted request completes,
//! workers join, and a [`ServiceReport`] summarizes the run.
//!
//! # Determinism
//!
//! Exploration results depend only on each request's `(seed, shards)` —
//! the worker count is pure execution width. Service metrics count
//! *events* (submitted/completed/shed), so for a fixed request set the
//! final counter snapshot is identical at any worker count; only
//! latencies vary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsagen_adg::Adg;
use dsagen_dfg::Kernel;
use dsagen_dse::{CacheStats, DseConfig, Explorer, RunControl, StopCause};
use dsagen_store::ArtifactStore;
use dsagen_telemetry::{log, Level, Telemetry};

/// Service tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue depth; a submit finding it full is shed with
    /// [`Rejected::QueueFull`].
    pub queue_depth: usize,
    /// Deadline applied to requests that don't carry their own, in
    /// milliseconds from submission. `None` means unbounded.
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 8,
            default_deadline_ms: None,
        }
    }
}

/// One tenant's codesign request.
#[derive(Debug)]
pub struct CompileRequest {
    /// Tenant label (metrics/log attribution only — no behavior).
    pub tenant: String,
    /// Starting hardware.
    pub adg: Adg,
    /// Kernels to codesign for.
    pub kernels: Vec<Kernel>,
    /// Exploration configuration (its `seed`/`shards` fix the result;
    /// its `eval_budget_ms` bounds individual candidate evaluations).
    pub dse: DseConfig,
    /// Per-request deadline in milliseconds from submission; falls back
    /// to [`ServiceConfig::default_deadline_ms`].
    pub deadline_ms: Option<u64>,
    /// Cooperative cancellation token; set it to `true` to stop the
    /// request at its next DSE iteration boundary.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// Why a submission was refused at the door. Admission control is typed
/// so multi-tenant callers can distinguish "back off and retry"
/// ([`Rejected::QueueFull`]) from "this service is going away"
/// ([`Rejected::Draining`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rejected {
    /// The bounded queue is at capacity; the request was shed.
    QueueFull {
        /// The configured queue depth that was full.
        depth: usize,
    },
    /// The service is draining; no new work is admitted.
    Draining,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { depth } => {
                write!(f, "rejected: queue full (depth {depth}); request shed")
            }
            Rejected::Draining => write!(f, "rejected: service draining"),
        }
    }
}

impl std::error::Error for Rejected {}

/// The completed outcome of one admitted request.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// Echo of the request's tenant label.
    pub tenant: String,
    /// Best objective (perf²/mm²) found.
    pub objective: f64,
    /// Best design's area.
    pub area_mm2: f64,
    /// Aggregate performance of the best design.
    pub perf: f64,
    /// `Some` when the run stopped at a control boundary (deadline or
    /// cancellation) before natural convergence; the outcome is still the
    /// coherent best-so-far.
    pub stopped: Option<StopCause>,
    /// Schedule-cache counters for this request (the `store_hits` field
    /// is the cross-process warm-start figure).
    pub cache: CacheStats,
    /// Milliseconds spent queued before a worker picked the request up.
    pub queued_ms: f64,
    /// Milliseconds from submission to completion.
    pub latency_ms: f64,
}

/// Waiting on a [`Ticket`] failed: the worker processing the request
/// died (panicked) before replying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLost;

impl fmt::Display for WorkerLost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("worker lost before replying")
    }
}

impl std::error::Error for WorkerLost {}

/// Handle to one admitted request's eventual outcome.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<CompileOutcome>,
}

impl Ticket {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// [`WorkerLost`] if the worker died before replying.
    pub fn wait(self) -> Result<CompileOutcome, WorkerLost> {
        self.rx.recv().map_err(|_| WorkerLost)
    }
}

/// Final accounting returned by [`Service::drain`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests completed (including deadline/cancel early stops).
    pub completed: u64,
    /// Submissions shed with [`Rejected::QueueFull`].
    pub shed: u64,
    /// Completions that stopped on [`StopCause::DeadlineExceeded`].
    pub deadline_stopped: u64,
    /// Completions that stopped on [`StopCause::Cancelled`].
    pub cancelled: u64,
}

struct Job {
    req: CompileRequest,
    deadline: Option<Instant>,
    submitted: Instant,
    reply: mpsc::Sender<CompileOutcome>,
}

#[derive(Debug)]
struct Shared {
    telemetry: Telemetry,
    store: Option<ArtifactStore>,
    draining: AtomicBool,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    deadline_stopped: AtomicU64,
    cancelled: AtomicU64,
}

/// The running service: a bounded queue plus its worker pool. Dropping
/// the service drains it (ungracefully discarding the report); prefer
/// [`Service::drain`].
pub struct Service {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    queue_depth: usize,
    default_deadline_ms: Option<u64>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue_depth)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the worker pool. `store`, when present, is attached to
    /// every request's explorer (warm starts + persistence); `telemetry`
    /// is shared by all workers (counter merges commute, so snapshots
    /// are worker-count independent for a fixed request set).
    #[must_use]
    pub fn start(
        cfg: ServiceConfig,
        store: Option<ArtifactStore>,
        telemetry: Telemetry,
    ) -> Service {
        let workers = cfg.workers.max(1);
        let queue_depth = cfg.queue_depth.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            telemetry,
            store,
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_stopped: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dsagen-svc-{w}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn service worker")
            })
            .collect();
        Service {
            tx: Some(tx),
            workers: handles,
            shared,
            queue_depth,
            default_deadline_ms: cfg.default_deadline_ms,
        }
    }

    /// Starts a service with `cfg.default_deadline_ms` applied and no
    /// store, observing `telemetry` — the minimal useful configuration.
    #[must_use]
    pub fn start_basic(cfg: ServiceConfig) -> Service {
        Service::start(cfg, None, Telemetry::disabled())
    }

    /// Non-blocking admission: enqueues the request or sheds it with a
    /// typed rejection. Shedding is an *observable event* — counted under
    /// `service.shed`, recorded to the flight ring, and (when
    /// `DSAGEN_FLIGHT_DIR` is set) dumped, so shed storms leave evidence.
    ///
    /// # Errors
    ///
    /// [`Rejected::QueueFull`] when the bounded queue is at capacity,
    /// [`Rejected::Draining`] once [`Service::drain`] has begun.
    pub fn submit(&self, req: CompileRequest) -> Result<Ticket, Rejected> {
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(Rejected::Draining);
        }
        let Some(tx) = &self.tx else {
            return Err(Rejected::Draining);
        };
        let deadline = req
            .deadline_ms
            .or(self.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let (reply_tx, reply_rx) = mpsc::channel();
        let tenant = req.tenant.clone();
        let job = Job {
            req,
            deadline,
            submitted: Instant::now(),
            reply: reply_tx,
        };
        match tx.try_send(job) {
            Ok(()) => {
                self.shared.admitted.fetch_add(1, Ordering::Relaxed);
                self.shared.telemetry.metrics().add("service.admitted", 1);
                Ok(Ticket { rx: reply_rx })
            }
            Err(TrySendError::Full(_)) => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                self.shared.telemetry.metrics().add("service.shed", 1);
                log(
                    Level::Warn,
                    format!(
                        "service: shed request from tenant '{tenant}' (queue depth {} full)",
                        self.queue_depth
                    ),
                );
                self.shared.telemetry.recorder().record("service", || {
                    (
                        "shed".to_string(),
                        format!("tenant={tenant} depth={}", self.queue_depth),
                    )
                });
                self.shared
                    .telemetry
                    .recorder()
                    .dump_on_error("service-shed");
                Err(Rejected::QueueFull {
                    depth: self.queue_depth,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(Rejected::Draining),
        }
    }

    /// Graceful drain: closes the queue (subsequent submits get
    /// [`Rejected::Draining`]), lets every admitted request finish,
    /// joins the workers, and returns the final accounting.
    #[must_use]
    pub fn drain(mut self) -> ServiceReport {
        self.shared.draining.store(true, Ordering::Release);
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            if handle.join().is_err() {
                log(Level::Error, "service: worker panicked during drain");
            }
        }
        let report = self.report();
        self.shared.telemetry.metrics().add("service.drained", 1);
        report
    }

    /// Current accounting snapshot (also available live, before drain).
    #[must_use]
    pub(crate) fn report(&self) -> ServiceReport {
        let s = &self.shared;
        ServiceReport {
            admitted: s.admitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            deadline_stopped: s.deadline_stopped.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, shared: &Arc<Shared>) {
    loop {
        // Hold the lock only for the dequeue, never for the work.
        let job = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok(job) = job else {
            return; // queue closed and empty: drain complete
        };
        process(job, shared);
    }
}

fn process(job: Job, shared: &Arc<Shared>) {
    let Job {
        req,
        deadline,
        submitted,
        reply,
    } = job;
    let queued_ms = submitted.elapsed().as_secs_f64() * 1e3;
    let control = RunControl {
        cancel: req.cancel.clone(),
        deadline,
    };

    // A request whose deadline passed while queued (or that was cancelled
    // before dequeue) is answered immediately with an empty best-effort
    // outcome instead of burning a worker on doomed exploration.
    let outcome = if let Some(cause) = control.should_stop() {
        CompileOutcome {
            tenant: req.tenant.clone(),
            objective: 0.0,
            area_mm2: 0.0,
            perf: 0.0,
            stopped: Some(cause),
            cache: CacheStats::default(),
            queued_ms,
            latency_ms: submitted.elapsed().as_secs_f64() * 1e3,
        }
    } else {
        let mut explorer = Explorer::new(req.adg, &req.kernels, req.dse)
            .with_telemetry(shared.telemetry.clone())
            .with_control(control);
        if let Some(store) = &shared.store {
            explorer = explorer.with_store(store.clone());
        }
        let result = explorer.run();
        CompileOutcome {
            tenant: req.tenant.clone(),
            objective: result.best.objective,
            area_mm2: result.best.cost.area_mm2,
            perf: result.best.perf,
            stopped: result.stopped,
            cache: explorer.cache_stats(),
            queued_ms,
            latency_ms: submitted.elapsed().as_secs_f64() * 1e3,
        }
    };

    shared.completed.fetch_add(1, Ordering::Relaxed);
    let m = shared.telemetry.metrics();
    m.add("service.completed", 1);
    m.observe("service.latency_ms", outcome.latency_ms.max(0.0) as u64);
    match outcome.stopped {
        Some(StopCause::DeadlineExceeded) => {
            shared.deadline_stopped.fetch_add(1, Ordering::Relaxed);
            m.add("service.stopped.deadline_exceeded", 1);
        }
        Some(StopCause::Cancelled) => {
            shared.cancelled.fetch_add(1, Ordering::Relaxed);
            m.add("service.stopped.cancelled", 1);
        }
        _ => {}
    }
    // The requester may have walked away (dropped the ticket); that is
    // not a service error.
    let _ = reply.send(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsagen_adg::presets;
    use dsagen_workloads::{suite_kernels, Suite};

    fn tiny_request(tenant: &str, seed: u64) -> CompileRequest {
        let kernels: Vec<Kernel> = suite_kernels(Suite::Dsp)
            .into_iter()
            .filter(|k| k.name == "centro-fir")
            .collect();
        assert!(
            !kernels.is_empty(),
            "workload suite must contain centro-fir"
        );
        CompileRequest {
            tenant: tenant.to_string(),
            adg: presets::dse_initial(),
            kernels,
            dse: DseConfig {
                seed,
                max_iters: 2,
                patience: 2,
                sched_iters: 30,
                max_unroll: 1,
                shards: 1,
                threads: 1,
                ..DseConfig::default()
            },
            deadline_ms: None,
            cancel: None,
        }
    }

    #[test]
    fn submit_run_drain_completes() {
        let svc = Service::start_basic(ServiceConfig {
            workers: 2,
            queue_depth: 4,
            default_deadline_ms: None,
        });
        let t1 = svc.submit(tiny_request("a", 1)).expect("admitted");
        let t2 = svc.submit(tiny_request("b", 2)).expect("admitted");
        let o1 = t1.wait().expect("worker replies");
        let o2 = t2.wait().expect("worker replies");
        assert_eq!(o1.tenant, "a");
        assert_eq!(o2.tenant, "b");
        assert!(o1.stopped.is_none());
        let report = svc.drain();
        assert_eq!(report.admitted, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(report.shed, 0);
    }

    #[test]
    fn draining_service_rejects_typed() {
        let svc = Service::start_basic(ServiceConfig::default());
        let shared = Arc::clone(&svc.shared);
        shared.draining.store(true, Ordering::Release);
        match svc.submit(tiny_request("late", 3)) {
            Err(Rejected::Draining) => {}
            other => panic!("expected Draining, got {other:?}"),
        }
    }
}
