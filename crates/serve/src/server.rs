//! The simulation daemon.
//!
//! One listener thread accepts TCP connections; each connection gets a
//! reader thread (parsing NDJSON requests) and a writer thread (draining
//! an mpsc channel of event lines to the socket, so workers can stream
//! into any number of connections without contending on I/O). Jobs flow
//! through a [`BoundedQueue`] into a persistent worker pool sized like
//! the sweep harnesses' pool (`WIB_THREADS` /
//! [`wib_bench::parallel::worker_threads`]); every worker owns its
//! `Processor` per job, exactly as in `parallel_map_named`, so results
//! are bit-identical to in-process runs. A job whose result is already
//! cached skips all of that: the reader thread answers it inline, with
//! the same events and no journal record.
//!
//! # Failure containment
//!
//! The daemon assumes any individual job, connection, or disk write can
//! fail and none of them may take the service down:
//!
//! * every simulation runs under `catch_unwind`; a panic becomes a
//!   terminal `error` event carrying the job's spec digest, and the
//!   worker moves on to the next job. A panic *outside* that shield
//!   (bookkeeping bugs) recycles the whole worker thread, up to
//!   [`MAX_WORKER_RESTARTS`] times.
//! * jobs may carry a `deadline_ms`; the engine polls a cooperative
//!   [`CancelToken`] once per stats epoch, so an expired or cancelled
//!   *running* job terminates within one epoch.
//! * a full queue **sheds** the submission (terminal `shed` event with a
//!   jittered, escalating `retry_after_ms`) instead of blocking the
//!   connection thread.
//! * all of the above injection points are drivable deterministically
//!   via `WIB_FAULTS` (see [`crate::fault`]).
//!
//! Shutdown (`{"op":"shutdown"}`) is a drain: the queue closes, workers
//! finish what is queued (or skip it, in `"now"` mode — which also trips
//! the cancel token of every running job), the accept loop is woken and
//! exits, every connection thread is joined, and only then does the
//! requesting client receive its `shutdown` event — the daemon leaks no
//! threads.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use wib_bench::parallel::worker_threads;
use wib_bench::Runner;
use wib_core::{
    CancelToken, Counter, Gauge, HistogramMetric, Json, MachineConfig, Processor, Registry,
    RunLimit, RunResult, StageProfile, STAGE_COUNT, STAGE_NAMES,
};
use wib_workloads::{eval_suite, test_suite, Workload};

use crate::cache::ResultCache;
use crate::fault::{FaultPlan, WriteFault};
use crate::journal::{Journal, JournalEntry};
use crate::protocol::{self, JobRequest, Request, MAX_INSTS};
use crate::queue::{BoundedQueue, TryPushError};

/// How often a blocked connection reader wakes to check for shutdown.
const READ_TICK: Duration = Duration::from_millis(100);

/// Interval events streamed per job before truncation (the full series
/// is always in the result document; streaming is a progress feed).
const MAX_STREAMED_INTERVALS: usize = 64;

/// Per-connection socket write budget: a peer that accepts no bytes for
/// this long is treated as gone and its writer thread exits.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How many times a worker thread is restarted after a panic that
/// escaped per-job isolation before the daemon gives up on that slot.
/// High enough to never matter in practice, low enough to stop a
/// pathological panic loop from spinning forever.
const MAX_WORKER_RESTARTS: u64 = 1000;

/// Shed-backoff shape: base delay, doubling per consecutive shed, cap,
/// plus jitter in `[0, SHED_JITTER_MS]`.
const SHED_BASE_MS: u64 = 25;
const SHED_CAP_MS: u64 = 2000;
const SHED_JITTER_MS: u64 = 25;

/// Total wall-clock budget for the whole peer-probing pass on one
/// local miss. Small on purpose: the probes race a simulation worth
/// seconds-to-minutes, but dead peers must not stall the miss path.
const PEER_BUDGET: Duration = Duration::from_millis(1500);

/// Budget for any *single* peer probe (connect plus reply). Strictly
/// smaller than [`PEER_BUDGET`] so one hung peer cannot consume the
/// whole pass before the remaining neighbors are tried.
const PEER_PROBE_BUDGET: Duration = Duration::from_millis(500);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker pool size (0 = the sweep pool default, `WIB_THREADS`).
    pub workers: usize,
    /// Bounded job-queue capacity (the overload-shedding threshold).
    pub queue_capacity: usize,
    /// Serve the miniature test suite instead of the eval suite.
    pub tiny: bool,
    /// Root for result-cache persistence (`<dir>/cache/*.json`).
    pub results_dir: Option<PathBuf>,
    /// Default measured instructions when a job names none.
    pub default_insts: u64,
    /// Default warm-up instructions when a job names none.
    pub default_warmup: u64,
    /// Suppress stderr logging.
    pub quiet: bool,
    /// File to write the bound address into once listening (for
    /// scripts driving an ephemeral port).
    pub port_file: Option<PathBuf>,
    /// Fault-injection spec (see [`crate::fault`]); falls back to the
    /// `WIB_FAULTS` environment variable when `None`.
    pub faults: Option<String>,
    /// Hung-job watchdog: a running job whose engine heartbeat freezes
    /// for this many milliseconds is cancelled and reported as a
    /// structured `hung` error (the client's idempotent retry then
    /// resubmits it). `None` disables the watchdog.
    pub watchdog_ms: Option<u64>,
}

impl Default for ServerOptions {
    /// Loopback ephemeral port, pool-sized workers, protocol defaults
    /// from the environment (`WIB_INSTS`/`WIB_WARMUP`/`WIB_QUICK`),
    /// persistence from `WIB_RESULTS_DIR`, faults from `WIB_FAULTS`.
    fn default() -> ServerOptions {
        let runner = Runner::from_env();
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 1024,
            tiny: false,
            results_dir: std::env::var_os("WIB_RESULTS_DIR").map(PathBuf::from),
            default_insts: runner.insts,
            default_warmup: runner.warmup,
            quiet: false,
            port_file: None,
            faults: None,
            watchdog_ms: std::env::var("WIB_WATCHDOG_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&ms| ms > 0),
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "error",
            JobState::Cancelled => "cancelled",
        }
    }
}

struct Job {
    workload: String,
    key: String,
    cfg: MachineConfig,
    insts: u64,
    warmup: u64,
    /// Tracing span id minted at submit; every event of this job's
    /// `span` record carries it.
    span: String,
    /// Queue-entry timestamp: the zero point of the span's stage marks.
    queued_at: Instant,
    /// Wall-clock budget, armed when a worker picks the job up.
    deadline_ms: Option<u64>,
    state: JobState,
    cancelled: bool,
    /// Set by the watchdog just before it trips the token: the worker
    /// reads it to tell a hung cancellation apart from a client one.
    hung: bool,
    /// Engine heartbeat ticks last observed by the watchdog, and when
    /// they last changed. Initialized at pickup, under the jobs lock.
    progress_seen: u64,
    progress_at: Instant,
    /// Present while the job is running: tripping it stops the engine at
    /// the next epoch boundary. Created under the jobs lock at pickup,
    /// so a cancel request can never race past it.
    token: Option<CancelToken>,
    /// Event channel back to the submitting connection; dropped at the
    /// terminal event so writer threads can exit.
    sender: Option<Sender<String>>,
}

/// RAII decrement of the busy-worker gauge; `Drop` keeps it accurate
/// even if job bookkeeping panics.
struct BusyGuard<'a>(&'a AtomicUsize);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How one simulated job attempt ended (internal to the worker; cache
/// hits finish through [`publish_hit`] instead).
enum Outcome {
    Done(Json),
    Cancelled,
    /// The watchdog cancelled a wedged run. A distinct arm (not
    /// `Failed`) because the terminal event carries `kind: "hung"`,
    /// which clients treat as retryable.
    Hung,
    Failed(String),
}

/// Registry-backed telemetry: scrape-time gauges, the job latency
/// histograms, and the engine self-profiling rollup. The job outcome
/// counters live directly on [`Shared`] as [`Counter`] handles — the
/// same cells feed `stats_json` and the exposition.
struct Telemetry {
    registry: Registry,
    started: Instant,
    queue_depth: Gauge,
    queue_capacity: Gauge,
    busy_workers: Gauge,
    worker_count: Gauge,
    watcher_count: Gauge,
    uptime_ms: Gauge,
    /// Microseconds from queue entry to worker pickup.
    queue_wait_us: HistogramMetric,
    /// Microseconds simulating (cache misses only).
    run_us: HistogramMetric,
    /// Microseconds spent in the cache lookup on a hit.
    cache_hit_us: HistogramMetric,
    /// Engine stage-profile rollup across every simulated job.
    profiled_cycles: Counter,
    stage_ns: [Counter; STAGE_COUNT],
}

impl Telemetry {
    fn new(registry: Registry) -> Telemetry {
        Telemetry {
            started: Instant::now(),
            queue_depth: registry.gauge(
                "wib_serve_queue_depth",
                "Jobs waiting in the bounded queue.",
            ),
            queue_capacity: registry.gauge(
                "wib_serve_queue_capacity",
                "Bounded queue capacity (the shed threshold).",
            ),
            busy_workers: registry.gauge(
                "wib_serve_busy_workers",
                "Workers currently executing a job.",
            ),
            worker_count: registry.gauge("wib_serve_workers", "Worker pool size."),
            watcher_count: registry.gauge(
                "wib_serve_watchers",
                "Connections subscribed to all job events.",
            ),
            uptime_ms: registry.gauge(
                "wib_serve_uptime_ms",
                "Milliseconds since the daemon started.",
            ),
            queue_wait_us: registry.histogram(
                "wib_serve_queue_wait_us",
                "Microseconds from queue entry to worker pickup.",
            ),
            run_us: registry.histogram(
                "wib_serve_run_us",
                "Microseconds spent simulating (cache misses only).",
            ),
            cache_hit_us: registry.histogram(
                "wib_serve_cache_hit_us",
                "Microseconds spent in the result-cache lookup on a hit.",
            ),
            profiled_cycles: registry.counter(
                "wib_engine_profiled_cycles_total",
                "Engine cycles stage-timed by the sampling profiler.",
            ),
            stage_ns: std::array::from_fn(|i| {
                registry.counter_with(
                    "wib_engine_stage_ns_total",
                    "Sampled engine wall-clock nanoseconds by pipeline stage.",
                    &[("stage", STAGE_NAMES[i])],
                )
            }),
            registry,
        }
    }

    /// The per-(workload, outcome) end-to-end latency histogram,
    /// registered on first use (terminal events only — never hot).
    fn job_us(&self, workload: &str, outcome: &'static str) -> HistogramMetric {
        self.registry.histogram_with(
            "wib_serve_job_us",
            "End-to-end job latency in microseconds (queue entry to terminal event).",
            &[("workload", workload), ("outcome", outcome)],
        )
    }

    /// Fold one run's engine stage profile into the daemon-wide rollup.
    fn record_engine_profile(&self, p: &StageProfile) {
        if p.sampled_cycles == 0 {
            return;
        }
        self.profiled_cycles.add(p.sampled_cycles);
        for (counter, &ns) in self.stage_ns.iter().zip(p.stage_ns.iter()) {
            counter.add(ns);
        }
    }
}

/// Microseconds elapsed since `t`. Span stage marks all come from this
/// one clock, so adjacent-mark differences telescope exactly to the
/// final mark.
fn us_since(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

struct Shared {
    opts: ServerOptions,
    catalog: HashMap<String, Workload>,
    scale: &'static str,
    cache: ResultCache,
    faults: Arc<FaultPlan>,
    /// Write-ahead job journal; present when `results_dir` is set.
    journal: Option<Journal>,
    queue: BoundedQueue<u64>,
    jobs: Mutex<HashMap<u64, Job>>,
    next_job: AtomicU64,
    busy: AtomicUsize,
    workers: usize,
    telemetry: Telemetry,
    submitted: Counter,
    completed: Counter,
    errors: Counter,
    cancelled: Counter,
    panicked: Counter,
    deadline_expired: Counter,
    shed: Counter,
    /// Consecutive sheds with no accepted enqueue in between; drives the
    /// escalating `retry_after_ms` hint (backoff state, not a metric).
    shed_streak: AtomicU64,
    worker_restarts: Counter,
    /// Running jobs cancelled by the hung-job watchdog.
    watchdog_hangs: Counter,
    /// Tells the watchdog thread the worker pool has drained.
    watchdog_stop: AtomicBool,
    /// Cache-peering neighbor list (ring successors, installed by the
    /// coordinator's `peers` op). Probed in order on a local miss.
    peers: Mutex<Vec<String>>,
    /// Peer-cache probes sent (one per peer tried on a miss).
    peer_probes: Counter,
    /// Local misses served from a peer's cache instead of simulating.
    peer_hits: Counter,
    watchers: Mutex<HashMap<u64, Sender<String>>>,
    next_watcher: AtomicU64,
    shutting_down: AtomicBool,
    finished: Mutex<bool>,
    finished_cv: Condvar,
    bound: SocketAddr,
}

impl Shared {
    fn log(&self, msg: &str) {
        if !self.opts.quiet {
            eprintln!("wib-serve: {msg}");
        }
    }

    /// Jobs-map lock, tolerant of poisoning: a panicking worker must
    /// not wedge every other worker and connection forever. Panics in
    /// this file never happen while the map is mid-mutation (single
    /// field writes), so the recovered state is consistent.
    fn lock_jobs(&self) -> MutexGuard<'_, HashMap<u64, Job>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_watchers(&self) -> MutexGuard<'_, HashMap<u64, Sender<String>>> {
        self.watchers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_peers(&self) -> MutexGuard<'_, Vec<String>> {
        self.peers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Send `ev` to the job's own connection (if still attached) and to
    /// every watcher. A watcher whose connection died (its writer hit a
    /// broken pipe and hung up the channel) fails the send and is
    /// unregistered here, its buffered events dropped with it.
    fn publish(&self, own: Option<&Sender<String>>, ev: &Json) {
        let line = ev.to_string();
        if let Some(tx) = own {
            let _ = tx.send(line.clone());
        }
        let mut watchers = self.lock_watchers();
        watchers.retain(|_, w| w.send(line.clone()).is_ok());
    }

    fn is_finished(&self) -> bool {
        *self.finished.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn mark_finished(&self) {
        *self.finished.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.finished_cv.notify_all();
    }

    fn wait_finished(&self) {
        let mut done = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = self
                .finished_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The introspection snapshot (`{"op":"stats"}`).
    fn stats_json(&self) -> Json {
        Json::obj()
            .field("event", "stats")
            .field("schema", "wib-serve/stats-v1")
            .field("addr", self.bound.to_string())
            .field("version", env!("CARGO_PKG_VERSION"))
            .field(
                "uptime_ms",
                self.telemetry.started.elapsed().as_millis() as u64,
            )
            .field("scale", self.scale)
            .field("workers", self.workers)
            .field("busy_workers", self.busy.load(Ordering::Relaxed))
            .field("queue_depth", self.queue.len())
            .field("queue_capacity", self.opts.queue_capacity)
            .field("draining", self.shutting_down.load(Ordering::Relaxed))
            .field("submitted", self.submitted.get())
            .field("completed", self.completed.get())
            .field("errors", self.errors.get())
            .field("cancelled", self.cancelled.get())
            .field("panicked", self.panicked.get())
            .field("deadline_expired", self.deadline_expired.get())
            .field("shed", self.shed.get())
            .field("worker_restarts", self.worker_restarts.get())
            .field("watchdog_hangs", self.watchdog_hangs.get())
            .field(
                "journal_live",
                self.journal.as_ref().map_or(0, Journal::live),
            )
            .field(
                "journal_replayed",
                self.journal.as_ref().map_or(0, Journal::replayed),
            )
            .field("watchers", self.lock_watchers().len())
            .field("peers", self.lock_peers().len())
            .field("peer_probes", self.peer_probes.get())
            .field("peer_hits", self.peer_hits.get())
            .field("cache", self.cache.stats().to_json())
    }

    /// The Prometheus text exposition (`{"op":"metrics"}`): refresh the
    /// scrape-time gauges, then render the registry.
    fn metrics_text(&self) -> String {
        let t = &self.telemetry;
        t.queue_depth.set(self.queue.len() as u64);
        t.queue_capacity.set(self.opts.queue_capacity as u64);
        t.busy_workers.set(self.busy.load(Ordering::Relaxed) as u64);
        t.worker_count.set(self.workers as u64);
        t.watcher_count.set(self.lock_watchers().len() as u64);
        t.uptime_ms.set(t.started.elapsed().as_millis() as u64);
        t.registry.render()
    }

    /// The `retry_after_ms` hint for the `n`-th consecutive shed:
    /// exponential from [`SHED_BASE_MS`], capped at [`SHED_CAP_MS`],
    /// plus deterministic jitter so a herd of shed clients does not
    /// retry in lockstep.
    fn retry_after_ms(&self, streak: u64) -> u64 {
        let base = (SHED_BASE_MS << streak.saturating_sub(1).min(6)).min(SHED_CAP_MS);
        base + self.faults.jitter_ms(streak, SHED_JITTER_MS)
    }

    /// Journal a job's terminal outcome (no-op without a journal).
    fn journal_finished(&self, id: u64, outcome: &str) {
        if let Some(j) = &self.journal {
            j.finished(id, outcome);
        }
    }

    /// Flip into shutdown: in non-drain mode flag every queued job
    /// cancelled and trip every running job's token first, then close
    /// the queue and wake the accept loop.
    fn begin_shutdown(&self, drain: bool) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return; // second shutdown request: idempotent
        }
        self.log(if drain {
            "shutdown requested (drain)"
        } else {
            "shutdown requested (now)"
        });
        if !drain {
            let mut jobs = self.lock_jobs();
            for job in jobs.values_mut() {
                match job.state {
                    JobState::Queued => job.cancelled = true,
                    JobState::Running => {
                        if let Some(t) = &job.token {
                            t.cancel();
                        }
                    }
                    _ => {}
                }
            }
        }
        self.queue.close();
        // Unblock the accept loop so it can observe the flag.
        let _ = TcpStream::connect(self.bound);
    }
}

/// A running daemon spawned with [`spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's metrics registry (shared handles — a coordinator can
    /// merge it into a fleet-wide registry).
    pub fn registry(&self) -> Registry {
        self.shared.telemetry.registry.clone()
    }

    /// Request shutdown locally (equivalent to the `shutdown` op).
    pub fn shutdown(&self, drain: bool) {
        self.shared.begin_shutdown(drain);
    }

    /// Block until the daemon has fully stopped (all threads joined).
    pub fn join(self) {
        self.thread.join().expect("server thread panicked");
    }
}

/// Build the deterministic result document for one completed run.
///
/// Everything in here is a pure function of the job identity — no wall
/// clock, no hostname — which is what makes daemon results byte-
/// comparable with local runs and cacheable by content address.
pub fn result_doc(
    workload: &Workload,
    cfg: &MachineConfig,
    insts: u64,
    warmup: u64,
    scale: &str,
    r: &RunResult,
) -> Json {
    Json::obj()
        .field("schema", "wib-serve/result-v1")
        .field("workload", workload.name())
        .field("suite", workload.suite().to_string())
        .field("scale", scale)
        .field("spec", cfg.to_spec())
        .field(
            "digest",
            ResultCache::key(workload.name(), cfg, insts, warmup, scale),
        )
        .field("insts", insts)
        .field("warmup", warmup)
        .field("halted", r.halted)
        .field("ipc", r.ipc())
        .field("stats", r.stats.to_json())
}

/// Run one job in-process and return its result document — the exact
/// computation a daemon worker performs on a cache miss. The `submit
/// --local` client path uses this for byte-identical comparisons.
pub fn compute_result(
    workload: &Workload,
    cfg: &MachineConfig,
    insts: u64,
    warmup: u64,
    scale: &str,
) -> Json {
    let runner = Runner { warmup, insts };
    let r = runner.run(cfg, workload);
    result_doc(workload, cfg, insts, warmup, scale, &r)
}

/// Validate one submitted job against a workload catalog and resolve its
/// protocol parameters. Returns `(workload name, config, insts, warmup)`.
///
/// # Errors
/// A reason string suitable for a `rejected` event.
pub fn resolve_job(
    catalog: &HashMap<String, Workload>,
    job: &JobRequest,
    batch_insts: Option<u64>,
    batch_warmup: Option<u64>,
    default_insts: u64,
    default_warmup: u64,
) -> Result<(String, MachineConfig, u64, u64), String> {
    if !catalog.contains_key(&job.workload) {
        return Err(format!(
            "unknown workload {:?} (see `wib-sim workloads`)",
            job.workload
        ));
    }
    let cfg = protocol::parse_machine_spec(&job.spec)?;
    let insts = job.insts.or(batch_insts).unwrap_or(default_insts);
    let warmup = job.warmup.or(batch_warmup).unwrap_or(default_warmup);
    if insts == 0 {
        return Err("insts must be at least 1".to_string());
    }
    if insts > MAX_INSTS || warmup > MAX_INSTS {
        return Err(format!("insts/warmup capped at {MAX_INSTS}"));
    }
    Ok((job.workload.clone(), cfg, insts, warmup))
}

/// The workload catalog a daemon serves (name -> built program).
pub fn build_catalog(tiny: bool) -> HashMap<String, Workload> {
    let suite = if tiny { test_suite() } else { eval_suite() };
    suite
        .into_iter()
        .map(|w| (w.name().to_string(), w))
        .collect()
}

/// Bind and start a daemon in background threads.
///
/// # Errors
/// Socket binding / port-file errors, or a malformed fault spec
/// (`InvalidInput` naming the bad clause).
pub fn spawn(opts: ServerOptions) -> std::io::Result<ServerHandle> {
    let fault_spec = opts
        .faults
        .clone()
        .or_else(|| std::env::var("WIB_FAULTS").ok());
    let faults = match &fault_spec {
        Some(spec) => Arc::new(
            FaultPlan::parse(spec)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?,
        ),
        None => Arc::new(FaultPlan::none()),
    };
    let listener = TcpListener::bind(&opts.addr)?;
    let bound = listener.local_addr()?;
    if let Some(path) = &opts.port_file {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, format!("{bound}\n"))?;
    }
    let workers = if opts.workers == 0 {
        worker_threads()
    } else {
        opts.workers
    };
    let registry = Registry::new();
    // Open the journal before anything can accept work: incomplete jobs
    // from a crashed predecessor are re-queued below, ahead of any new
    // submission.
    let (journal, replayed) = match &opts.results_dir {
        Some(dir) => {
            let (j, replayed) = Journal::open(dir, &registry)?;
            (Some(j), replayed)
        }
        None => (None, Vec::new()),
    };
    let shared = Arc::new(Shared {
        catalog: build_catalog(opts.tiny),
        scale: if opts.tiny { "tiny" } else { "eval" },
        cache: ResultCache::with_metrics(opts.results_dir.clone(), Arc::clone(&faults), &registry),
        faults,
        journal,
        queue: BoundedQueue::new(opts.queue_capacity),
        jobs: Mutex::new(HashMap::new()),
        next_job: AtomicU64::new(1),
        busy: AtomicUsize::new(0),
        workers,
        submitted: registry.counter(
            "wib_serve_jobs_submitted_total",
            "Jobs accepted: queued, or answered inline from the cache.",
        ),
        completed: registry.counter(
            "wib_serve_jobs_completed_total",
            "Jobs finished successfully (including cache hits).",
        ),
        errors: registry.counter(
            "wib_serve_jobs_failed_total",
            "Jobs that ended in a terminal error.",
        ),
        cancelled: registry.counter(
            "wib_serve_jobs_cancelled_total",
            "Jobs cancelled while queued or running.",
        ),
        panicked: registry.counter(
            "wib_serve_job_panics_total",
            "Simulations that panicked inside per-job isolation.",
        ),
        deadline_expired: registry.counter(
            "wib_serve_deadline_expirations_total",
            "Jobs whose wall-clock deadline expired mid-run.",
        ),
        shed: registry.counter(
            "wib_serve_jobs_shed_total",
            "Submissions refused because the queue was full.",
        ),
        shed_streak: AtomicU64::new(0),
        worker_restarts: registry.counter(
            "wib_serve_worker_restarts_total",
            "Worker threads recycled after an escaped panic.",
        ),
        watchdog_hangs: registry.counter(
            "wib_serve_watchdog_hangs_total",
            "Running jobs cancelled by the hung-job watchdog.",
        ),
        watchdog_stop: AtomicBool::new(false),
        peers: Mutex::new(Vec::new()),
        peer_probes: registry.counter(
            "wib_serve_peer_probes_total",
            "Peer-cache probes sent on local misses.",
        ),
        peer_hits: registry.counter(
            "wib_serve_peer_hits_total",
            "Local cache misses served from a peer's cache.",
        ),
        telemetry: Telemetry::new(registry),
        watchers: Mutex::new(HashMap::new()),
        next_watcher: AtomicU64::new(1),
        shutting_down: AtomicBool::new(false),
        finished: Mutex::new(false),
        finished_cv: Condvar::new(),
        bound,
        opts,
    });
    shared.log(&format!(
        "listening on {bound} ({} workers, {} catalog programs, {} suite)",
        workers,
        shared.catalog.len(),
        shared.scale
    ));
    if shared.faults.is_active() {
        shared.log(&format!(
            "fault injection ARMED: {}",
            fault_spec.as_deref().unwrap_or("")
        ));
    }
    if !replayed.is_empty() {
        requeue_replayed(&shared, replayed);
    }
    let run_shared = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("wib-serve-accept".to_string())
        .spawn(move || run_loop(run_shared, listener))?;
    Ok(ServerHandle {
        addr: bound,
        thread,
        shared,
    })
}

/// Bind and run a daemon on the calling thread (the CLI `serve` path).
/// Prints the listening address to stdout so callers on ephemeral ports
/// can find it. Returns after a client-requested shutdown completes.
///
/// # Errors
/// Socket binding / port-file errors.
pub fn run(opts: ServerOptions) -> std::io::Result<()> {
    let handle = spawn(opts)?;
    println!("wib-serve listening on {}", handle.addr());
    // Line-buffered stdout under a pipe would hold this back forever.
    std::io::stdout().flush()?;
    handle.join();
    Ok(())
}

fn run_loop(shared: Arc<Shared>, listener: TcpListener) {
    let watchdog_handle = shared.opts.watchdog_ms.map(|ms| {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("wib-serve-watchdog".to_string())
            .spawn(move || watchdog_loop(&shared, ms))
            .expect("spawn watchdog")
    });
    let worker_handles: Vec<_> = (0..shared.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("wib-serve-worker-{i}"))
                .spawn(move || {
                    // Recycle loop: per-job panics are absorbed inside
                    // `worker_loop`; anything that still escapes (a
                    // bookkeeping bug) restarts the slot instead of
                    // silently shrinking the pool.
                    loop {
                        if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))).is_ok() {
                            break; // queue drained: normal exit
                        }
                        let n = shared.worker_restarts.inc_and_get();
                        shared.log(&format!(
                            "worker {i} panicked outside job isolation; recycling (restart {n})"
                        ));
                        if n >= MAX_WORKER_RESTARTS {
                            shared.log(&format!("worker {i} exceeded restart budget; retiring"));
                            break;
                        }
                    }
                })
                .expect("spawn worker")
        })
        .collect();
    let mut conn_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                // An exited thread keeps its stack until it is joined:
                // reap the finished connections before adding one.
                for h in conn_handles.extract_if(.., |h| h.is_finished()) {
                    if h.join().is_err() {
                        shared.log("a connection thread panicked");
                    }
                }
                let shared = Arc::clone(&shared);
                let h = std::thread::Builder::new()
                    .name("wib-serve-conn".to_string())
                    .spawn(move || handle_conn(shared, stream))
                    .expect("spawn connection thread");
                conn_handles.push(h);
            }
            Err(e) => {
                shared.log(&format!("accept error: {e}"));
            }
        }
    }
    drop(listener);
    for h in worker_handles {
        h.join().expect("worker thread panicked");
    }
    shared.watchdog_stop.store(true, Ordering::Relaxed);
    if let Some(h) = watchdog_handle {
        h.join().expect("watchdog thread panicked");
    }
    // Tell watchers the daemon is gone, then drop their channels so
    // connection writer threads can exit.
    let farewell = Json::obj()
        .field("event", "shutdown")
        .field("completed", shared.completed.get())
        .field("errors", shared.errors.get())
        .field("cancelled", shared.cancelled.get());
    shared.publish(None, &farewell);
    shared.lock_watchers().clear();
    // Unblock any connection reader (including the one that requested
    // the shutdown, waiting in `wait_finished`).
    shared.mark_finished();
    for h in conn_handles {
        h.join().expect("connection thread panicked");
    }
    shared.log("stopped");
}

fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        run_one_job(shared, id);
    }
}

/// The hung-job watchdog: periodically compare each running job's
/// engine heartbeat ([`CancelToken::progress`]) against the last scan.
/// A job whose ticks have not moved for `watchdog_ms` is wedged —
/// inside one epoch, a stuck syscall, an injected `hang` fault — and
/// gets its token tripped. The worker then reports a structured `hung`
/// error the client treats as retryable, and picks up the next job.
fn watchdog_loop(shared: &Shared, watchdog_ms: u64) {
    let tick = Duration::from_millis((watchdog_ms / 4).clamp(10, 500));
    let budget = Duration::from_millis(watchdog_ms);
    while !shared.watchdog_stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        let now = Instant::now();
        let mut tripped = Vec::new();
        {
            let mut jobs = shared.lock_jobs();
            for (&id, job) in jobs.iter_mut() {
                if job.state != JobState::Running || job.hung {
                    continue;
                }
                let Some(token) = &job.token else { continue };
                let ticks = token.progress();
                if ticks != job.progress_seen {
                    job.progress_seen = ticks;
                    job.progress_at = now;
                } else if now.duration_since(job.progress_at) >= budget {
                    job.hung = true;
                    token.cancel();
                    tripped.push(id);
                }
            }
        }
        for id in tripped {
            shared.watchdog_hangs.inc();
            shared.log(&format!(
                "watchdog: job {id} made no engine progress for {watchdog_ms}ms; cancelling"
            ));
        }
    }
}

/// Execute one dequeued job end to end: pickup (arming its cancel
/// token), panic-shielded simulation, terminal bookkeeping, span record,
/// terminal event.
///
/// Span stage marks are µs offsets from the job's queue entry, all read
/// from one monotonic clock: `queue` ends at pickup, `cache` at the
/// cache lookup, `run` at simulation end (misses only), `finish` at the
/// span's emission. Adjacent-mark differences therefore sum *exactly*
/// to `total_us`.
fn run_one_job(shared: &Shared, id: u64) {
    let picked = {
        let mut jobs = shared.lock_jobs();
        let Some(job) = jobs.get_mut(&id) else {
            return; // unknown id: nothing to do
        };
        if job.cancelled {
            job.state = JobState::Cancelled;
            Err((
                job.sender.take(),
                job.span.clone(),
                job.queued_at,
                job.workload.clone(),
            ))
        } else {
            job.state = JobState::Running;
            let token = match job.deadline_ms {
                Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            job.token = Some(token.clone());
            // Zero point for the watchdog: "no progress" is measured
            // from pickup, never from queue time.
            job.progress_seen = token.progress();
            job.progress_at = Instant::now();
            Ok((
                job.sender.clone(),
                job.workload.clone(),
                job.cfg.clone(),
                job.insts,
                job.warmup,
                job.key.clone(),
                token,
                job.span.clone(),
                job.queued_at,
            ))
        }
    };
    let (tx, workload_name, cfg, insts, warmup, key, token, span, queued_at) = match picked {
        Err((tx, span, queued_at, workload)) => {
            // Cancelled while queued: the whole life was the queue wait.
            let queue_us = us_since(queued_at);
            shared.cancelled.inc();
            shared.telemetry.queue_wait_us.observe(queue_us);
            shared
                .telemetry
                .job_us(&workload, "cancelled")
                .observe(queue_us);
            shared.publish(
                tx.as_ref(),
                &protocol::ev_span(
                    id,
                    &span,
                    &workload,
                    "cancelled",
                    &[("queue", queue_us)],
                    queue_us,
                ),
            );
            shared.publish(tx.as_ref(), &protocol::ev_cancelled(id));
            shared.journal_finished(id, "cancelled");
            return;
        }
        Ok(p) => p,
    };
    shared.busy.fetch_add(1, Ordering::Relaxed);
    let _busy = BusyGuard(&shared.busy);
    if let Some(journal) = &shared.journal {
        journal.started(id);
    }
    shared.publish(tx.as_ref(), &protocol::ev_running(id));
    if shared.faults.next_execution_dies() {
        // Node-death fault: take the whole process down — no unwind, no
        // drain, no farewell. The coordinator sees exactly what a
        // kill -9 or kernel panic looks like: a dead TCP peer mid-job.
        // Only ever armed on daemons running as their own process.
        eprintln!("wib-serve: injected fault: node death on job {id}");
        std::process::abort();
    }
    let queue_mark = us_since(queued_at);
    let mut cached_doc = shared.cache.get(&key);
    let mut peer_sourced = false;
    if cached_doc.is_none() {
        if let Some(doc) = fetch_from_peers(&shared, &key) {
            // Adopt the peer's document as a local entry so the next
            // hit is local; byte-identity of results across nodes makes
            // the copy indistinguishable from having simulated here.
            shared.cache.put(&key, doc.to_string());
            cached_doc = Some(Arc::new(doc.to_string()));
            peer_sourced = true;
        }
    }
    let lookup_mark = us_since(queued_at);
    // Parse up front: a cached entry that somehow fails to parse is
    // dropped and recomputed rather than trusted (or allowed to panic
    // the worker outside job isolation).
    let cached_json = cached_doc.and_then(|doc| match Json::parse(&doc) {
        Ok(parsed) => Some(parsed),
        Err(e) => {
            shared.log(&format!(
                "cached document for {key} failed to parse ({e}); recomputing"
            ));
            None
        }
    });
    if let Some(doc) = cached_json {
        settle(shared, id, JobState::Done);
        let hit = Hit {
            id,
            span: &span,
            workload: &workload_name,
            queued_at,
            queue_mark,
            lookup_mark,
            local: !peer_sourced,
        };
        publish_hit(shared, tx.as_ref(), &hit, doc);
        shared.journal_finished(id, "done");
        return;
    }
    let mut ran = false;
    let outcome = if let Some(workload) = shared.catalog.get(&workload_name) {
        ran = true;
        let sim = catch_unwind(AssertUnwindSafe(|| {
            if shared.faults.next_sim_panics() {
                panic!("injected fault: worker panic");
            }
            if shared.faults.next_sim_hangs() {
                // A wedged simulation: no heartbeat, no progress, no
                // return — until something (the watchdog, a client
                // cancel, a deadline) trips the token. The engine then
                // starts with an already-tripped token and returns
                // `cancelled` at its first poll.
                shared.log(&format!("injected fault: job {id} hanging"));
                while !token.should_stop() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            let mut proc = Processor::new(cfg.clone());
            proc.set_cancel_token(token.clone());
            let r =
                proc.run_program_warmed(workload.program(), warmup, RunLimit::instructions(insts));
            let doc = result_doc(workload, &cfg, insts, warmup, shared.scale, &r);
            (doc, r)
        }));
        // Engine self-profiling rides every completed simulation,
        // cancelled or not (host telemetry, never part of the result).
        if let Ok((_, r)) = &sim {
            shared.telemetry.record_engine_profile(&r.profile);
        }
        let hung = shared.lock_jobs().get(&id).is_some_and(|j| j.hung);
        match sim {
            // The watchdog tripped the token on a frozen heartbeat:
            // report a retryable `hung` error, not a plain cancel.
            Ok((_, r)) if r.cancelled && hung => Outcome::Hung,
            // A cancelled run carries partial statistics: never cache
            // or publish its document.
            Ok((_, r)) if r.cancelled && token.is_cancelled() => Outcome::Cancelled,
            Ok((_, r)) if r.cancelled => {
                shared.deadline_expired.inc();
                let ms = shared.lock_jobs().get(&id).and_then(|j| j.deadline_ms);
                Outcome::Failed(format!("deadline of {}ms expired mid-run", ms.unwrap_or(0)))
            }
            Ok((doc, r)) => {
                for sample in r.stats.intervals.iter().take(MAX_STREAMED_INTERVALS) {
                    shared.publish(tx.as_ref(), &protocol::ev_interval(id, sample));
                }
                shared.cache.put(&key, doc.to_string());
                Outcome::Done(doc)
            }
            Err(panic) => {
                shared.panicked.inc();
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Outcome::Failed(format!("simulation panicked: {msg}"))
            }
        }
    } else {
        Outcome::Failed(format!("workload {workload_name:?} vanished from catalog"))
    };
    let run_mark = us_since(queued_at);
    settle(
        shared,
        id,
        match outcome {
            Outcome::Done(_) => JobState::Done,
            Outcome::Cancelled => JobState::Cancelled,
            Outcome::Hung | Outcome::Failed(_) => JobState::Failed,
        },
    );
    // Latency rollups and the span record, just before the terminal
    // event (a client sees the span first, then the outcome it explains).
    let outcome_name = match &outcome {
        Outcome::Done(_) => "done",
        Outcome::Cancelled => "cancelled",
        Outcome::Hung => "hung",
        Outcome::Failed(_) => "error",
    };
    let finish_mark = us_since(queued_at);
    let mut stages: Vec<(&'static str, u64)> =
        vec![("queue", queue_mark), ("cache", lookup_mark - queue_mark)];
    if ran {
        stages.push(("run", run_mark - lookup_mark));
        stages.push(("finish", finish_mark - run_mark));
    } else {
        stages.push(("finish", finish_mark - lookup_mark));
    }
    shared.telemetry.queue_wait_us.observe(queue_mark);
    if ran {
        shared.telemetry.run_us.observe(run_mark - lookup_mark);
    }
    shared
        .telemetry
        .job_us(&workload_name, outcome_name)
        .observe(finish_mark);
    shared.publish(
        tx.as_ref(),
        &protocol::ev_span(
            id,
            &span,
            &workload_name,
            outcome_name,
            &stages,
            finish_mark,
        ),
    );
    match outcome {
        Outcome::Done(doc) => {
            shared.completed.inc();
            shared.log(&format!("job {id} {workload_name} done"));
            shared.publish(tx.as_ref(), &protocol::ev_done(id, false, doc));
        }
        Outcome::Cancelled => {
            shared.cancelled.inc();
            shared.log(&format!("job {id} {workload_name} cancelled mid-run"));
            shared.publish(tx.as_ref(), &protocol::ev_cancelled(id));
        }
        Outcome::Hung => {
            shared.errors.inc();
            shared.log(&format!(
                "job {id} {workload_name} hung: watchdog cancelled it; worker recycled"
            ));
            shared.publish(
                tx.as_ref(),
                &protocol::ev_hung(id, &key, "watchdog: no engine progress; job cancelled"),
            );
        }
        Outcome::Failed(msg) => {
            shared.errors.inc();
            shared.log(&format!("job {id} {workload_name} failed: {msg}"));
            shared.publish(tx.as_ref(), &protocol::ev_error(id, &key, &msg));
        }
    }
    shared.journal_finished(id, outcome_name);
}

/// Record a job's terminal state in the job table, dropping its event
/// channel (so writer threads can exit) and its cancel token.
fn settle(shared: &Shared, id: u64, state: JobState) {
    if let Some(job) = shared.lock_jobs().get_mut(&id) {
        job.sender = None;
        job.token = None;
        job.state = state;
    }
}

/// One cache hit on its way to the client.
struct Hit<'a> {
    id: u64,
    span: &'a str,
    workload: &'a str,
    queued_at: Instant,
    /// Span stage marks in µs from `queued_at`: the end of the queue
    /// wait (0 for an inline hit) and the end of the cache lookup.
    queue_mark: u64,
    lookup_mark: u64,
    /// Served from this node's cache. A peer's document includes a
    /// network round trip, so it stays out of the local-hit histogram.
    local: bool,
}

/// A cache hit's terminal bookkeeping, shared by the inline path in
/// [`submit_batch`] and a worker whose job was cached by the time it was
/// picked up: latency rollups, the span record (`queue`, `cache`,
/// `finish`, summing exactly to `total_us`), the `completed` count and
/// the `done` event.
fn publish_hit(shared: &Shared, tx: Option<&Sender<String>>, hit: &Hit<'_>, doc: Json) {
    let finish_mark = us_since(hit.queued_at);
    let stages = [
        ("queue", hit.queue_mark),
        ("cache", hit.lookup_mark - hit.queue_mark),
        ("finish", finish_mark - hit.lookup_mark),
    ];
    let t = &shared.telemetry;
    t.queue_wait_us.observe(hit.queue_mark);
    if hit.local {
        t.cache_hit_us.observe(hit.lookup_mark - hit.queue_mark);
    }
    t.job_us(hit.workload, "done").observe(finish_mark);
    shared.publish(
        tx,
        &protocol::ev_span(hit.id, hit.span, hit.workload, "done", &stages, finish_mark),
    );
    shared.completed.inc();
    shared.log(&format!("job {} {} done (cached)", hit.id, hit.workload));
    shared.publish(tx, &protocol::ev_done(hit.id, true, doc));
}

/// The inline hit path's lookup: the parsed document when `key` is in
/// this node's cache (memory or disk), with the span's lookup mark in
/// µs from `queued_at`. The mark is taken before the parse, as in the
/// worker. Only a hit that will be served is counted; a miss goes to
/// the queue, where the worker's own lookup counts it, so every job is
/// counted exactly once.
fn local_hit(shared: &Shared, key: &str, queued_at: Instant) -> Option<(Json, u64)> {
    let text = shared.cache.peek(key)?;
    let lookup_mark = us_since(queued_at);
    let doc = Json::parse(&text).ok()?;
    // `peek` loaded a disk entry into memory, so this counts the hit.
    shared.cache.get(key);
    Some((doc, lookup_mark))
}

/// On a local cache miss, probe the peering list (ring successors
/// installed by the coordinator) for the digest. First hit wins; a
/// dead or empty peer just falls through — the worst case is a short
/// bounded delay before simulating locally.
///
/// Two budgets bound the pass: [`PEER_BUDGET`] caps the whole loop, and
/// each individual probe gets at most [`PEER_PROBE_BUDGET`] — so one
/// hung peer burns a slice of the budget, not all of it, and the
/// remaining neighbors still get their turn.
fn fetch_from_peers(shared: &Shared, key: &str) -> Option<Json> {
    let peers: Vec<String> = shared.lock_peers().clone();
    let deadline = Instant::now() + PEER_BUDGET;
    for addr in peers {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            shared.log(&format!("peer budget exhausted before probing {addr}"));
            break;
        }
        shared.peer_probes.inc();
        match crate::client::cache_fetch(&addr, key, remaining.min(PEER_PROBE_BUDGET)) {
            Ok(Some(doc)) => {
                shared.peer_hits.inc();
                shared.log(&format!("cache miss for {key} served by peer {addr}"));
                return Some(doc);
            }
            Ok(None) => {}
            Err(e) => shared.log(&format!("peer {addr} probe failed: {e}")),
        }
    }
    None
}

/// Per-connection dispatch state (what the reader must undo on close).
#[derive(Default)]
struct ConnState {
    /// This connection's watcher registration, if it sent `watch`.
    watcher_id: Option<u64>,
}

fn handle_conn(shared: Arc<Shared>, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    // Events go out as small writes; Nagle's algorithm would hold each
    // one back for the peer's delayed ACK on a reused connection.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // A peer that stops draining its socket must not pin this thread:
    // bound every write, and treat timeout like any other write error.
    let _ = write_half.set_write_timeout(Some(WRITE_TIMEOUT));
    let (tx, rx) = channel::<String>();
    let writer_faults = Arc::clone(&shared.faults);
    let writer = std::thread::Builder::new()
        .name("wib-serve-writer".to_string())
        .spawn(move || {
            let mut out = BufWriter::new(write_half);
            while let Ok(line) = rx.recv() {
                match writer_faults.next_client_write() {
                    WriteFault::None => {}
                    WriteFault::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
                    WriteFault::Truncate => {
                        // A peer that vanished mid-line: half the frame,
                        // then the writer dies.
                        let _ = out
                            .write_all(&line.as_bytes()[..line.len() / 2])
                            .and_then(|()| out.flush());
                        break;
                    }
                }
                if out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    break;
                }
            }
        })
        .expect("spawn writer thread");
    let mut reader = BufReader::new(stream);
    let mut acc = String::new();
    let mut conn = ConnState::default();
    loop {
        if shared.is_finished() {
            break;
        }
        match reader.read_line(&mut acc) {
            Ok(0) => break,
            Ok(_) => {
                if !acc.ends_with('\n') {
                    continue; // partial line before EOF; next read returns 0
                }
                let line = acc.trim().to_string();
                acc.clear();
                if line.is_empty() {
                    continue;
                }
                if dispatch(&shared, &tx, &mut conn, &line) {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    // Undo this connection's watcher registration so workers stop
    // buffering events for a peer that is gone.
    if let Some(wid) = conn.watcher_id {
        shared.lock_watchers().remove(&wid);
    }
    shared.log(&format!("connection {peer} closed"));
    drop(tx);
    let _ = writer.join();
}

/// Handle one request line; returns `true` when the connection should
/// close (after a shutdown request completes).
fn dispatch(shared: &Arc<Shared>, tx: &Sender<String>, conn: &mut ConnState, line: &str) -> bool {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            let _ = tx.send(protocol::ev_protocol_error(&e).to_string());
            return false;
        }
    };
    // The `sick` fault makes this node answer health probes (ping,
    // stats, metrics — everything a coordinator uses to judge liveness)
    // with an error, while job traffic is untouched: an intermittently
    // sick-but-working backend, the exact case the coordinator's
    // K-failure policy and rejoin supervisor exist for.
    if matches!(request, Request::Ping | Request::Stats | Request::Metrics)
        && shared.faults.next_probe_fails()
    {
        shared.log("injected fault: sick node, failing health probe");
        let _ = tx.send(protocol::ev_protocol_error("injected fault: sick node").to_string());
        return false;
    }
    match request {
        Request::Ping => {
            let _ = tx.send(Json::obj().field("event", "pong").to_string());
        }
        Request::Stats => {
            let _ = tx.send(shared.stats_json().to_string());
        }
        Request::Metrics => {
            let _ = tx.send(protocol::ev_metrics(&shared.metrics_text()).to_string());
        }
        Request::Watch => {
            let wid = shared.next_watcher.fetch_add(1, Ordering::Relaxed);
            shared.lock_watchers().insert(wid, tx.clone());
            conn.watcher_id = Some(wid);
            let _ = tx.send(Json::obj().field("event", "watching").to_string());
        }
        Request::Cancel { job } => {
            let (ok, state) = {
                let mut jobs = shared.lock_jobs();
                match jobs.get_mut(&job) {
                    Some(j) if j.state == JobState::Queued && !j.cancelled => {
                        j.cancelled = true;
                        (true, "queued")
                    }
                    Some(j) if j.state == JobState::Running => match &j.token {
                        Some(t) => {
                            // The engine observes this at its next epoch
                            // boundary; the worker then publishes the
                            // terminal `cancelled` event.
                            t.cancel();
                            (true, "running")
                        }
                        None => (false, "running"),
                    },
                    Some(j) => (false, j.state.name()),
                    None => (false, "unknown"),
                }
            };
            let _ = tx.send(
                Json::obj()
                    .field("event", "cancel")
                    .field("job", job)
                    .field("ok", ok)
                    .field("state", state)
                    .to_string(),
            );
        }
        Request::Submit {
            jobs,
            insts,
            warmup,
            deadline_ms,
        } => {
            submit_batch(shared, tx, &jobs, insts, warmup, deadline_ms);
        }
        Request::CacheGet { digest } => {
            // Peer-cache probe: serve our cache read-only, without
            // touching hit/miss telemetry (the probing node owns the
            // miss; counting it here too would double-book it).
            let result = shared
                .cache
                .peek(&digest)
                .and_then(|doc| Json::parse(&doc).ok());
            let _ = tx.send(protocol::ev_cache_entry(&digest, result).to_string());
        }
        Request::Peers { addrs } => {
            let count = addrs.len();
            *shared.lock_peers() = addrs;
            shared.log(&format!("peer list updated: {count} neighbor(s)"));
            let _ = tx.send(protocol::ev_peers(count).to_string());
        }
        Request::Join { .. } | Request::ClusterStats => {
            let _ = tx.send(
                protocol::ev_protocol_error(
                    "coordinator-only op: this is a backend daemon, not a coordinator",
                )
                .to_string(),
            );
        }
        Request::Shutdown { drain } => {
            shared.begin_shutdown(drain);
            // Wait for the full drain-and-join, then confirm and close.
            shared.wait_finished();
            let _ = tx.send(
                Json::obj()
                    .field("event", "shutdown")
                    .field("completed", shared.completed.get())
                    .field("errors", shared.errors.get())
                    .field("cancelled", shared.cancelled.get())
                    .to_string(),
            );
            return true;
        }
    }
    false
}

fn submit_batch(
    shared: &Arc<Shared>,
    tx: &Sender<String>,
    jobs: &[JobRequest],
    batch_insts: Option<u64>,
    batch_warmup: Option<u64>,
    batch_deadline: Option<u64>,
) {
    for (index, job) in jobs.iter().enumerate() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            let _ = tx.send(
                protocol::ev_rejected(index, &job.workload, "server is shutting down").to_string(),
            );
            continue;
        }
        let resolved = resolve_job(
            &shared.catalog,
            job,
            batch_insts,
            batch_warmup,
            shared.opts.default_insts,
            shared.opts.default_warmup,
        );
        let (workload, cfg, insts, warmup) = match resolved {
            Ok(r) => r,
            Err(reason) => {
                let _ = tx.send(protocol::ev_rejected(index, &job.workload, &reason).to_string());
                continue;
            }
        };
        let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
        let spec = cfg.to_spec();
        let key = ResultCache::key(&workload, &cfg, insts, warmup, shared.scale);
        // The span id is unique per submission *attempt* (a resubmit of
        // the same job identity gets a fresh span): job id plus the
        // daemon's monotonic clock. Never part of the result document.
        let span = format!("{id:x}.{:x}", shared.telemetry.started.elapsed().as_nanos());
        let deadline_ms = job.deadline_ms.or(batch_deadline);
        let queued_at = Instant::now();
        // A result already in the cache is answered here, on the
        // connection thread. It is finished before its `queued` event
        // reaches the client, so there is nothing to journal, queue or
        // track, and no worker wakes for it.
        if let Some((doc, lookup_mark)) = local_hit(shared, &key, queued_at) {
            shared.submitted.inc();
            shared.publish(
                Some(tx),
                &protocol::ev_queued(id, index, &workload, &spec, &key, &span),
            );
            shared.publish(Some(tx), &protocol::ev_running(id));
            let hit = Hit {
                id,
                span: &span,
                workload: &workload,
                queued_at,
                queue_mark: 0,
                lookup_mark,
                local: true,
            };
            publish_hit(shared, Some(tx), &hit, doc);
            continue;
        }
        shared.lock_jobs().insert(
            id,
            Job {
                workload: workload.clone(),
                key: key.clone(),
                cfg,
                insts,
                warmup,
                span: span.clone(),
                queued_at,
                deadline_ms,
                state: JobState::Queued,
                cancelled: false,
                hung: false,
                progress_seen: 0,
                progress_at: Instant::now(),
                token: None,
                sender: Some(tx.clone()),
            },
        );
        // The durability point for work that enters the queue: the
        // accepted record is fsync'd before the client sees `queued`. If the push is then refused, the
        // journal gets the matching terminal record so a restart does
        // not replay a job the client was told to retry.
        if let Some(journal) = &shared.journal {
            journal.accept(&JournalEntry {
                id,
                digest: key.clone(),
                workload: workload.clone(),
                spec: spec.clone(),
                insts,
                warmup,
                deadline_ms,
            });
        }
        // `queued` goes out before the enqueue so no worker can emit
        // `running` first; if the push is then refused, the terminal
        // `shed` event (same job id) retracts it.
        shared.publish(
            Some(tx),
            &protocol::ev_queued(id, index, &workload, &spec, &key, &span),
        );
        let refused = if shared.faults.next_enqueue_sheds() {
            Err(TryPushError::Full) // injected overload
        } else {
            shared.queue.try_push(id)
        };
        match refused {
            Ok(()) => {
                shared.submitted.inc();
                shared.shed_streak.store(0, Ordering::Relaxed);
            }
            Err(TryPushError::Full) => {
                shared.lock_jobs().remove(&id);
                shared.journal_finished(id, "shed");
                shared.shed.inc();
                let streak = shared.shed_streak.fetch_add(1, Ordering::Relaxed) + 1;
                let retry_after = shared.retry_after_ms(streak);
                shared.log(&format!(
                    "queue full: shed job {id} {workload} (retry in {retry_after}ms)"
                ));
                shared.publish(Some(tx), &protocol::ev_shed(id, &workload, retry_after));
            }
            Err(TryPushError::Closed) => {
                shared.lock_jobs().remove(&id);
                shared.journal_finished(id, "rejected");
                let _ = tx.send(
                    protocol::ev_rejected(index, &workload, "server is shutting down").to_string(),
                );
            }
        }
    }
}

/// Re-enqueue jobs recovered from the journal at startup: each entry is
/// re-accepted under a fresh id through the normal journaling path,
/// with no client connection attached — watchers still see the full
/// event lifecycle, and the result lands in the cache where the
/// resubmitting client's retry finds it.
fn requeue_replayed(shared: &Arc<Shared>, entries: Vec<JournalEntry>) {
    let count = entries.len();
    shared.log(&format!(
        "journal replay: re-queueing {count} incomplete job(s)"
    ));
    for entry in entries {
        let Ok(cfg) = MachineConfig::from_spec(&entry.spec) else {
            shared.log(&format!(
                "journal replay: dropping job with unparseable spec {:?}",
                entry.spec
            ));
            continue;
        };
        if !shared.catalog.contains_key(&entry.workload) {
            shared.log(&format!(
                "journal replay: dropping job for unknown workload {:?}",
                entry.workload
            ));
            continue;
        }
        let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
        let span = format!("{id:x}.{:x}", shared.telemetry.started.elapsed().as_nanos());
        shared.lock_jobs().insert(
            id,
            Job {
                workload: entry.workload.clone(),
                key: entry.digest.clone(),
                cfg,
                insts: entry.insts,
                warmup: entry.warmup,
                span: span.clone(),
                queued_at: Instant::now(),
                deadline_ms: entry.deadline_ms,
                state: JobState::Queued,
                cancelled: false,
                hung: false,
                progress_seen: 0,
                progress_at: Instant::now(),
                token: None,
                sender: None,
            },
        );
        if let Some(journal) = &shared.journal {
            journal.accept(&JournalEntry {
                id,
                ..entry.clone()
            });
        }
        shared.publish(
            None,
            &protocol::ev_queued(id, 0, &entry.workload, &entry.spec, &entry.digest, &span),
        );
        match shared.queue.try_push(id) {
            Ok(()) => {
                shared.submitted.inc();
            }
            Err(_) => {
                // A replay bigger than the queue: beyond-capacity jobs
                // are dropped (journaled as such) rather than blocking
                // startup — the client's own retry still covers them.
                shared.lock_jobs().remove(&id);
                shared.journal_finished(id, "dropped");
                shared.log(&format!("journal replay: queue full, dropped job {id}"));
            }
        }
    }
}
