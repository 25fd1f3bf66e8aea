//! `serve_sweep`: a coordinator in front of two single-worker daemons,
//! with persistence on, driven by one client that holds one connection
//! at a time.
//!
//! Each cycle brings a fresh cluster up in a fresh directory, sends the
//! 36-point grid as one batch (the miss phase: simulation, journal
//! fsync, cache persist, ring routing), then submits single jobs drawn
//! by seed from the same grid in a closed loop (the hit phase: protocol,
//! coordinator hop, cache lookup), and shuts the cluster down.

use crate::calib;
use crate::check::{key, Reference};
use crate::engine::{catalog_of, probe_point, shuffled, traced_gen, LayerTotals};
use crate::points::{serve_grid, Point, Scale};
use crate::stats::{median, percentile, ratio, sorted};
use crate::trace::Tracer;
use crate::{Opts, Report};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wib_core::{fnv1a64_hex, Exposition, Json, Log2Snapshot};
use wib_serve::client::{self, JobStatus, SubmitOptions};
use wib_serve::{compute_result, coord, server, CoordOptions, JobRequest, ServerOptions};
use wib_workloads::Workload;

/// Cluster cycles per run; `setup_s`, `sweep_s` and the hit percentiles
/// are medians over them.
const CYCLES: usize = 12;

/// Hit-phase submits per second of `--seconds`, spread over the cycles.
/// The count is fixed, not the time: the daemon keeps every finished job
/// in its job table, so memory grows with the number of jobs, and a
/// faster hit path must not read as a larger `peak_rss_mb`. A 30 s run
/// makes 1000 hits a cycle, so each cycle's p99 has 10 samples beyond it;
/// at about 1.3 ms a hit on a 2-CPU host they fill half the run.
const HITS_PER_SECOND: f64 = 400.0;

/// Hit-phase submits between host-speed calibrations.
const CALIBRATE_EVERY: usize = 64;

/// Backend daemons, one worker each: two workers in all.
pub const BACKENDS: usize = 2;

/// A client waits this long for a silent cluster before failing.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

struct Cluster {
    backends: Vec<server::ServerHandle>,
    coord: coord::CoordHandle,
    addr: String,
}

fn start_cluster(dir: &Path, scale: &Scale) -> std::io::Result<Cluster> {
    let tiny = scale.name == "tiny";
    let mut backends = Vec::new();
    for i in 0..BACKENDS {
        backends.push(server::spawn(ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            tiny,
            results_dir: Some(dir.join(format!("node{i}"))),
            default_insts: scale.serve.insts,
            default_warmup: scale.serve.warmup,
            quiet: true,
            faults: Some(String::new()),
            watchdog_ms: None,
            ..ServerOptions::default()
        })?);
    }
    let coord = coord::spawn(CoordOptions {
        addr: "127.0.0.1:0".to_string(),
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        tiny,
        default_insts: scale.serve.insts,
        default_warmup: scale.serve.warmup,
        quiet: true,
        ..CoordOptions::default()
    })?;
    let addr = coord.addr().to_string();
    Ok(Cluster {
        backends,
        coord,
        addr,
    })
}

impl Cluster {
    /// Drain the cluster: the coordinator shuts its backends down, then
    /// itself; every thread is joined before this returns.
    fn stop(self) -> Result<(), String> {
        let res = client::shutdown(&self.addr, true)
            .map(drop)
            .map_err(|e| format!("cluster shutdown: {e}"));
        if res.is_err() {
            self.coord.shutdown();
            for b in &self.backends {
                b.shutdown(false);
            }
        }
        for b in self.backends {
            b.join();
        }
        self.coord.join();
        res
    }
}

fn job(p: &Point, scale: &Scale) -> JobRequest {
    JobRequest {
        workload: p.kernel.to_string(),
        spec: p.spec.clone(),
        insts: Some(scale.serve.insts),
        warmup: Some(scale.serve.warmup),
        deadline_ms: None,
    }
}

/// Submit `jobs` and check every outcome byte-for-byte against the
/// `--local` documents. Returns the count of cache hits among the
/// successes.
fn submit_checked(
    addr: &str,
    jobs: &[JobRequest],
    expected: &[&String],
    report: &mut Report,
) -> usize {
    report.attempted += jobs.len() as u64;
    let opts = SubmitOptions {
        idle_timeout: IDLE_TIMEOUT,
        ..SubmitOptions::default()
    };
    let outcomes = match client::submit_with(addr, jobs, &opts) {
        Ok(o) => o,
        Err(e) => {
            for _ in jobs {
                report.fail(format!("submit: {e}"));
            }
            return 0;
        }
    };
    let mut hits = 0;
    for ((j, o), want) in jobs.iter().zip(&outcomes).zip(expected) {
        match &o.status {
            JobStatus::Done { cached, result } if result.to_string() == **want => {
                hits += usize::from(*cached);
            }
            JobStatus::Done { .. } => report.fail(format!(
                "{} [{}]: result differs from the --local document",
                j.workload, j.spec
            )),
            other => report.fail(format!("{} [{}]: {other:?}", j.workload, j.spec)),
        }
    }
    hits
}

fn scrape(addr: &str, report: &mut Report) -> Exposition {
    match client::metrics(addr) {
        Ok(text) => Exposition::parse(&text),
        Err(e) => {
            report.fail(format!("metrics scrape: {e}"));
            Exposition::default()
        }
    }
}

/// `after − before` of one histogram family (all label sets merged).
fn hist_delta(before: &Exposition, after: &Exposition, name: &str) -> Log2Snapshot {
    let a = before.histogram(name).unwrap_or_default();
    let mut d = after.histogram(name).unwrap_or_default();
    for (x, y) in d.buckets.iter_mut().zip(a.buckets.iter()) {
        *x = x.saturating_sub(*y);
    }
    d.sum = d.sum.saturating_sub(a.sum);
    d.count = d.count.saturating_sub(a.count);
    d
}

fn counter_delta(before: &Exposition, after: &Exposition, name: &str) -> f64 {
    after.sum(name) - before.sum(name)
}

/// Daemon-side counts of the traced cycles, from the merged cluster
/// exposition scraped after set-up, after the miss phase and after the
/// hit phase.
#[derive(Default)]
struct ServeLayer {
    cycles: u64,
    queue_wait_hit: Log2Snapshot,
    run_miss: Log2Snapshot,
    cache_hit: Log2Snapshot,
    job_hit: Log2Snapshot,
    client_hit_ms: Vec<f64>,
    journal_appends: f64,
    jobs: f64,
    peer_probes: f64,
    peer_hits: f64,
}

impl ServeLayer {
    fn add(&mut self, s: &[Exposition; 3]) {
        self.cycles += 1;
        self.queue_wait_hit
            .merge(&hist_delta(&s[1], &s[2], "wib_serve_queue_wait_us"));
        self.run_miss
            .merge(&hist_delta(&s[0], &s[1], "wib_serve_run_us"));
        self.cache_hit
            .merge(&hist_delta(&s[1], &s[2], "wib_serve_cache_hit_us"));
        self.job_hit
            .merge(&hist_delta(&s[1], &s[2], "wib_serve_job_us"));
        self.journal_appends += counter_delta(&s[0], &s[2], "wib_serve_journal_appends_total");
        self.jobs += counter_delta(&s[0], &s[2], "wib_serve_jobs_submitted_total");
        self.peer_probes += counter_delta(&s[0], &s[2], "wib_serve_peer_probes_total");
        self.peer_hits += counter_delta(&s[0], &s[2], "wib_serve_peer_hits_total");
    }

    fn emit(&self, report: &mut Report) {
        let cycles = self.cycles as f64;
        report.set(
            "serve.queue_wait_us_p50",
            self.queue_wait_hit.quantile(0.5) as f64,
        );
        report.set("serve.run_ms_p50", self.run_miss.quantile(0.5) as f64 / 1e3);
        report.set(
            "serve.cache_hit_us_p50",
            self.cache_hit.quantile(0.5) as f64,
        );
        let client_mean = ratio(
            self.client_hit_ms.iter().sum(),
            self.client_hit_ms.len() as f64,
        );
        report.set(
            "serve.coord_hop_ms",
            client_mean - self.job_hit.mean() / 1e3,
        );
        report.set("serve.jobs", ratio(self.jobs, cycles));
        report.set(
            "serve.journal_appends_per_job",
            ratio(self.journal_appends, self.jobs),
        );
        report.set("serve.peer_probes", ratio(self.peer_probes, cycles));
        report.set("serve.peer_hits", ratio(self.peer_hits, cycles));
        report.note(format!(
            "hit path (means over {} hits): client {:.3} ms = coordinator hop {:.3} ms + \
             backend job {:.3} ms (queue wait {:.3} ms, cache lookup {:.3} ms)",
            self.client_hit_ms.len(),
            client_mean,
            client_mean - self.job_hit.mean() / 1e3,
            self.job_hit.mean() / 1e3,
            self.queue_wait_hit.mean() / 1e3,
            self.cache_hit.mean() / 1e3,
        ));
    }
}

/// What one cycle measured; times scaled by [`calib`] unless `raw_`.
struct Cycle {
    setup_s: f64,
    sweep_s: f64,
    raw_sweep_s: f64,
    committed: u64,
    hit_ms: Vec<f64>,
    raw_hit_ms: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn cycle(
    dir: &Path,
    scale: &Scale,
    grid: &[Point],
    expected: &[String],
    seed: u64,
    hits: usize,
    tracer: Option<&mut Tracer>,
    layer: &mut ServeLayer,
    report: &mut Report,
) -> Option<Cycle> {
    let _ = std::fs::remove_dir_all(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        report.fail(format!("create {}: {e}", dir.display()));
        return None;
    }
    let mut clock = calib::Clock::pair();
    let t0 = Instant::now();
    let cluster = match start_cluster(dir, scale) {
        Ok(c) => c,
        Err(e) => {
            report.fail(format!("cluster start: {e}"));
            return None;
        }
    };
    if let Err(e) = client::ping(&cluster.addr) {
        report.fail(format!("coordinator ping: {e}"));
    }
    let setup_raw = t0.elapsed();
    let f_setup = clock.factor();
    let traced = tracer.is_some();
    let mut scrapes = Vec::new();
    if traced {
        scrapes.push(scrape(&cluster.addr, report));
    }

    let order = shuffled(grid.len(), seed);
    let jobs: Vec<JobRequest> = order.iter().map(|&i| job(&grid[i], scale)).collect();
    let want: Vec<&String> = order.iter().map(|&i| &expected[i]).collect();
    let t = Instant::now();
    let miss_hits = submit_checked(&cluster.addr, &jobs, &want, report);
    let sweep_ns = t.elapsed().as_nanos() as u64;
    let f_sweep = clock.factor();
    if miss_hits > 0 {
        report.note(format!(
            "{miss_hits} miss-phase jobs were served from cache"
        ));
    }
    if traced {
        scrapes.push(scrape(&cluster.addr, report));
    }

    let mut rng = wib_rng::StdRng::seed_from_u64(seed ^ 0x5eed_f00d);
    let mut hit_ms = Vec::new();
    let mut raw_hit_ms = Vec::new();
    let mut hit_at = Vec::new();
    let mut uncached = 0;
    clock = calib::Clock::pair();
    while raw_hit_ms.len() < hits {
        let i = rng.random_range(0..grid.len() as u64) as usize;
        let t = Instant::now();
        let cached = submit_checked(
            &cluster.addr,
            &[job(&grid[i], scale)],
            &[&expected[i]],
            report,
        );
        raw_hit_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
        hit_at.push(t);
        uncached += 1 - cached;
        if raw_hit_ms.len() % CALIBRATE_EVERY == 0 || raw_hit_ms.len() == hits {
            let f = clock.factor();
            let block = &raw_hit_ms[hit_ms.len()..];
            hit_ms.extend(block.iter().map(|ms| ms * f));
        }
    }
    if uncached > 0 {
        report.note(format!("{uncached} hit-phase jobs missed the cache"));
    }
    if let Some(tracer) = tracer {
        scrapes.push(scrape(&cluster.addr, report));
        tracer.record("serve.setup", 0, None, t0, setup_raw.as_nanos() as u64);
        tracer.record("serve.miss_phase", 0, None, t, sweep_ns);
        for (n, (&at, &ms)) in hit_at.iter().zip(&raw_hit_ms).enumerate() {
            tracer.record("serve.hit", n as u64 + 1, None, at, (ms * 1e6) as u64);
        }
        layer.client_hit_ms.extend(&raw_hit_ms);
        if let Ok(s) = <[Exposition; 3]>::try_from(scrapes) {
            layer.add(&s);
        }
    }
    if let Err(e) = cluster.stop() {
        report.fail(e);
    }
    let _ = std::fs::remove_dir_all(dir);
    let committed = expected_committed(&want);
    Some(Cycle {
        setup_s: setup_raw.as_secs_f64() * f_setup,
        sweep_s: sweep_ns as f64 / 1e9 * f_sweep,
        raw_sweep_s: sweep_ns as f64 / 1e9,
        committed,
        hit_ms,
        raw_hit_ms,
    })
}

/// Detailed instructions the miss phase simulated, from the documents.
fn expected_committed(docs: &[&String]) -> u64 {
    docs.iter()
        .filter_map(|d| Json::parse(d).ok())
        .filter_map(|d| d.get("stats")?.get("committed")?.as_u64())
        .sum()
}

/// The `--local` documents of the grid, each checked against its
/// recorded stats digest.
fn expected_docs(
    catalog: &HashMap<String, Workload>,
    grid: &[Point],
    scale: &Scale,
    reference: &Reference,
    report: &mut Report,
) -> Vec<String> {
    let proto = scale.serve;
    grid.iter()
        .map(|p| {
            let doc = compute_result(
                &catalog[p.kernel],
                &p.cfg,
                proto.insts,
                proto.warmup,
                scale.name,
            );
            let stats = doc.get("stats").map(Json::to_string).unwrap_or_default();
            let k = key(proto.warmup, proto.insts, p.kernel, &p.spec);
            if let Err(e) = reference.check(&k, &fnv1a64_hex(stats.as_bytes())) {
                report.fail(e);
            }
            doc.to_string()
        })
        .collect()
}

pub fn run(scale: &Scale, reference: &Reference, opts: &Opts, work_dir: &Path) -> Report {
    let mut report = Report::default();
    let grid = serve_grid();
    let catalog = catalog_of((scale.suite)());
    let expected = expected_docs(&catalog, &grid, scale, reference, &mut report);
    let ipcs: Vec<f64> = expected
        .iter()
        .filter_map(|d| Json::parse(d).ok()?.get("ipc").map(|v| v.to_string()))
        .filter_map(|v| v.parse().ok())
        .collect();
    let hits = ((opts.seconds * HITS_PER_SECOND / CYCLES as f64).round() as usize).max(1);
    let mut tracer = Tracer::new();
    let mut layer = ServeLayer::default();
    let mut cycles = Vec::new();
    let mut traced_hit_ms = Vec::new();
    let start = Instant::now();
    for c in 0..CYCLES {
        // With tracing, odd cycles are traced and even ones are not, so
        // the two can be compared for the tracing overhead.
        let traced = opts.trace && c % 2 == 1;
        let dir: PathBuf = work_dir.join(format!("serve-{}-{c}", std::process::id()));
        let seed = opts.seed.wrapping_mul(1000).wrapping_add(c as u64);
        let got = cycle(
            &dir,
            scale,
            &grid,
            &expected,
            seed,
            hits,
            traced.then_some(&mut tracer),
            &mut layer,
            &mut report,
        );
        if let Some(cy) = got {
            if traced {
                traced_hit_ms.extend(cy.raw_hit_ms.iter().copied());
            }
            cycles.push((traced, cy));
        }
    }
    let untraced: Vec<&Cycle> = cycles.iter().filter(|(t, _)| !t).map(|(_, c)| c).collect();
    if untraced.is_empty() {
        report.fail("no serve cycle completed".to_string());
        return report;
    }
    let hit_ms = sorted(
        &untraced
            .iter()
            .flat_map(|c| c.hit_ms.clone())
            .collect::<Vec<_>>(),
    );
    let raw_hit_ms = sorted(
        &untraced
            .iter()
            .flat_map(|c| c.raw_hit_ms.clone())
            .collect::<Vec<_>>(),
    );
    report.tail_note("hit", &hit_ms);
    // Each percentile is taken per cycle and the median over cycles
    // reported, so one cycle that meets a slow disk or a busy neighbour
    // does not set the tail.
    let per_cycle = |p: f64| {
        let v: Vec<f64> = untraced
            .iter()
            .filter(|c| !c.hit_ms.is_empty())
            .map(|c| percentile(&sorted(&c.hit_ms), p))
            .collect();
        median(&v)
    };
    report.set("hit_ms_p50", per_cycle(50.0));
    report.set("hit_ms_p99", per_cycle(99.0));
    report.note(format!(
        "raw host time: sweep {:.4} s, hit p50 {:.4} ms, hit p99 {:.4} ms",
        median(&untraced.iter().map(|c| c.raw_sweep_s).collect::<Vec<_>>()),
        percentile(&raw_hit_ms, 50.0),
        percentile(&raw_hit_ms, 99.0)
    ));
    report.set(
        "setup_s",
        median(&untraced.iter().map(|c| c.setup_s).collect::<Vec<_>>()),
    );
    report.set(
        "sweep_s",
        median(&untraced.iter().map(|c| c.sweep_s).collect::<Vec<_>>()),
    );
    report.set(
        "sim_minsts_per_s",
        median(
            &untraced
                .iter()
                .map(|c| ratio(c.committed as f64, c.sweep_s) / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("sim_ipc_hmean", wib_bench::hmean(&ipcs));
    report.note(format!(
        "{} cycles ({} traced) in {:.1} s; {} hits",
        cycles.len(),
        cycles.len() - untraced.len(),
        start.elapsed().as_secs_f64(),
        hit_ms.len()
    ));

    if opts.trace {
        layer.emit(&mut report);
        let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
        report.set(
            "trace.overhead_pct",
            100.0 * (ratio(mean(&traced_hit_ms), mean(&raw_hit_ms)) - 1.0),
        );
        // The engine layers of the same grid, probed in this process.
        let mut totals = LayerTotals::default();
        let mut gen = Vec::new();
        let gen_ns = traced_gen(&mut tracer, scale, &catalog, &mut report, &mut gen);
        for (id, p) in grid.iter().enumerate() {
            report.attempted += 1;
            if let Err(e) = probe_point(
                &mut tracer,
                &mut totals,
                id as u64,
                &catalog[p.kernel],
                p,
                scale.serve,
            ) {
                report.fail(e);
            }
        }
        report.set("workloads.gen_ms", gen_ns as f64 / 1e6);
        totals.emit(&mut report);
        report.note("where the probed grid's time goes (catalog build + 36 points):".to_string());
        for (name, pct) in totals.time_table(gen_ns as f64) {
            report.note(format!("  {name:<28} {pct:>6.1} %"));
        }
        report.tracer = Some(tracer);
    }
    report
}
