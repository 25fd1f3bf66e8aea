//! `miss_bound` and `ilp_bound`: simulation points run one at a time on
//! one thread, timed around `Processor::run_program_warmed`.

use crate::calib;
use crate::check::{key, stats_digest, Reference};
use crate::points::{image_digest, Point, Protocol, Scale};
use crate::stats::{median, percentile, ratio, sorted};
use crate::trace::Tracer;
use crate::{Opts, Report};
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wib_core::{Processor, RunLimit, RunResult, STAGE_COUNT, STAGE_NAMES};
use wib_isa::interp::{Interpreter, StepInfo};
use wib_mem::cache::AccessKind;
use wib_mem::hier::MemoryHierarchy;
use wib_workloads::Workload;

/// Catalog builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Kernels by name.
pub fn catalog_of(suite: Vec<Workload>) -> HashMap<String, Workload> {
    suite
        .into_iter()
        .map(|w| (w.name().to_string(), w))
        .collect()
}

/// Build the catalog `SETUP_REPS` times; returns the last build and the
/// build times in seconds, scaled by [`calib`](crate::calib).
fn build_catalog(scale: &Scale) -> (HashMap<String, Workload>, Vec<f64>) {
    let mut times = Vec::new();
    let mut catalog = HashMap::new();
    for _ in 0..SETUP_REPS {
        let mut clock = calib::Clock::new();
        let t = Instant::now();
        let suite = black_box((scale.suite)());
        let s = t.elapsed().as_secs_f64();
        times.push(s * clock.factor());
        catalog = catalog_of(suite);
    }
    (catalog, times)
}

/// Run one point, turning a panic or a cancelled run into an error.
pub fn run_point(
    w: &Workload,
    p: &Point,
    proto: Protocol,
    limit: u64,
) -> Result<RunResult, String> {
    let r = catch_unwind(AssertUnwindSafe(|| {
        Processor::new(p.cfg.clone()).run_program_warmed(
            w.program(),
            proto.warmup,
            RunLimit::instructions(limit),
        )
    }))
    .map_err(|_| format!("{} [{}]: simulation panicked", p.kernel, p.spec))?;
    if r.cancelled {
        return Err(format!("{} [{}]: run was cancelled", p.kernel, p.spec));
    }
    Ok(r)
}

/// Check a full-length point against its recorded digest.
fn check_point(
    reference: &Reference,
    p: &Point,
    proto: Protocol,
    r: &RunResult,
) -> Result<(), String> {
    reference.check(
        &key(proto.warmup, proto.insts, p.kernel, &p.spec),
        &stats_digest(&r.stats),
    )
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = wib_rng::StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i as u64) as usize;
        order.swap(i, j);
    }
    order
}

/// What one untraced pass measured, per point in grid order.
struct Pass {
    /// Host milliseconds inside `run_program_warmed`, scaled by
    /// [`calib`]; NaN if the point failed.
    point_ms: Vec<f64>,
    /// The same, unscaled.
    raw_ms: Vec<f64>,
    committed: Vec<u64>,
    ipc: Vec<f64>,
}

fn untraced_pass(
    catalog: &HashMap<String, Workload>,
    points: &[Point],
    proto: Protocol,
    reference: &Reference,
    order: &[usize],
    report: &mut Report,
) -> Pass {
    let mut pass = Pass {
        point_ms: vec![f64::NAN; points.len()],
        raw_ms: vec![f64::NAN; points.len()],
        committed: vec![0; points.len()],
        ipc: vec![0.0; points.len()],
    };
    let mut clock = calib::Clock::new();
    for &i in order {
        let p = &points[i];
        report.attempted += 1;
        let t = Instant::now();
        let r = run_point(&catalog[p.kernel], p, proto, proto.insts);
        let ns = t.elapsed().as_nanos() as u64;
        let f = clock.factor();
        match r.and_then(|r| check_point(reference, p, proto, &r).map(|()| r)) {
            Ok(r) => {
                pass.raw_ms[i] = ns as f64 / 1e6;
                pass.point_ms[i] = ns as f64 / 1e6 * f;
                pass.committed[i] = r.stats.committed;
                pass.ipc[i] = r.ipc();
            }
            Err(e) => report.fail(e),
        }
    }
    pass
}

/// Per-layer totals gathered by [`probe_point`].
#[derive(Debug, Default)]
pub struct LayerTotals {
    points: u64,
    load_ns: u64,
    interp_ns: u64,
    /// Part of `interp_ns` spent on the warm-up instructions.
    interp_warm_ns: u64,
    interp_insts: u64,
    warm_ns: u64,
    warm_accesses: u64,
    timed_ns: u64,
    timed_accesses: u64,
    fixed_ns: u64,
    run_ns: u64,
    committed: u64,
    cycles: u64,
    fetched: u64,
    dir_lookups: u64,
    mispredicts: u64,
    l1d_misses: u64,
    l2_misses: u64,
    mshr_merges: u64,
    data_accesses: u64,
    wib_insertions: u64,
    wib_extractions: u64,
    wib_insertions_committed: u64,
    /// Detailed host time attributed to each engine stage by the
    /// sampled `StageProfile` shares.
    stage_ns: [f64; STAGE_COUNT],
}

fn access_kind(is_store: bool) -> AccessKind {
    if is_store {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// Run one point through each layer's public calls in turn, with a span
/// around each call:
///
/// - `isa.load`: `Interpreter::new` (image load)
/// - `isa.interp`: `Interpreter::step` over the warm-up and the detailed
///   stretch, recording each step's fetch and data access
/// - `mem.warm`: the warm-up stream replayed through `warm_inst` /
///   `warm_data` on a cold hierarchy
/// - `mem.timed`: the detailed stretch's data accesses replayed through
///   `data_access`, one instruction per cycle
/// - `core.fixed`: `run_program_warmed` with a 1-instruction limit
/// - `core.run`: the point itself, exactly as the untraced pass runs it
pub fn probe_point(
    tracer: &mut Tracer,
    totals: &mut LayerTotals,
    id: u64,
    w: &Workload,
    p: &Point,
    proto: Protocol,
) -> Result<RunResult, String> {
    let top = tracer.begin("point", id, None);

    let s = tracer.begin("isa.load", id, Some(top));
    let mut interp = Interpreter::new(w.program());
    totals.load_ns += tracer.end(s);

    let total = (proto.warmup + proto.insts) as usize;
    let mut stream: Vec<StepInfo> = Vec::with_capacity(total);
    let mut warm_len = 0;
    for (len, warm) in [(proto.warmup as usize, true), (total, false)] {
        let s = tracer.begin("isa.interp", id, Some(top));
        while stream.len() < len && !interp.is_halted() {
            let info = interp
                .step()
                .map_err(|e| format!("{} [{}]: interpreter: {e}", p.kernel, p.spec))?;
            stream.push(info);
        }
        let ns = tracer.end(s);
        totals.interp_ns += ns;
        if warm {
            totals.interp_warm_ns += ns;
            warm_len = stream.len();
        }
    }
    totals.interp_insts += stream.len() as u64;

    let s = tracer.begin("mem.warm", id, Some(top));
    let mut hier = MemoryHierarchy::new(p.cfg.mem.clone());
    for info in &stream[..warm_len] {
        hier.warm_inst(info.pc);
        totals.warm_accesses += 1;
        if let Some(m) = info.mem {
            hier.warm_data(m.addr, access_kind(m.is_store));
            totals.warm_accesses += 1;
        }
    }
    totals.warm_ns += tracer.end(s);

    let s = tracer.begin("mem.timed", id, Some(top));
    for (now, info) in stream[warm_len..].iter().enumerate() {
        if let Some(m) = info.mem {
            black_box(hier.data_access(m.addr, access_kind(m.is_store), now as u64));
            totals.timed_accesses += 1;
        }
    }
    totals.timed_ns += tracer.end(s);
    drop(stream);

    let s = tracer.begin("core.fixed", id, Some(top));
    let fixed = run_point(w, p, proto, 1);
    let fixed_ns = tracer.end(s);
    fixed?;

    let s = tracer.begin("core.run", id, Some(top));
    let r = run_point(w, p, proto, proto.insts);
    let run_ns = tracer.end(s);
    tracer.end(top);
    let r = r?;

    let detailed_ns = run_ns.saturating_sub(fixed_ns) as f64;
    totals.points += 1;
    totals.fixed_ns += fixed_ns;
    totals.run_ns += run_ns;
    let st = &r.stats;
    totals.committed += st.committed;
    totals.cycles += st.cycles;
    totals.fetched += st.fetched;
    totals.dir_lookups += st.dir_lookups;
    totals.mispredicts += st.dir_mispredicts + st.target_mispredicts;
    totals.l1d_misses += st.mem.l1d_misses;
    totals.l2_misses += st.mem.l2_misses;
    totals.mshr_merges += st.mem.mshr_merges;
    totals.data_accesses += st.mem.data_accesses;
    totals.wib_insertions += st.wib_insertions;
    totals.wib_extractions += st.wib_extractions;
    totals.wib_insertions_committed += st.wib_insertions_committed;
    for (i, ns) in totals.stage_ns.iter_mut().enumerate() {
        *ns += r.profile.share(i) * detailed_ns;
    }
    Ok(r)
}

impl LayerTotals {
    /// Emit every isa, mem, bpred and core metric.
    pub fn emit(&self, report: &mut Report) {
        let kinst = self.committed as f64 / 1000.0;
        let pki = |n: u64| ratio(n as f64, kinst);
        let detailed_ns = self.run_ns.saturating_sub(self.fixed_ns) as f64;
        report.set(
            "isa.load_us",
            ratio(self.load_ns as f64 / 1e3, self.points as f64),
        );
        report.set(
            "isa.interp_ns_per_inst",
            ratio(self.interp_ns as f64, self.interp_insts as f64),
        );
        report.set(
            "mem.warm_ns_per_access",
            ratio(self.warm_ns as f64, self.warm_accesses as f64),
        );
        report.set(
            "mem.timed_ns_per_access",
            ratio(self.timed_ns as f64, self.timed_accesses as f64),
        );
        report.set("mem.l1d_misses_pki", pki(self.l1d_misses));
        report.set("mem.l2_misses_pki", pki(self.l2_misses));
        report.set("mem.mshr_merges_pki", pki(self.mshr_merges));
        report.set("bpred.lookups_pki", pki(self.dir_lookups));
        report.set("bpred.mispredicts_pki", pki(self.mispredicts));
        report.set("core.fetched_pki", pki(self.fetched));
        report.set(
            "core.commit_per_fetch",
            ratio(self.committed as f64, self.fetched as f64),
        );
        report.set(
            "core.point_fixed_ms",
            ratio(self.fixed_ns as f64 / 1e6, self.points as f64),
        );
        report.set("core.committed_insts", self.committed as f64);
        report.set(
            "core.detailed_ns_per_inst",
            ratio(detailed_ns, self.committed as f64),
        );
        report.set(
            "core.host_ns_per_sim_cycle",
            ratio(detailed_ns, self.cycles as f64),
        );
        for (name, ns) in STAGE_METRICS.iter().zip(self.stage_ns) {
            report.set(name, ratio(ns, kinst));
        }
        report.set("core.cycles_pki", pki(self.cycles));
        report.set("core.wib_insertions_pki", pki(self.wib_insertions));
        report.set("core.wib_extractions_pki", pki(self.wib_extractions));
        report.set(
            "core.wib_useful_ratio",
            ratio(
                self.wib_insertions_committed as f64,
                self.wib_insertions as f64,
            ),
        );
    }

    /// Where the probed points' time goes, as shares of `core.run` plus
    /// the catalog build (`gen_ns`, once per pass). `core.run` is split
    /// into its fixed part (image load, warm-up, engine set-up: the
    /// `core.fixed` call) and the detailed rest; the fixed part is
    /// attributed with the isa and mem probes and the detailed rest with
    /// the sampled stage shares.
    pub fn time_table(&self, gen_ns: f64) -> Vec<(String, f64)> {
        let total = gen_ns + self.run_ns as f64;
        let isa = (self.load_ns + self.interp_warm_ns) as f64;
        let warm = self.warm_ns as f64;
        let fixed_rest = self.fixed_ns as f64 - isa - warm;
        let mut rows = vec![
            ("workloads.gen".to_string(), gen_ns),
            ("isa.load+interp (warm-up)".to_string(), isa),
            ("mem.warm".to_string(), warm),
            ("core.fixed (rest)".to_string(), fixed_rest),
        ];
        for (name, ns) in STAGE_NAMES.iter().zip(self.stage_ns) {
            rows.push((format!("core.stage.{name}"), ns));
        }
        rows.into_iter()
            .map(|(n, ns)| (n, 100.0 * ratio(ns, total)))
            .collect()
    }

    /// Estimated share of the detailed time spent in the memory model:
    /// the probe's cost per timed access times the accesses the engine
    /// made.
    pub fn mem_timed_share_of_detailed(&self) -> f64 {
        let per = ratio(self.timed_ns as f64, self.timed_accesses as f64);
        let detailed = self.run_ns.saturating_sub(self.fixed_ns) as f64;
        100.0 * ratio(per * self.data_accesses as f64, detailed)
    }
}

pub const STAGE_METRICS: [&str; STAGE_COUNT] = [
    "core.stage.commit_ns_pki",
    "core.stage.events_ns_pki",
    "core.stage.dispatch_ns_pki",
    "core.stage.issue_ns_pki",
    "core.stage.fetch_ns_pki",
    "core.stage.other_ns_pki",
];

/// Build every kernel one at a time with a `workloads.gen` span each,
/// checking each against the catalog's instance. Returns the summed
/// build time in nanoseconds.
pub fn traced_gen(
    tracer: &mut Tracer,
    scale: &Scale,
    catalog: &HashMap<String, Workload>,
    report: &mut Report,
    per_kernel: &mut Vec<(String, f64)>,
) -> u64 {
    let mut names: Vec<&String> = catalog.keys().collect();
    names.sort();
    let mut total = 0;
    for (id, name) in names.into_iter().enumerate() {
        let s = tracer.begin("workloads.gen", id as u64, None);
        let built = (scale.kernel)(name);
        let ns = tracer.end(s);
        total += ns;
        per_kernel.push((name.clone(), ns as f64 / 1e6));
        report.attempted += 1;
        match built {
            Some(w) if image_digest(w.program()) == image_digest(catalog[name].program()) => {}
            _ => report.fail(format!("{name}: per-kernel build differs from the suite's")),
        }
    }
    total
}

/// Run `points` for `opts.seconds`: untraced passes, or (with tracing)
/// pairs of an untraced and a traced pass.
pub fn run(points: &[Point], scale: &Scale, reference: &Reference, opts: &Opts) -> Report {
    let mut report = Report::default();
    let proto = scale.engine;
    let (catalog, setup) = build_catalog(scale);
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut tracer = Tracer::new();
    let mut totals = LayerTotals::default();
    let mut traced_run_ns = 0u64;
    let mut gen = Vec::new();
    let gen_ns = if opts.trace {
        traced_gen(&mut tracer, scale, &catalog, &mut report, &mut gen)
    } else {
        0
    };
    let mut round = 0u64;
    loop {
        let order = shuffled(
            points.len(),
            opts.seed.wrapping_mul(1000).wrapping_add(round),
        );
        passes.push(untraced_pass(
            &catalog,
            points,
            proto,
            reference,
            &order,
            &mut report,
        ));
        if opts.trace {
            let before = totals.run_ns;
            for &i in &order {
                let p = &points[i];
                report.attempted += 1;
                let id = round * points.len() as u64 + i as u64;
                let r = probe_point(&mut tracer, &mut totals, id, &catalog[p.kernel], p, proto);
                if let Err(e) = r.and_then(|r| check_point(reference, p, proto, &r)) {
                    report.fail(e);
                }
            }
            traced_run_ns += totals.run_ns - before;
        }
        round += 1;
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let ipc = &passes[0].ipc;
    if passes.iter().any(|p| &p.ipc != ipc) {
        report.fail("simulated IPC differs between passes".to_string());
    }
    // Each point's latency is its median over the passes, and a pass is
    // estimated as their sum. Host speed drifts within seconds, and a slow
    // stretch then moves a few points' samples, not a whole pass.
    let ok = |v: &f64| !v.is_nan();
    let per_point = |get: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        (0..points.len())
            .map(|i| {
                passes
                    .iter()
                    .map(|p| get(p)[i])
                    .filter(ok)
                    .collect::<Vec<_>>()
            })
            .filter(|ms| !ms.is_empty())
            .map(|ms| median(&ms))
            .collect()
    };
    let point_ms = per_point(|p| &p.point_ms);
    let by_latency = sorted(&point_ms);
    report.tail_note("point (median per point)", &by_latency);
    if !by_latency.is_empty() {
        report.set("hit_ms_p50", median(&by_latency));
        report.set("hit_ms_p99", percentile(&by_latency, 99.0));
    }
    let pass_ms: f64 = point_ms.iter().sum();
    report.note(format!(
        "one pass: {:.4} s scaled, {:.4} s raw host time",
        pass_ms / 1e3,
        per_point(|p| &p.raw_ms).iter().sum::<f64>() / 1e3
    ));
    report.set("setup_s", median(&setup));
    report.set("sweep_s", pass_ms / 1e3);
    let committed: u64 = passes[0].committed.iter().sum();
    report.set("sim_minsts_per_s", ratio(committed as f64, pass_ms) / 1e3);
    report.set("sim_ipc_hmean", wib_bench::hmean(ipc));
    report.note(format!(
        "{} passes of {} points; setup_s over {} catalog builds",
        passes.len(),
        points.len(),
        setup.len()
    ));

    if opts.trace {
        let untraced_run_ns: f64 = passes
            .iter()
            .flat_map(|p| p.raw_ms.iter().copied())
            .filter(ok)
            .sum::<f64>()
            * 1e6;
        report.set("workloads.gen_ms", gen_ns as f64 / 1e6);
        totals.emit(&mut report);
        report.set(
            "trace.overhead_pct",
            100.0 * (ratio(traced_run_ns as f64, untraced_run_ns) - 1.0),
        );
        report.note("per-kernel build (workloads.gen, ms):".to_string());
        for (name, ms) in &gen {
            report.note(format!("  {name:<10} {ms:>8.3}"));
        }
        report.note(format!(
            "where the time goes (share of one pass: catalog build + {} points):",
            points.len()
        ));
        for (name, pct) in totals.time_table(gen_ns as f64 * passes.len() as f64) {
            report.note(format!("  {name:<28} {pct:>6.1} %"));
        }
        report.note(format!(
            "  mem.timed (estimate) is {:.1} % of the detailed time",
            totals.mem_timed_share_of_detailed()
        ));
        report.tracer = Some(tracer);
    }
    report
}
