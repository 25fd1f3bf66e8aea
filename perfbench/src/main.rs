//! The wib-sim benchmark: one command, three workloads, every metric by
//! name with its unit. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload miss_bound --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `--bless`
//! rewrites `reference.txt` from the current simulator.

mod calib;
mod check;
mod engine;
mod points;
mod serve;
mod stats;
mod trace;

use check::{key, stats_digest, Reference};
use points::{Point, Scale};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use wib_core::Json;

/// End-to-end metrics: name, unit. Reported by every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sim_minsts_per_s", "Minst/s"),
    ("hit_ms_p50", "ms"),
    ("hit_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("sim_ipc_hmean", "inst/cycle"),
];

/// Per-layer metrics: name, unit. A layer a workload does not run
/// reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.gen_ms", "ms"),
    ("isa.load_us", "us"),
    ("isa.interp_ns_per_inst", "ns/inst"),
    ("mem.warm_ns_per_access", "ns/access"),
    ("mem.timed_ns_per_access", "ns/access"),
    ("mem.l1d_misses_pki", "1/kinst"),
    ("mem.l2_misses_pki", "1/kinst"),
    ("mem.mshr_merges_pki", "1/kinst"),
    ("bpred.lookups_pki", "1/kinst"),
    ("bpred.mispredicts_pki", "1/kinst"),
    ("core.fetched_pki", "1/kinst"),
    ("core.commit_per_fetch", "ratio"),
    ("core.committed_insts", "count"),
    ("core.point_fixed_ms", "ms"),
    ("core.detailed_ns_per_inst", "ns/inst"),
    ("core.host_ns_per_sim_cycle", "ns/cycle"),
    ("core.stage.commit_ns_pki", "ns/kinst"),
    ("core.stage.events_ns_pki", "ns/kinst"),
    ("core.stage.dispatch_ns_pki", "ns/kinst"),
    ("core.stage.issue_ns_pki", "ns/kinst"),
    ("core.stage.fetch_ns_pki", "ns/kinst"),
    ("core.stage.other_ns_pki", "ns/kinst"),
    ("core.cycles_pki", "1/kinst"),
    ("core.wib_insertions_pki", "1/kinst"),
    ("core.wib_extractions_pki", "1/kinst"),
    ("core.wib_useful_ratio", "ratio"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.run_ms_p50", "ms"),
    ("serve.cache_hit_us_p50", "us"),
    ("serve.coord_hop_ms", "ms"),
    ("serve.jobs", "count"),
    ("serve.journal_appends_per_job", "ratio"),
    ("serve.peer_probes", "count"),
    ("serve.peer_hits", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
];

pub const WORKLOADS: [&str; 3] = ["miss_bound", "ilp_bound", "serve_sweep"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    errors: Vec<String>,
    notes: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

impl Report {
    /// Count one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Note the sample count of ascending latencies and the highest
    /// percentile with at least [`stats::MIN_BEYOND`] samples beyond it.
    pub fn tail_note(&mut self, what: &str, sorted_ms: &[f64]) {
        let tail = match stats::tail(sorted_ms) {
            Some((p, v)) => format!("p{p} = {v:.3} ms"),
            None => "none".to_string(),
        };
        self.note(format!(
            "{} {what} latencies; highest percentile with >= {} beyond: {tail}",
            sorted_ms.len(),
            stats::MIN_BEYOND
        ));
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --bless",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(opts)
}

/// Peak resident set of this process (daemons included: they run in
/// it), from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a short-lived tool, or `unknown`.
fn tool_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the run records its provenance and spans, and where the serve
/// cluster keeps its per-cycle persistence directories.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn provenance(opts: &Opts, scale: &Scale) -> Json {
    let (workers, protocol) = if opts.workload == "serve_sweep" {
        (serve::BACKENDS as u64, scale.serve)
    } else {
        (1, scale.engine)
    };
    Json::obj()
        .field("workload", opts.workload.as_str())
        .field("seed", opts.seed)
        .field("seconds", opts.seconds)
        .field("trace", opts.trace)
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .field("commit", tool_output("git", &["rev-parse", "HEAD"]))
        .field("rustc", tool_output("rustc", &["-V"]))
        .field("warmup", protocol.warmup)
        .field("insts", protocol.insts)
        .field("worker_threads", workers)
        .field("client_threads", 1u64)
}

/// Run one workload at `scale` and fill in the run-wide metrics.
pub fn run_workload(opts: &Opts, scale: &Scale, reference: &Reference) -> Report {
    let mut report = match opts.workload.as_str() {
        "miss_bound" => engine::run(&points::miss_bound(), scale, reference, opts),
        "ilp_bound" => engine::run(&points::ilp_bound(), scale, reference, opts),
        _ => serve::run(scale, reference, opts, &work_dir()),
    };
    report.set("peak_rss_mb", peak_rss_mb());
    report.set(
        "success_rate",
        1.0 - stats::ratio(report.failed as f64, report.attempted as f64),
    );
    if let Some(t) = report.tracer.take() {
        report.set("trace.spans", t.spans.len() as f64);
        report.set("trace.span_cost_ns", span_cost_ns());
        let self_ns = t.self_ns();
        let total: u64 = self_ns.values().sum();
        report.note("self time by span (share of all traced time):".to_string());
        for (name, ns) in self_ns {
            report.note(format!(
                "  {name:<16} {:>6.1} %",
                100.0 * stats::ratio(ns as f64, total as f64)
            ));
        }
        report.tracer = Some(t);
    }
    report
}

/// Host cost of recording one span, measured on a scratch recorder.
fn span_cost_ns() -> f64 {
    const N: u64 = 100_000;
    let mut t = trace::Tracer::new();
    let start = Instant::now();
    for i in 0..N {
        let s = t.begin("probe", i, None);
        t.end(s);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// The result line: the metric set `trace` selects, each with its unit.
fn result_json(report: &Report, trace: bool) -> Json {
    let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::obj();
    for &(name, unit) in set {
        assert!(stats::valid_metric_name(name), "bad metric name {name:?}");
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
    }
    Json::obj()
        .field("correct", report.failed == 0 && report.attempted > 0)
        .field("attempted", report.attempted)
        .field("failed", report.failed)
        .field("metrics", metrics)
}

fn print_human(opts: &Opts, report: &Report, prov: &Json) {
    println!("provenance: {prov}");
    for e in &report.errors {
        println!("FAILED: {e}");
    }
    for n in &report.notes {
        println!("{n}");
    }
    let set: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in set {
        match report.metrics.get(name) {
            Some(v) => println!("{name:<32} {v:>14.4} {unit}"),
            None => println!("{name:<32} {:>14} {unit}", "n/a"),
        }
    }
    if !opts.trace {
        println!(
            "{:<32} {:>14.4} ratio ({} failed of {} attempted)",
            "error_rate",
            stats::ratio(report.failed as f64, report.attempted as f64),
            report.failed,
            report.attempted
        );
    }
}

/// Every fixed point's digest, recomputed.
fn bless() -> Reference {
    let scale = Scale::EVAL;
    let catalog = engine::catalog_of((scale.suite)());
    let mut reference = Reference::default();
    let mut record = |points: Vec<Point>, proto: points::Protocol| {
        for p in points {
            let r = engine::run_point(&catalog[p.kernel], &p, proto, proto.insts)
                .unwrap_or_else(|e| panic!("cannot bless: {e}"));
            reference.insert(
                key(proto.warmup, proto.insts, p.kernel, &p.spec),
                stats_digest(&r.stats),
            );
        }
    };
    record(points::miss_bound(), scale.engine);
    record(points::ilp_bound(), scale.engine);
    record(points::serve_grid(), scale.serve);
    reference
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--bless"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.txt");
        return match std::fs::write(&path, bless().render()) {
            Ok(()) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let reference = match Reference::parse(check::RECORDED) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: reference.txt: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = Scale::EVAL;
    let dir = work_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let prov = provenance(&opts, &scale);
    let report = run_workload(&opts, &scale, &reference);
    print_human(&opts, &report, &prov);
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let result = result_json(&report, opts.trace);
    let record = Json::obj()
        .field("provenance", prov)
        .field("result", result.clone());
    if let Err(e) = std::fs::write(dir.join(format!("{stem}.json")), record.pretty()) {
        eprintln!("warning: cannot record the result: {e}");
    }
    if let Some(t) = &report.tracer {
        if let Err(e) = t.write(&dir.join(format!("{stem}.spans.ndjson"))) {
            eprintln!("warning: cannot write spans: {e}");
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_metric_name(name), "bad metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (field, set) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(field)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = set
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{field}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv(
            "--workload miss_bound --seed 1 --seconds 5 --trace 0"
        ))
        .is_ok());
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload miss_bound --seed x --seconds 5 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload miss_bound --seed 1 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload miss_bound --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload miss_bound --seed")).is_err());
    }

    /// Tiny-suite smoke of each workload, traced and untraced, against a
    /// reference recorded on the spot.
    fn smoke(workload: &str) {
        let scale = Scale::TINY;
        let catalog = engine::catalog_of((scale.suite)());
        let (grid, proto) = match workload {
            "miss_bound" => (points::miss_bound(), scale.engine),
            "ilp_bound" => (points::ilp_bound(), scale.engine),
            _ => (points::serve_grid(), scale.serve),
        };
        let mut reference = Reference::default();
        for p in &grid {
            let r = engine::run_point(&catalog[p.kernel], p, proto, proto.insts).unwrap();
            reference.insert(
                key(proto.warmup, proto.insts, p.kernel, &p.spec),
                stats_digest(&r.stats),
            );
        }
        for trace in [false, true] {
            let opts = Opts {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.2,
                trace,
            };
            let report = if workload == "serve_sweep" {
                let dir = work_dir().join(format!("smoke-{}", std::process::id()));
                let r = serve::run(&scale, &reference, &opts, &dir);
                let _ = std::fs::remove_dir_all(&dir);
                r
            } else {
                engine::run(&grid, &scale, &reference, &opts)
            };
            assert_eq!(report.failed, 0, "{workload}: {:?}", report.errors);
            assert!(report.attempted >= grid.len() as u64);
            let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, _) in set {
                // Set by run_workload, or not run by this workload.
                let elsewhere = name.starts_with("trace.span")
                    || matches!(*name, "peak_rss_mb" | "success_rate")
                    || (name.starts_with("serve.") && workload != "serve_sweep");
                if !elsewhere {
                    assert!(report.metrics.contains_key(name), "{workload}: no {name}");
                }
            }
            let json = result_json(&report, trace);
            assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        }
    }

    #[test]
    fn smoke_miss_bound() {
        smoke("miss_bound");
    }

    #[test]
    fn smoke_ilp_bound() {
        smoke("ilp_bound");
    }

    #[test]
    fn smoke_serve_sweep() {
        smoke("serve_sweep");
    }

    /// Known engine defect: when the warm-up runs past the program's
    /// `halt`, the detailed run fetches beyond it and the co-simulation
    /// check panics instead of reporting a halted run. Tiny `perimeter`
    /// halts after 1748 instructions.
    #[test]
    #[ignore = "engine defect: run_program_warmed panics when the warm-up passes halt"]
    fn warm_up_past_halt_reports_a_halted_run() {
        let w = (Scale::TINY.kernel)("perimeter").expect("perimeter");
        let p = &points::miss_bound()[4];
        assert_eq!(p.kernel, "perimeter");
        let proto = points::Protocol {
            warmup: 2_000,
            insts: 1_000,
        };
        let r = engine::run_point(&w, p, proto, proto.insts).expect("no panic");
        assert!(r.halted);
    }

    #[test]
    fn a_wrong_reference_fails_the_run() {
        let scale = Scale::TINY;
        let opts = Opts {
            workload: "ilp_bound".to_string(),
            seed: 1,
            seconds: 0.01,
            trace: false,
        };
        let report = engine::run(&points::ilp_bound(), &scale, &Reference::default(), &opts);
        assert_eq!(report.failed, report.attempted);
        assert_eq!(
            result_json(&report, false)
                .get("correct")
                .and_then(Json::as_bool),
            Some(false)
        );
    }
}
