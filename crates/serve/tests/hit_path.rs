//! The cache-hit fast path, end to end over loopback sockets.
//!
//! * a hit is answered on the daemon's connection thread: the same
//!   `queued` → `running` → `span` → `done` events as a worker would
//!   emit, a span whose stages telescope to its total, and no journal
//!   record;
//! * watchers see inline hits like any other job;
//! * `completed` and the cache's `hits`/`misses` count every job once,
//!   whichever path served it;
//! * the coordinator's pooled backend connections survive a backend
//!   restarted on the same address without declaring a node death;
//! * every serve socket is no-delay: sequential hits over one reused
//!   connection do not stall on Nagle's algorithm.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wib_core::{Exposition, Json, MachineConfig};
use wib_serve::client;
use wib_serve::coord::{self, CoordOptions};
use wib_serve::server::{self, build_catalog, compute_result};
use wib_serve::{JobRequest, JobStatus, ServerOptions};

const INSTS: u64 = 20_000;
const WARMUP: u64 = 2_000;

fn daemon(addr: &str, workers: usize, results_dir: Option<PathBuf>) -> server::ServerHandle {
    server::spawn(ServerOptions {
        addr: addr.to_string(),
        workers,
        queue_capacity: 16,
        tiny: true,
        results_dir,
        default_insts: INSTS,
        default_warmup: WARMUP,
        quiet: true,
        faults: Some(String::new()),
        watchdog_ms: None,
        ..ServerOptions::default()
    })
    .expect("bind loopback")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wib_hit_path_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(workload: &str, spec: &str) -> JobRequest {
    JobRequest {
        workload: workload.to_string(),
        spec: spec.to_string(),
        insts: None,
        warmup: None,
        deadline_ms: None,
    }
}

/// Submit `jobs` on a fresh connection; every one must finish.
fn run(addr: &str, jobs: &[JobRequest]) -> Vec<(bool, Json)> {
    client::submit(addr, jobs, None, None, None, false)
        .expect("submit")
        .into_iter()
        .map(|o| match o.status {
            JobStatus::Done { cached, result } => (cached, result),
            other => panic!("{} did not finish: {other:?}", o.workload),
        })
        .collect()
}

const GZIP_BASE: &str = r#"{"op":"submit","jobs":[{"workload":"gzip","spec":"base"}]}"#;

/// A raw NDJSON connection, for tests that need every event line.
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn open(addr: &str) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Raw { stream, reader }
    }

    /// Send one request line in a single write.
    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn event(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read event");
        Json::parse(line.trim()).expect("event is JSON")
    }

    /// Events up to and including the first `done`.
    fn until_done(&mut self) -> Vec<Json> {
        let mut events = Vec::new();
        loop {
            let ev = self.event();
            let done = kind(&ev) == "done";
            events.push(ev);
            if done {
                return events;
            }
        }
    }
}

fn kind(ev: &Json) -> &str {
    ev.get("event").and_then(Json::as_str).unwrap_or("")
}

fn num(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// The `(stage, us)` pairs of a span event, checked to sum to its total.
fn telescoping_stages(span: &Json) -> Vec<(String, u64)> {
    let stages: Vec<(String, u64)> = span
        .get("stages")
        .and_then(Json::as_arr)
        .expect("span carries stages")
        .iter()
        .map(|s| {
            (
                s.get("stage").and_then(Json::as_str).unwrap().to_string(),
                num(s, "us"),
            )
        })
        .collect();
    let sum: u64 = stages.iter().map(|(_, us)| us).sum();
    assert_eq!(sum, num(span, "total_us"), "stages must telescope: {span}");
    stages
}

fn journal_lines(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(dir.join("journal/journal.ndjson"))
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn an_inline_hit_emits_the_worker_events_and_writes_no_journal_record() {
    let dir = scratch_dir("journal");
    let handle = daemon("127.0.0.1:0", 1, Some(dir.clone()));
    let addr = handle.addr().to_string();
    let first = run(&addr, &[job("gzip", "base")]);
    assert!(!first[0].0, "the first submission simulates");
    // The worker journals `finished` just after the `done` event.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !journal_lines(&dir)
        .iter()
        .any(|l| l.contains("\"finished\""))
    {
        assert!(
            Instant::now() < deadline,
            "the miss was never journaled finished"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let journal_before = journal_lines(&dir);
    assert_eq!(
        journal_before
            .iter()
            .filter(|l| l.contains("\"accepted\""))
            .count(),
        1,
        "the miss was journaled: {journal_before:?}"
    );

    let mut raw = Raw::open(&addr);
    raw.send(GZIP_BASE);
    let events = raw.until_done();
    let kinds: Vec<&str> = events.iter().map(kind).collect();
    assert_eq!(kinds, ["queued", "running", "span", "done"]);
    let id = num(&events[0], "job");
    assert!(events.iter().all(|e| num(e, "job") == id));
    assert_eq!(
        events[2].get("span").and_then(Json::as_str),
        events[0].get("span").and_then(Json::as_str),
        "the span record carries the id minted at submit"
    );
    assert_eq!(
        events[2].get("outcome").and_then(Json::as_str),
        Some("done")
    );
    let stages = telescoping_stages(&events[2]);
    let names: Vec<&str> = stages.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["queue", "cache", "finish"]);
    assert_eq!(stages[0].1, 0, "an inline hit never waits in the queue");
    assert_eq!(events[3].get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        events[3].get("result").map(Json::to_string),
        Some(first[0].1.to_string()),
        "a hit returns the stored bytes"
    );

    assert_eq!(
        journal_lines(&dir),
        journal_before,
        "an inline hit appends nothing to the journal"
    );
    // Nothing entered the job table, so `cancel` does not know the id.
    raw.send(&format!(r#"{{"op":"cancel","job":{id}}}"#));
    let reply = raw.event();
    assert_eq!(reply.get("state").and_then(Json::as_str), Some("unknown"));

    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_watcher_receives_an_inline_hits_events() {
    let handle = daemon("127.0.0.1:0", 1, None);
    let addr = handle.addr().to_string();
    run(&addr, &[job("gzip", "base")]);

    let mut watcher = Raw::open(&addr);
    watcher.send(r#"{"op":"watch"}"#);
    assert_eq!(kind(&watcher.event()), "watching");
    let hit = run(&addr, &[job("gzip", "base")]);
    assert!(hit[0].0, "the resubmission is a hit");

    let events = watcher.until_done();
    let kinds: Vec<&str> = events.iter().map(kind).collect();
    assert_eq!(kinds, ["queued", "running", "span", "done"]);
    telescoping_stages(&events[2]);
    assert_eq!(events[3].get("cached").and_then(Json::as_bool), Some(true));

    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}

#[test]
fn every_job_is_counted_once_whichever_path_serves_it() {
    let handle = daemon("127.0.0.1:0", 1, None);
    let addr = handle.addr().to_string();
    let x = job("gzip", "base");
    // A miss, a hit, then a batch holding the cached digest twice: all
    // three later jobs are inline hits.
    assert!(!run(&addr, std::slice::from_ref(&x))[0].0);
    assert!(run(&addr, std::slice::from_ref(&x))[0].0);
    let twice = run(&addr, &[x.clone(), x]);
    assert!(twice.iter().all(|(cached, _)| *cached));
    // A fresh digest twice in one batch: the first simulates, the second
    // is served from the cache however the race with the worker goes.
    let y = job("mst", "base");
    let fresh = run(&addr, &[y.clone(), y]);
    assert_eq!(
        fresh.iter().map(|(cached, _)| *cached).collect::<Vec<_>>(),
        [false, true]
    );

    let stats = client::stats(&addr).expect("stats");
    assert_eq!(num(&stats, "submitted"), 6);
    assert_eq!(num(&stats, "completed"), 6);
    let cache = stats.get("cache").unwrap();
    assert_eq!((num(cache, "hits"), num(cache, "misses")), (4, 2));
    let exp = Exposition::parse(&client::metrics(&addr).expect("metrics"));
    let count = |name: &str| exp.histogram(name).map(|h| h.count);
    assert_eq!(count("wib_serve_queue_wait_us"), Some(6));
    assert_eq!(count("wib_serve_cache_hit_us"), Some(4));
    assert_eq!(count("wib_serve_run_us"), Some(2));

    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}

#[test]
fn a_pooled_coordinator_survives_a_backend_restarted_on_the_same_address() {
    let backend = daemon("127.0.0.1:0", 1, None);
    let backend_addr = backend.addr().to_string();
    let ch = coord::spawn(CoordOptions {
        backends: vec![backend_addr.clone()],
        tiny: true,
        default_insts: INSTS,
        default_warmup: WARMUP,
        quiet: true,
        ..CoordOptions::default()
    })
    .expect("bind coordinator");
    let coord_addr = ch.addr().to_string();
    let x = job("gzip", "base");
    let first = run(&coord_addr, std::slice::from_ref(&x));
    assert!(
        run(&coord_addr, std::slice::from_ref(&x))[0].0,
        "a hit, forwarded on the pooled connection"
    );

    // The coordinator now holds an idle connection to a process that is
    // about to go away; a new one takes over the same address.
    backend.shutdown(false);
    backend.join();
    let backend = daemon(&backend_addr, 1, None);
    let again = run(&coord_addr, &[x]);
    assert_eq!(again[0].1.to_string(), first[0].1.to_string());
    let catalog = build_catalog(true);
    let cfg = MachineConfig::from_spec("base").unwrap();
    let local = compute_result(&catalog["gzip"], &cfg, INSTS, WARMUP, "tiny");
    assert_eq!(again[0].1.to_string(), local.to_string());

    let stats = client::stats(&coord_addr).expect("coordinator stats");
    assert_eq!(num(&stats, "node_deaths"), 0, "{stats}");
    assert_eq!(num(&stats, "completed"), 3);

    client::shutdown(&coord_addr, true).expect("cluster shutdown");
    backend.join();
    ch.join();
}

#[test]
fn sequential_hits_on_one_reused_connection_do_not_stall() {
    let handle = daemon("127.0.0.1:0", 1, None);
    let addr = handle.addr().to_string();
    run(&addr, &[job("gzip", "base")]);

    let mut raw = Raw::open(&addr);
    let mut ms = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        raw.send(GZIP_BASE);
        let events = raw.until_done();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            events.last().and_then(|e| e.get("cached")),
            Some(&Json::Bool(true))
        );
    }
    ms.sort_by(f64::total_cmp);
    // Nagle's algorithm plus the peer's delayed ACK holds each request's
    // later events back by about 40 ms.
    let median = ms[ms.len() / 2];
    assert!(median < 20.0, "median hit {median:.2} ms: {ms:?}");

    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}
