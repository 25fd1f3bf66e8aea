//! Finished connection threads are joined while the daemon runs.
//!
//! An exited thread that is never joined keeps its stack, so joining
//! connection threads only at shutdown would grow the daemon with every
//! connection it serves. Resident memory is process-wide, so this test
//! has a binary of its own.

#![cfg(target_os = "linux")]

use wib_serve::client;
use wib_serve::server;
use wib_serve::ServerOptions;

/// `VmRSS` of this process in kB.
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[test]
fn thousands_of_connections_do_not_grow_resident_memory() {
    let handle = server::spawn(ServerOptions {
        workers: 1,
        tiny: true,
        results_dir: None,
        quiet: true,
        faults: Some(String::new()),
        watchdog_ms: None,
        ..ServerOptions::default()
    })
    .expect("bind loopback");
    let addr = handle.addr().to_string();
    // Warm up allocator arenas and thread-stack caches first.
    for _ in 0..200 {
        client::ping(&addr).expect("ping");
    }
    let before = rss_kb();
    for _ in 0..2000 {
        client::ping(&addr).expect("ping");
    }
    let grown_kb = rss_kb().saturating_sub(before);
    assert!(
        grown_kb < 8 * 1024,
        "2000 pings grew VmRSS by {grown_kb} kB"
    );
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}
