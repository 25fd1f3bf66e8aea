#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network access and
# no tools beyond the baked-in Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."
echo "== build (release, all crates) =="
cargo build --release --workspace --offline
echo "== tests =="
cargo test -q --workspace --offline
echo "== formatting =="
cargo fmt --all --check
echo "== machine-check tests (release, checked feature) =="
# The per-cycle invariant checkers and ownership census run on every test
# in the suite. Release mode keeps the checked run's wall clock sane (the
# checkers cost ~an order of magnitude in debug).
cargo test -q --release --workspace --offline --features checked
echo "== fuzz smoke (fixed seeds, differential oracles) =="
# A fixed-seed slice of the differential fuzzer: random programs x random
# configs under co-sim + machine checks + fast-forward and cross-config
# differentials. Failures are shrunk and land in tests/repros/ (commit
# them with the fix). ~30 s.
cargo run -q --release --offline -p wib-bench --bin fuzz -- --cases 120 --seed 1
echo "== serve smoke (loopback daemon, byte-identity vs local run) =="
# Start a daemon on an ephemeral loopback port, push a 3-point mini-sweep
# through it, and require the streamed results to be byte-identical to
# the same jobs run in-process (--local). Also checks the second
# submission is served entirely from the content-addressed cache and
# that a drain shutdown exits cleanly (no leaked threads would mean no
# exit at all).
serve_dir=$(mktemp -d)
port_file="$serve_dir/port"
WIB_RESULTS_DIR="$serve_dir/cachedir" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$port_file" --tiny --workers 2 --quiet &
serve_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.1
done
[[ -s "$port_file" ]] || { echo "  FAIL: daemon never wrote its port file"; exit 1; }
addr=$(cat "$port_file")
sweep=(gzip:base em3d:wib:w=256 mst:conv:iq=64)
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${sweep[@]}" \
    --addr "$addr" --insts 20000 --warmup 2000 --out "$serve_dir/remote"
resubmit=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- \
    submit "${sweep[@]}" --addr "$addr" --insts 20000 --warmup 2000)
hits=$(grep -c '(cached)' <<<"$resubmit" || true)
if [[ "$hits" -ne 3 ]]; then
    echo "  FAIL: resubmitted sweep expected 3 cache hits, saw $hits"
    echo "$resubmit"
    exit 1
fi
cargo run -q --release --offline -p wib-cli --bin wib-sim -- shutdown --addr "$addr" > /dev/null
wait "$serve_pid"
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${sweep[@]}" \
    --local --tiny --insts 20000 --warmup 2000 --out "$serve_dir/local"
diff -r "$serve_dir/remote" "$serve_dir/local"
echo "  ok (3-point sweep byte-identical, cache served the resubmit, clean drain)"
rm -rf "$serve_dir"

echo "== backend matrix smoke (all four backend= machines through one daemon) =="
# One sweep requesting every latency-tolerance backend (docs/backends.md)
# on two miss-heavy workloads, pushed through a daemon and required to be
# byte-identical to the same jobs run in-process: the backend axis must
# survive the spec round trip through the serve protocol, the result
# cache, and the JSON stream.
matrix_dir=$(mktemp -d)
matrix_port="$matrix_dir/port"
WIB_RESULTS_DIR="$matrix_dir/cachedir" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$matrix_port" --tiny --workers 2 --quiet &
matrix_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$matrix_port" ]] && break
    sleep 0.1
done
[[ -s "$matrix_port" ]] || { echo "  FAIL: backend-matrix daemon never wrote its port file"; exit 1; }
matrix_addr=$(cat "$matrix_port")
matrix=()
for bench in em3d mst; do
    for spec in base "wib:w=256" "base,backend=runahead" "wib:w=256,backend=delay_track"; do
        matrix+=("$bench:$spec")
    done
done
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${matrix[@]}" \
    --addr "$matrix_addr" --insts 20000 --warmup 2000 --out "$matrix_dir/remote"
cargo run -q --release --offline -p wib-cli --bin wib-sim -- shutdown --addr "$matrix_addr" > /dev/null
wait "$matrix_pid"
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${matrix[@]}" \
    --local --tiny --insts 20000 --warmup 2000 --out "$matrix_dir/local"
diff -r "$matrix_dir/remote" "$matrix_dir/local"
echo "  ok (4 backends x 2 workloads, daemon bytes identical to --local)"
rm -rf "$matrix_dir"

echo "== metrics smoke (scrape exposition, assert families and sane values) =="
# Telemetry end to end: a daemon, a 2-point sweep submitted twice (so the
# cache sees hits), then a `metrics` scrape. The Prometheus exposition
# must carry the core families with values that match what just
# happened, and the live `top --plain` view must render from the same
# scrape without a terminal.
met_val() { grep -E "^$1 " <<<"$2" | head -1 | awk '{print $2}'; }
metrics_dir=$(mktemp -d)
metrics_port="$metrics_dir/port"
WIB_RESULTS_DIR="$metrics_dir/results" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$metrics_port" --tiny --workers 2 --quiet &
metrics_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$metrics_port" ]] && break
    sleep 0.1
done
[[ -s "$metrics_port" ]] || { echo "  FAIL: metrics daemon never wrote its port file"; exit 1; }
maddr=$(cat "$metrics_port")
pair=(gzip:base mst:base)
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${pair[@]}" \
    --addr "$maddr" --insts 20000 --warmup 2000 > /dev/null
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${pair[@]}" \
    --addr "$maddr" --insts 20000 --warmup 2000 > /dev/null
scrape=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- metrics --addr "$maddr")
for family in wib_serve_queue_depth wib_serve_jobs_completed_total \
    wib_serve_cache_hits_total wib_serve_job_panics_total \
    wib_serve_queue_wait_us wib_serve_run_us wib_engine_stage_ns_total; do
    if ! grep -q "^# TYPE $family " <<<"$scrape"; then
        echo "  FAIL: exposition is missing family $family"
        echo "$scrape"
        exit 1
    fi
done
for want in wib_serve_jobs_submitted_total:4 wib_serve_jobs_completed_total:4 \
    wib_serve_cache_hits_total:2 wib_serve_cache_misses_total:2 \
    wib_serve_job_panics_total:0 wib_serve_queue_wait_us_count:4 \
    wib_serve_run_us_count:2 wib_serve_queue_depth:0; do
    name=${want%:*} expect=${want#*:}
    got=$(met_val "$name" "$scrape")
    if [[ "$got" != "$expect" ]]; then
        echo "  FAIL: metric $name = '$got', expected $expect"
        echo "$scrape"
        exit 1
    fi
done
topview=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- top \
    --addr "$maddr" --plain --iters 1)
grep -q "cache   50.0% hit (2/4)" <<<"$topview" || {
    echo "  FAIL: top view did not show the 50% cache hit rate"
    echo "$topview"
    exit 1
}
cargo run -q --release --offline -p wib-cli --bin wib-sim -- shutdown --addr "$maddr" > /dev/null
wait "$metrics_pid"
echo "  ok (7 families present, counters exact, top rendered the scrape)"
rm -rf "$metrics_dir"

echo "== chaos smoke (injected worker panic, forced shed, torn cache write) =="
# Same 3-point sweep, but against a daemon with a fixed fault plan armed:
# the first enqueue is force-shed (client must retry after the backoff
# hint), the first simulation panics (that one job must come back as a
# structured error, pool intact), and the first cache persist tears
# mid-temp-file (job still succeeds; the torn temp must be scavenged on
# restart). After a clean retry pass the results must still be
# byte-identical to --local.
chaos_stat() { grep -oE "\"$1\": [0-9]+" <<<"$2" | head -1 | tr -dc '0-9'; }
chaos_dir=$(mktemp -d)
chaos_port="$chaos_dir/port"
WIB_FAULTS="seed=7,panic=1,tear=1,shed=1" WIB_RESULTS_DIR="$chaos_dir/results" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$chaos_port" --tiny --workers 2 --quiet &
chaos_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$chaos_port" ]] && break
    sleep 0.1
done
[[ -s "$chaos_port" ]] || { echo "  FAIL: chaos daemon never wrote its port file"; exit 1; }
caddr=$(cat "$chaos_port")
# Pass 1 absorbs the faults: exactly one job errors out with the
# injected panic (nonzero exit is expected), the shed is retried
# transparently, the tear is invisible to the client.
first=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- \
    submit "${sweep[@]}" --addr "$caddr" --insts 20000 --warmup 2000 || true)
if [[ "$(grep -c 'ERROR: .*panic' <<<"$first" || true)" -ne 1 ]]; then
    echo "  FAIL: expected exactly one panicked job in pass 1"
    echo "$first"
    exit 1
fi
stats=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- stats --addr "$caddr")
for want in panicked:1 shed:1 persist_failures:1 worker_restarts:0; do
    key=${want%:*} expect=${want#*:}
    got=$(chaos_stat "$key" "$stats")
    if [[ "$got" != "$expect" ]]; then
        echo "  FAIL: stats $key = $got, expected $expect"
        echo "$stats"
        exit 1
    fi
done
# Pass 2 runs fault-free (the plan is exhausted): every job completes,
# and the stream must be byte-identical to the same sweep in-process.
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${sweep[@]}" \
    --addr "$caddr" --insts 20000 --warmup 2000 --out "$chaos_dir/remote"
cargo run -q --release --offline -p wib-cli --bin wib-sim -- shutdown --addr "$caddr" > /dev/null
wait "$chaos_pid"
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${sweep[@]}" \
    --local --tiny --insts 20000 --warmup 2000 --out "$chaos_dir/local"
diff -r "$chaos_dir/remote" "$chaos_dir/local"
# Restart on the same results dir: the torn temp from pass 1 must be
# scavenged, no temp files may remain, and the two entries that were
# committed cleanly must be served from disk.
: > "$chaos_port"
WIB_RESULTS_DIR="$chaos_dir/results" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$chaos_port" --tiny --workers 2 --quiet &
chaos_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$chaos_port" ]] && break
    sleep 0.1
done
[[ -s "$chaos_port" ]] || { echo "  FAIL: restarted daemon never wrote its port file"; exit 1; }
caddr=$(cat "$chaos_port")
stats=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- stats --addr "$caddr")
if [[ "$(chaos_stat scavenged "$stats")" != "1" ]]; then
    echo "  FAIL: restart expected to scavenge exactly the one torn temp"
    echo "$stats"
    exit 1
fi
if compgen -G "$chaos_dir/results/cache/*.tmp" > /dev/null; then
    echo "  FAIL: temp files survived the restart scavenge"
    exit 1
fi
third=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- \
    submit "${sweep[@]}" --addr "$caddr" --insts 20000 --warmup 2000)
if [[ "$(grep -c '(cached)' <<<"$third" || true)" -ne 2 ]]; then
    echo "  FAIL: expected the 2 cleanly-committed entries to hit from disk"
    echo "$third"
    exit 1
fi
cargo run -q --release --offline -p wib-cli --bin wib-sim -- shutdown --addr "$caddr" > /dev/null
wait "$chaos_pid"
echo "  ok (panic isolated, shed retried, torn write scavenged, bytes identical)"
rm -rf "$chaos_dir"

echo "== cluster smoke (coordinator, 2 backends, node death mid-sweep) =="
# The distributed path end to end: two backend daemons behind a
# coordinator, a 3-point sweep routed by consistent hash, then one
# backend is killed outright and the same sweep must still complete —
# the coordinator marks the node dead, shrinks the ring, and re-routes
# its jobs to the survivor. Both passes must be byte-identical to
# --local, and cluster_stats must record exactly one node death.
cluster_dir=$(mktemp -d)
b1_port="$cluster_dir/b1.port"; b2_port="$cluster_dir/b2.port"
coord_port="$cluster_dir/coord.port"
WIB_RESULTS_DIR="$cluster_dir/r1" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$b1_port" --tiny --workers 2 --quiet &
b1_pid=$!
WIB_RESULTS_DIR="$cluster_dir/r2" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$b2_port" --tiny --workers 2 --quiet &
b2_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$b1_port" && -s "$b2_port" ]] && break
    sleep 0.1
done
[[ -s "$b1_port" && -s "$b2_port" ]] || { echo "  FAIL: backends never wrote port files"; exit 1; }
b1=$(cat "$b1_port"); b2=$(cat "$b2_port")
cargo run -q --release --offline -p wib-cli --bin wib-sim -- coord \
    --backends "$b1,$b2" --tiny --addr 127.0.0.1:0 --port-file "$coord_port" --quiet &
coord_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$coord_port" ]] && break
    sleep 0.1
done
[[ -s "$coord_port" ]] || { echo "  FAIL: coordinator never wrote its port file"; exit 1; }
coord=$(cat "$coord_port")
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${sweep[@]}" \
    --coord "$coord" --insts 20000 --warmup 2000 --out "$cluster_dir/remote1"
# Kill whichever backend actually computed something (its cache is
# non-empty), so the re-routed pass genuinely changes owners.
if compgen -G "$cluster_dir/r2/cache/*.json" > /dev/null; then
    victim_pid=$b2_pid
else
    victim_pid=$b1_pid
fi
kill -9 "$victim_pid"
wait "$victim_pid" || true
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${sweep[@]}" \
    --coord "$coord" --insts 20000 --warmup 2000 --out "$cluster_dir/remote2"
cstats=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- stats --coord "$coord")
if [[ "$(chaos_stat node_deaths "$cstats")" != "1" ]]; then
    echo "  FAIL: cluster_stats expected exactly one node death"
    echo "$cstats"
    exit 1
fi
alive=$(grep -c '"alive": true' <<<"$cstats" || true)
if [[ "$alive" -ne 1 ]]; then
    echo "  FAIL: expected exactly one live backend after the kill, saw $alive"
    echo "$cstats"
    exit 1
fi
# Draining the coordinator drains the surviving backend too.
cargo run -q --release --offline -p wib-cli --bin wib-sim -- shutdown --coord "$coord" > /dev/null
wait "$coord_pid"
if [[ "$victim_pid" == "$b1_pid" ]]; then wait "$b2_pid"; else wait "$b1_pid"; fi
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${sweep[@]}" \
    --local --tiny --insts 20000 --warmup 2000 --out "$cluster_dir/local"
diff -r "$cluster_dir/remote1" "$cluster_dir/local"
diff -r "$cluster_dir/remote2" "$cluster_dir/local"
echo "  ok (routed sweep byte-identical, node death re-routed, clean cluster drain)"
rm -rf "$cluster_dir"

echo "== die-fault smoke (WIB_FAULTS=die kills the daemon process) =="
# The whole-node death fault used by the cluster tests: a daemon armed
# with die=1 must abort on its first simulation execution, failing the
# client and exiting with a crash status.
die_dir=$(mktemp -d)
die_port="$die_dir/port"
WIB_FAULTS="die=1" WIB_RESULTS_DIR="$die_dir/results" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$die_port" --tiny --workers 2 --quiet &
die_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$die_port" ]] && break
    sleep 0.1
done
[[ -s "$die_port" ]] || { echo "  FAIL: die-fault daemon never wrote its port file"; exit 1; }
daddr=$(cat "$die_port")
if cargo run -q --release --offline -p wib-cli --bin wib-sim -- \
    submit gzip:base --addr "$daddr" --insts 20000 --warmup 2000 > /dev/null 2>&1; then
    echo "  FAIL: submit against a dying daemon should not succeed"
    exit 1
fi
if wait "$die_pid"; then
    echo "  FAIL: die=1 daemon exited cleanly instead of aborting"
    exit 1
fi
echo "  ok (daemon aborted on the armed execution, client saw the failure)"
rm -rf "$die_dir"

echo "== crash-recovery smoke (kill -9 a backend, automatic rejoin, zero lost jobs) =="
# The self-healing fabric end to end: two journaled backends behind a
# supervised coordinator. One backend is killed -9 while a sweep is in
# flight — the coordinator re-routes its jobs so the client loses
# nothing; the backend then restarts on the *same* address and results
# dir, and the supervisor's revival probe must put it back on the ring
# with no operator action. Every pass stays byte-identical to --local
# (diff -r also proves zero lost jobs: a missing result file would show
# up as "Only in local").
heal_dir=$(mktemp -d)
hb1_port="$heal_dir/b1.port"; hb2_port="$heal_dir/b2.port"
heal_port="$heal_dir/coord.port"
WIB_RESULTS_DIR="$heal_dir/r1" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$hb1_port" --tiny --workers 2 --quiet &
hb1_pid=$!
WIB_RESULTS_DIR="$heal_dir/r2" \
    cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
    --addr 127.0.0.1:0 --port-file "$hb2_port" --tiny --workers 2 --quiet &
hb2_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$hb1_port" && -s "$hb2_port" ]] && break
    sleep 0.1
done
[[ -s "$hb1_port" && -s "$hb2_port" ]] || { echo "  FAIL: backends never wrote port files"; exit 1; }
hb1=$(cat "$hb1_port"); hb2=$(cat "$hb2_port")
cargo run -q --release --offline -p wib-cli --bin wib-sim -- coord \
    --backends "$hb1,$hb2" --tiny --addr 127.0.0.1:0 --port-file "$heal_port" \
    --supervise-ms 200 --quiet &
heal_coord_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$heal_port" ]] && break
    sleep 0.1
done
[[ -s "$heal_port" ]] || { echo "  FAIL: supervised coordinator never wrote its port file"; exit 1; }
hcoord=$(cat "$heal_port")
# An 8-point sweep in the background; kill -9 one backend while it runs.
wide=(gzip:base "gzip:wib:w=128" "gzip:wib:w=256" em3d:base "em3d:wib:w=256" \
    mst:base "mst:conv:iq=64" "mst:wib:w=512")
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${wide[@]}" \
    --coord "$hcoord" --insts 20000 --warmup 2000 --out "$heal_dir/remote1" &
heal_sweep_pid=$!
sleep 1
kill -9 "$hb2_pid"
wait "$hb2_pid" || true
# Zero lost jobs: the in-flight sweep still completes every point.
wait "$heal_sweep_pid" || { echo "  FAIL: sweep did not survive the backend kill"; exit 1; }
if [[ "$(find "$heal_dir/remote1" -type f | wc -l)" -ne 8 ]]; then
    echo "  FAIL: expected 8 result files after the kill"
    ls "$heal_dir/remote1"
    exit 1
fi
# The death is detected either on the submit path (kill landed
# mid-sweep) or by accumulating stats-probe strikes up to the
# K-consecutive-failure threshold — each cluster-view poll below is a
# probe pass against the dead address.
deaths=""
for _ in $(seq 1 20); do
    hstats=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- stats --coord "$hcoord")
    deaths=$(chaos_stat node_deaths "$hstats")
    [[ "$deaths" == "1" ]] && break
    sleep 0.2
done
if [[ "$deaths" != "1" ]]; then
    echo "  FAIL: the killed backend was never declared dead"
    echo "$hstats"
    exit 1
fi
# Restart the victim on the same address and results dir. The old
# socket can linger in TIME_WAIT, so retry the bind a few times.
hb2_pid=""
for _ in $(seq 1 10); do
    : > "$hb2_port"
    WIB_RESULTS_DIR="$heal_dir/r2" \
        cargo run -q --release --offline -p wib-cli --bin wib-sim -- serve \
        --addr "$hb2" --port-file "$hb2_port" --tiny --workers 2 --quiet &
    hb2_pid=$!
    for _ in $(seq 1 50); do
        [[ -s "$hb2_port" ]] && break
        kill -0 "$hb2_pid" 2>/dev/null || break
        sleep 0.1
    done
    [[ -s "$hb2_port" ]] && break
    wait "$hb2_pid" || true
    sleep 0.5
done
[[ -s "$hb2_port" ]] || { echo "  FAIL: victim backend could not rebind $hb2"; exit 1; }
# The supervisor must revive it automatically (revival probes back off
# exponentially, so give the rejoin a generous window).
rejoins=""
for _ in $(seq 1 120); do
    hstats=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- stats --coord "$hcoord")
    rejoins=$(chaos_stat node_rejoins "$hstats")
    alive=$(grep -c '"alive": true' <<<"$hstats" || true)
    [[ "$rejoins" == "1" && "$alive" -eq 2 ]] && break
    sleep 0.5
done
if [[ "$rejoins" != "1" || "$alive" -ne 2 ]]; then
    echo "  FAIL: the restarted backend never rejoined the ring"
    echo "$hstats"
    exit 1
fi
# The healed ring serves the same sweep byte-identically.
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${wide[@]}" \
    --coord "$hcoord" --insts 20000 --warmup 2000 --out "$heal_dir/remote2"
# A forwarding connection pooled before the kill must be retried on a
# fresh one, never counted as a second death of the restarted node.
hstats=$(cargo run -q --release --offline -p wib-cli --bin wib-sim -- stats --coord "$hcoord")
if [[ "$(chaos_stat node_deaths "$hstats")" != "1" ]]; then
    echo "  FAIL: the healed-ring pass declared another node death"
    echo "$hstats"
    exit 1
fi
cargo run -q --release --offline -p wib-cli --bin wib-sim -- shutdown --coord "$hcoord" > /dev/null
wait "$heal_coord_pid"
wait "$hb1_pid"
wait "$hb2_pid"
cargo run -q --release --offline -p wib-cli --bin wib-sim -- submit "${wide[@]}" \
    --local --tiny --insts 20000 --warmup 2000 --out "$heal_dir/local"
diff -r "$heal_dir/remote1" "$heal_dir/local"
diff -r "$heal_dir/remote2" "$heal_dir/local"
echo "  ok (kill -9 absorbed, zero lost jobs, automatic rejoin, bytes identical)"
rm -rf "$heal_dir"

echo "== bench smoke (quick workload, vs committed baseline) =="
# Reduced-workload throughput check: rerun bench_json in WIB_QUICK mode
# and fail if aggregate simulator throughput fell below 0.6x the
# committed results/BENCH_wib.json baseline. The loose factor is
# deliberate: single-CPU CI boxes show +/-50% wall-clock noise run to
# run, so this catches real (2x+) regressions, not drift. Noisy machines
# can be waived entirely with WIB_SKIP_BENCH_SMOKE=1; re-bless the
# baseline by copying the fresh file over the committed one after an
# intentional change (use the *minimum* of a few runs).
if [[ "${WIB_SKIP_BENCH_SMOKE:-0}" == "1" ]]; then
    echo "  skipped (WIB_SKIP_BENCH_SMOKE=1)"
else
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    WIB_QUICK=1 WIB_THREADS=1 WIB_RESULTS_DIR="$smoke_dir" \
        cargo run -q --release --offline -p wib-bench --bin bench_json
    baseline=$(grep -m1 '"sim_minsts_per_s"' results/BENCH_wib.json | tr -dc '0-9.')
    fresh=$(grep -m1 '"sim_minsts_per_s"' "$smoke_dir/BENCH_wib.json" | tr -dc '0-9.')
    echo "  baseline ${baseline} Minsts/s, fresh ${fresh} Minsts/s"
    awk -v b="$baseline" -v f="$fresh" 'BEGIN {
        if (f < 0.6 * b) {
            printf "  FAIL: throughput regressed (%.3f < 0.6 * %.3f)\n", f, b
            exit 1
        }
        printf "  ok (%.1f%% of baseline)\n", 100 * f / b
    }'
fi
echo "offline gate passed"
