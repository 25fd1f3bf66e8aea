//! Deterministic fault injection for the daemon.
//!
//! A [`FaultPlan`] names exact points at which the serving stack
//! misbehaves on purpose: worker panics, torn cache writes, forced
//! queue-full sheds, and slow or truncated client writes. Points are
//! *ordinals* — "the 2nd simulation attempt", "the 1st cache persist" —
//! counted by atomic counters, so a plan is reproducible even under a
//! racing worker pool: *some* attempt is the 2nd one, and exactly one
//! fault fires per listed ordinal.
//!
//! The plan is parsed from the `WIB_FAULTS` environment variable (or a
//! [`ServerOptions::faults`] string in tests). Grammar: comma-separated
//! `key=value` clauses, ordinal lists joined with `+`:
//!
//! ```text
//! WIB_FAULTS="seed=7,panic=1,tear=1,shed=2+3,slow=5,drop=4"
//!   seed=N    seed for jittered delays and backoff hints (default 0)
//!   panic=L   panic inside these simulation attempts (1-based ordinals)
//!   tear=L    crash these cache persists mid-write (torn temp, no rename)
//!   shed=L    force queue-full on these enqueue attempts
//!   slow=N    delay every client event write by a jittered 0..N ms
//!   drop=L    truncate these client event writes and kill the writer
//!   die=L     abort() the whole process on these job executions
//!   hang=L    wedge these simulation attempts until cancelled
//!   sick=L    fail these health probes (ping/stats/metrics) on a node
//!   wedge=L   jam these cache persists (clean failure, nothing written)
//! ```
//!
//! `die` is the node-death fault for the distributed sweep fabric: the
//! L-th job a worker picks up `abort()`s the entire daemon (no unwind,
//! no drain — the coordinator sees a dead TCP peer). It only makes
//! sense for a daemon running as its own process; in-process test
//! servers must not arm it.
//!
//! `shed` and `die` count work on its way to a worker: enqueue attempts
//! and job executions. A cache hit the daemon answers inline, on its
//! connection thread, is neither, so it advances neither ordinal.
//!
//! The self-healing faults exercise each recovery path: `hang` spins a
//! simulation in place until its cancel token trips (the hung-job
//! watchdog must notice the frozen heartbeat and cancel it), `sick`
//! makes a node answer health probes with a protocol error (the
//! coordinator's K-failure policy and dead-node supervisor must absorb
//! and heal it), and `wedge` fails cache persists cleanly without
//! touching disk (the cache's degradation latch must flip to in-memory
//! mode after enough consecutive failures). `hang`, `panic`, and `die`
//! count *different* streams (sims vs. executions), so they compose.
//!
//! The `seed` feeds [`wib_rng::StdRng`] *statelessly* — each jitter draw
//! seeds a fresh generator from `(seed, ordinal)` — so concurrent
//! threads never contend on RNG state and a given (seed, ordinal) pair
//! always yields the same delay, which is what makes the chaos gate's
//! assertions stable.
//!
//! [`ServerOptions::faults`]: crate::server::ServerOptions::faults

use std::sync::atomic::{AtomicU64, Ordering};

/// What to do to one client event write (see [`FaultPlan::next_client_write`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Deliver normally.
    None,
    /// Sleep this many milliseconds first (exercises write timeouts).
    Delay(u64),
    /// Write only a prefix of the frame, then fail the connection's
    /// writer (a peer that vanished mid-line).
    Truncate,
}

/// A parsed, counting fault-injection plan. A default plan injects
/// nothing and costs one relaxed atomic increment per instrumented point.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    panic_at: Vec<u64>,
    tear_at: Vec<u64>,
    shed_at: Vec<u64>,
    drop_at: Vec<u64>,
    die_at: Vec<u64>,
    hang_at: Vec<u64>,
    sick_at: Vec<u64>,
    wedge_at: Vec<u64>,
    slow_write_ms: u64,
    sims: AtomicU64,
    hang_sims: AtomicU64,
    cache_writes: AtomicU64,
    cache_persists: AtomicU64,
    enqueues: AtomicU64,
    client_writes: AtomicU64,
    executions: AtomicU64,
    probes: AtomicU64,
}

impl FaultPlan {
    /// The inert plan: no faults, seed 0.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parse a `WIB_FAULTS` spec (see the module docs for the grammar).
    ///
    /// # Errors
    /// A description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` needs key=value"))?;
            let ordinals = || -> Result<Vec<u64>, String> {
                value
                    .split('+')
                    .map(|n| {
                        n.trim()
                            .parse::<u64>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| format!("`{key}` wants 1-based ordinals, got `{n}`"))
                    })
                    .collect()
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("seed wants a number, got `{value}`"))?;
                }
                "panic" => plan.panic_at = ordinals()?,
                "tear" => plan.tear_at = ordinals()?,
                "shed" => plan.shed_at = ordinals()?,
                "drop" => plan.drop_at = ordinals()?,
                "die" => plan.die_at = ordinals()?,
                "hang" => plan.hang_at = ordinals()?,
                "sick" => plan.sick_at = ordinals()?,
                "wedge" => plan.wedge_at = ordinals()?,
                "slow" => {
                    plan.slow_write_ms = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("slow wants milliseconds, got `{value}`"))?;
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        Ok(plan)
    }

    /// True if any injection point is armed (used to skip logging noise).
    pub fn is_active(&self) -> bool {
        !self.panic_at.is_empty()
            || !self.tear_at.is_empty()
            || !self.shed_at.is_empty()
            || !self.drop_at.is_empty()
            || !self.die_at.is_empty()
            || !self.hang_at.is_empty()
            || !self.sick_at.is_empty()
            || !self.wedge_at.is_empty()
            || self.slow_write_ms > 0
    }

    /// Count one simulation attempt; true if it should panic.
    pub fn next_sim_panics(&self) -> bool {
        let n = self.sims.fetch_add(1, Ordering::Relaxed) + 1;
        self.panic_at.contains(&n)
    }

    /// Count one job execution; true if the whole process should
    /// `abort()` — node death, distinct from the per-job `panic` stream
    /// so the two compose. The caller does the aborting (and must be a
    /// real daemon process, never an in-process test server).
    pub fn next_execution_dies(&self) -> bool {
        let n = self.executions.fetch_add(1, Ordering::Relaxed) + 1;
        self.die_at.contains(&n)
    }

    /// Count one simulation attempt on the hang stream; true if it
    /// should wedge in place until its cancel token trips. Its own
    /// counter (not `sims`) so `hang` and `panic` ordinals compose.
    pub fn next_sim_hangs(&self) -> bool {
        let n = self.hang_sims.fetch_add(1, Ordering::Relaxed) + 1;
        self.hang_at.contains(&n)
    }

    /// Count one health probe (ping/stats/metrics) served by this node;
    /// true if it should be answered with an injected protocol error.
    pub fn next_probe_fails(&self) -> bool {
        let n = self.probes.fetch_add(1, Ordering::Relaxed) + 1;
        self.sick_at.contains(&n)
    }

    /// Count one cache persist; true if it should crash mid-write.
    pub fn next_cache_write_tears(&self) -> bool {
        let n = self.cache_writes.fetch_add(1, Ordering::Relaxed) + 1;
        self.tear_at.contains(&n)
    }

    /// Count one cache persist on the wedge stream; true if the persist
    /// should fail cleanly (no temp file, no rename) — the repeated-
    /// failure shape that trips the cache's degradation latch, as
    /// opposed to `tear`'s single torn write.
    pub fn next_cache_persist_wedges(&self) -> bool {
        let n = self.cache_persists.fetch_add(1, Ordering::Relaxed) + 1;
        self.wedge_at.contains(&n)
    }

    /// Count one enqueue attempt; true if it should be force-shed.
    pub fn next_enqueue_sheds(&self) -> bool {
        let n = self.enqueues.fetch_add(1, Ordering::Relaxed) + 1;
        self.shed_at.contains(&n)
    }

    /// Count one client event write and say how to (mis)deliver it.
    pub fn next_client_write(&self) -> WriteFault {
        let n = self.client_writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.drop_at.contains(&n) {
            return WriteFault::Truncate;
        }
        if self.slow_write_ms > 0 {
            return WriteFault::Delay(self.jitter_ms(n, self.slow_write_ms));
        }
        WriteFault::None
    }

    /// Deterministic jitter in `[0, bound]`: a fresh `wib_rng` generator
    /// seeded from `(plan seed, salt)`, so equal inputs always yield the
    /// same delay and no RNG state is shared across threads.
    pub fn jitter_ms(&self, salt: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let mut rng = wib_rng::StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9e37_79b9));
        rng.random_range(0..=bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let p = FaultPlan::parse("seed=7, panic=1+3, tear=2, shed=1, slow=5, drop=4").unwrap();
        assert!(p.is_active());
        assert_eq!(p.seed, 7);
        // Ordinal counting: attempts 1 and 3 panic, 2 does not.
        assert!(p.next_sim_panics());
        assert!(!p.next_sim_panics());
        assert!(p.next_sim_panics());
        assert!(!p.next_sim_panics());
        assert!(!p.next_cache_write_tears());
        assert!(p.next_cache_write_tears());
        assert!(p.next_enqueue_sheds());
        assert!(!p.next_enqueue_sheds());
        // Writes 1..3 delayed (slow=5), write 4 truncated.
        for _ in 0..3 {
            assert!(matches!(p.next_client_write(), WriteFault::Delay(ms) if ms <= 5));
        }
        assert_eq!(p.next_client_write(), WriteFault::Truncate);
    }

    #[test]
    fn empty_spec_is_inert_and_bad_specs_are_named() {
        assert!(!FaultPlan::parse("").unwrap().is_active());
        assert!(!FaultPlan::none().is_active());
        for bad in [
            "panic", "panic=0", "panic=x", "seed=z", "warp=1", "slow=ms", "die=0", "die=x",
            "hang=0", "sick=x", "wedge=0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn die_ordinals_count_executions_independently_of_panics() {
        let p = FaultPlan::parse("die=2").unwrap();
        assert!(p.is_active());
        // The execution stream is its own counter: a panic on attempt 1
        // does not consume the die ordinal.
        assert!(!p.next_execution_dies());
        assert!(p.next_execution_dies());
        assert!(!p.next_execution_dies());
        assert!(!p.next_sim_panics());
    }

    #[test]
    fn self_healing_faults_count_their_own_streams() {
        let p = FaultPlan::parse("hang=2,sick=1+3,wedge=2").unwrap();
        assert!(p.is_active());
        // hang counts simulations on its own counter: a panic check on
        // the same attempt does not consume the hang ordinal.
        assert!(!p.next_sim_hangs());
        assert!(!p.next_sim_panics());
        assert!(p.next_sim_hangs());
        assert!(!p.next_sim_hangs());
        // sick counts health probes: 1st and 3rd fail, 2nd is healthy.
        assert!(p.next_probe_fails());
        assert!(!p.next_probe_fails());
        assert!(p.next_probe_fails());
        assert!(!p.next_probe_fails());
        // wedge counts persists independently of tear's stream.
        assert!(!p.next_cache_persist_wedges());
        assert!(!p.next_cache_write_tears());
        assert!(p.next_cache_persist_wedges());
        assert!(!p.next_cache_persist_wedges());
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_salt() {
        let p = FaultPlan::parse("seed=42").unwrap();
        let q = FaultPlan::parse("seed=42").unwrap();
        assert_eq!(p.jitter_ms(3, 100), q.jitter_ms(3, 100));
        assert!(p.jitter_ms(3, 100) <= 100);
        assert_eq!(p.jitter_ms(9, 0), 0);
    }
}
