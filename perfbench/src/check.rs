//! Output checks: every simulated point is compared with a recorded
//! digest of its statistics.
//!
//! The digest is `fnv1a64_hex` of the `SimStats::to_json` rendering, so
//! any change to any simulated counter, histogram or interval sample of
//! a point changes it. `reference.txt` holds one line per fixed point:
//! `<warmup>+<insts> <kernel> <spec> <digest>`; `--bless` rewrites it.

use std::collections::BTreeMap;
use wib_core::{fnv1a64_hex, SimStats};

/// The recorded digest file, compiled in so a run cannot pick up a
/// stale copy.
pub const RECORDED: &str = include_str!("../reference.txt");

/// Digest of one run's statistics.
pub fn stats_digest(stats: &SimStats) -> String {
    fnv1a64_hex(stats.to_json().to_string().as_bytes())
}

/// Key of one fixed point.
pub fn key(warmup: u64, insts: u64, kernel: &str, spec: &str) -> String {
    format!("{warmup}+{insts} {kernel} {spec}")
}

/// Recorded digests by point key.
#[derive(Debug, Clone, Default)]
pub struct Reference(BTreeMap<String, String>);

impl Reference {
    /// Parse `reference.txt` text.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, digest) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("reference line {}: no digest", n + 1))?;
            map.insert(k.to_string(), digest.to_string());
        }
        Ok(Reference(map))
    }

    pub fn insert(&mut self, key: String, digest: String) {
        self.0.insert(key, digest);
    }

    /// Compare a run's digest with the recorded one.
    pub fn check(&self, key: &str, digest: &str) -> Result<(), String> {
        match self.0.get(key) {
            Some(want) if want == digest => Ok(()),
            Some(want) => Err(format!("{key}: stats digest {digest}, expected {want}")),
            None => Err(format!("{key}: no recorded digest (run with --bless)")),
        }
    }

    /// Render in `reference.txt` form.
    pub fn render(&self) -> String {
        let mut out =
            String::from("# Stats digests (fnv1a64 of SimStats::to_json) of every fixed point.\n");
        for (k, d) in &self.0 {
            out.push_str(&format!("{k} {d}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wib_core::{MachineConfig, Processor, RunLimit};

    #[test]
    fn a_perturbed_stat_fails_the_digest_check() {
        let w = &wib_workloads::test_suite()[0];
        let r = Processor::new(MachineConfig::wib_2k()).run_program_warmed(
            w.program(),
            1_000,
            RunLimit::instructions(2_000),
        );
        let k = key(1_000, 2_000, w.name(), "wib2k");
        let mut reference = Reference::default();
        reference.insert(k.clone(), stats_digest(&r.stats));
        assert!(reference.check(&k, &stats_digest(&r.stats)).is_ok());

        let mut perturbed = r.stats.clone();
        perturbed.mem.mshr_merges += 1;
        assert!(reference.check(&k, &stats_digest(&perturbed)).is_err());
        let mut perturbed = r.stats.clone();
        perturbed.cycles += 1;
        assert!(reference.check(&k, &stats_digest(&perturbed)).is_err());
        assert!(reference.check("0+1 nope base", "0").is_err());
    }

    #[test]
    fn recorded_reference_parses_and_round_trips() {
        let r = Reference::parse(RECORDED).expect("reference.txt parses");
        assert_eq!(Reference::parse(&r.render()).unwrap().0, r.0);
    }
}
