//! Host-speed calibration.
//!
//! On a shared 2-CPU host the simulator's speed drifts by up to 2× over
//! tens of seconds with no steal time: neighbours compete for the core's
//! caches and memory, and every CPU-bound process slows together. Timed
//! spans are therefore scaled to a reference host speed: before and
//! after each timed call the benchmark runs two small fixed kernels that
//! live here and nowhere in the program (an L2-resident pointer chase and
//! a `HashMap` churn), and multiplies the call's host time by the
//! reference calibration time over the measured one. No change to the
//! simulator can move the kernels, so a change in a scaled time is a
//! change in the simulator. The raw times are printed beside the scaled
//! ones.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Calibration time (geometric mean of the two kernels) at a typical
/// moment of the 2-vCPU host the bounds were set on. Scaled times read
/// as host seconds on that host.
const REFERENCE_S: f64 = 0.00105;

/// The same, taking the slower of two threads calibrating at once.
const REFERENCE_PAIR_S: f64 = 0.00125;

/// A single-cycle permutation of 64 Ki entries (256 KiB: L2-resident).
fn ring() -> &'static [u32] {
    static RING: OnceLock<Vec<u32>> = OnceLock::new();
    RING.get_or_init(|| {
        let n = 1usize << 16;
        let order = crate::engine::shuffled(n, 42);
        let mut next = vec![0u32; n];
        for w in 0..n {
            next[order[w]] = order[(w + 1) % n] as u32;
        }
        next
    })
}

fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// One calibration sample in seconds: the median of three runs of the
/// kernels, so that one interrupted run does not skew it.
fn sample() -> f64 {
    let mut s = [run_kernels(), run_kernels(), run_kernels()];
    s.sort_by(f64::total_cmp);
    s[1]
}

/// Geometric mean of the two kernels' times.
fn run_kernels() -> f64 {
    let ring = ring();
    let chase = time(|| {
        let mut i = 0u32;
        for _ in 0..200_000 {
            i = ring[i as usize];
        }
        black_box(i);
    });
    let churn = time(|| {
        let mut m: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for j in 0..20_000u64 {
            m.insert(j.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40, j);
            if j % 3 == 0 {
                m.remove(&((j / 2).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40));
            }
        }
        black_box(m.len());
    });
    (chase * churn).sqrt()
}

/// One sample on each of two threads at once; the slower sets it.
fn sample_pair() -> f64 {
    std::thread::scope(|s| {
        let other = s.spawn(sample);
        let here = sample();
        here.max(other.join().expect("calibration thread panicked"))
    })
}

/// Calibrates around timed intervals.
pub struct Clock {
    last: f64,
    sample: fn() -> f64,
    reference: f64,
}

impl Clock {
    /// For single-threaded work: calibrate now, as the start of the
    /// first interval.
    pub fn new() -> Clock {
        Clock {
            last: sample(),
            sample,
            reference: REFERENCE_S,
        }
    }

    /// For work spread over both vCPUs (the serve cluster): both are
    /// calibrated at once, and the slower one counts.
    pub fn pair() -> Clock {
        Clock {
            last: sample_pair(),
            sample: sample_pair,
            reference: REFERENCE_PAIR_S,
        }
    }

    /// Calibrate again and return the factor that scales a host time
    /// measured since the previous calibration to the reference host: the
    /// mean of the two calibrations stands for the interval between them.
    pub fn factor(&mut self) -> f64 {
        let now = (self.sample)();
        let f = self.reference / ((self.last + now) / 2.0);
        self.last = now;
        f
    }
}
