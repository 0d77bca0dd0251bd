//! Host-speed calibration for the end-to-end times.
//!
//! On a shared two-vCPU VM the host's speed swings by more than half within
//! minutes: the same `prove-cold` mix measured a `p50_gmean_ms` of 32 ms
//! and of 52 ms three minutes apart, with every protocol slowed by the same
//! factor (1.54–1.65), so ten consecutive runs spread by 23–25% (IQR over
//! median). No statistic taken inside one run removes a slowdown that lasts
//! longer than the run. So each run also times a fixed probe — the
//! benchmark's own code, sharing nothing with the program under test —
//! while the program is idle, and reports every end-to-end time scaled to
//! a reference probe time:
//!
//! `reported = measured × PROBE_REF_MS / median(probe times)`
//!
//! (throughput is divided by the same factor). Only `prove-cold` is scaled:
//! on the other workloads the probe did not track the program's slowdowns.
//! The raw samples and the factor are written alongside each run. See
//! `perfbench/README.md`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats;

/// The probe's median time on an uncontended run of the reference VM; it
/// only sets the scale of the reported numbers.
pub const PROBE_REF_MS: f64 = 1.0;

/// Elements the probe sorts and counts.
const PROBE_LEN: usize = 1 << 14;

/// Probe times of one run.
#[derive(Default)]
pub struct Calibration {
    samples: Vec<f64>,
    spent: Duration,
}

impl Calibration {
    /// Times `n` probes. Call only while the program under test is idle.
    pub fn probe(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            black_box(probe_work());
            let d = t.elapsed();
            self.spent += d;
            self.samples.push(d.as_secs_f64() * 1e3);
        }
    }

    /// Wall time spent probing so far (kept out of throughput).
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Median probe time in ms.
    pub fn probe_ms(&self) -> f64 {
        stats::median(&self.samples)
    }

    /// The factor measured times are multiplied by.
    pub fn factor(&self) -> f64 {
        PROBE_REF_MS / self.probe_ms()
    }
}

/// Sorting (branches) and a hash table (scattered memory access), the two
/// kinds of work that dominate grounding and SAT solving.
fn probe_work() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u32> = (0..PROBE_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    v.sort_unstable();
    let mut counts = std::collections::HashMap::with_capacity(PROBE_LEN / 4);
    for &e in &v {
        *counts.entry(e % 4093).or_insert(0u64) += 1;
    }
    (0..PROBE_LEN)
        .map(|i| counts[&(v[(i * 7919) % PROBE_LEN] % 4093)])
        .sum()
}
