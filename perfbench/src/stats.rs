//! Order statistics over latency samples. Nothing here reports a mean:
//! a rare slow request moves a mean but not a median.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latencies in milliseconds, grouped by request class.
#[derive(Default)]
pub struct Latencies {
    classes: BTreeMap<String, Vec<f64>>,
    /// Every sample with the instant it completed, in arrival order.
    log: Vec<(Instant, String, f64)>,
}

impl Latencies {
    pub fn add(&mut self, class: &str, ms: f64) {
        self.classes.entry(class.to_string()).or_default().push(ms);
        self.log.push((Instant::now(), class.to_string(), ms));
    }

    /// Writes every sample as `seconds-since-start<TAB>class<TAB>ms`.
    pub fn write(&self, path: &Path, start: Instant) -> std::io::Result<()> {
        let mut log: Vec<&(Instant, String, f64)> = self.log.iter().collect();
        log.sort_by_key(|(t, _, _)| *t);
        let mut out = String::new();
        for (t, class, ms) in log {
            let _ = writeln!(out, "{:?}\t{class}\t{ms:?}", (*t - start).as_secs_f64());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    pub fn count(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// Geometric mean over classes of each class's median. A pooled
    /// median of a 13–420 ms mixture falls into the gaps between class
    /// clusters and jumps between them from run to run; this does not,
    /// as long as each class is one cluster. So a class is a protocol
    /// together with the kind of operation (serve request type,
    /// interactive step kind), not the protocol alone.
    pub fn p50_gmean(&self) -> f64 {
        let logs: Vec<f64> = self.classes.values().map(|v| median(v).ln()).collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// The pooled 90th percentile over every class.
    pub fn p90(&self) -> f64 {
        let all: Vec<f64> = self.classes.values().flatten().copied().collect();
        quantile(&all, 0.9)
    }

    pub fn merge(&mut self, other: Latencies) {
        for (class, v) in other.classes {
            self.classes.entry(class).or_default().extend(v);
        }
        self.log.extend(other.log);
    }
}
