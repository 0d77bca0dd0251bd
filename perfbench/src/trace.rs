//! Spans for the traced run, recorded by the benchmark around its calls
//! into each layer and kept in memory until the run ends.
//!
//! A span's *self time* is its duration minus the durations of its
//! children, so the self times of one request's spans add up to the
//! request's wall time. Layers the benchmark cannot bracket with its own
//! calls (grounding, encoding, SAT, transition compilation) enter as
//! *synthetic* children: the growth of `ivy_telemetry::phase_snapshot()`
//! across the enclosing call, placed at the call's start.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use ivy_telemetry::PhaseStat;

/// Telemetry phase → span name. `encode` includes template grounding,
/// which the program books under its encode phase.
const PHASES: &[(&str, &str)] = &[
    ("trans", "rml.trans"),
    ("wp", "rml.wp"),
    ("ground", "epr.ground"),
    ("encode", "epr.encode"),
    ("sat", "sat.solve"),
];

struct Span {
    request: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ms: f64,
    end_ms: f64,
    synthetic: bool,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    requests: usize,
}

/// Per-phase totals in milliseconds.
pub type Phases = BTreeMap<String, f64>;

/// The global telemetry phases, in milliseconds.
pub fn phases_now() -> Phases {
    ivy_telemetry::phase_snapshot()
        .into_iter()
        .map(|(name, stat): (String, PhaseStat)| (name, stat.millis()))
        .collect()
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    pub fn ms(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e3
    }

    /// A fresh request id.
    pub fn request(&mut self) -> usize {
        self.requests += 1;
        self.requests
    }

    /// Records a span measured between two instants; returns its id.
    pub fn span(
        &mut self,
        request: usize,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ms, end_ms) = (self.ms(start), self.ms(end));
        self.push(request, parent, name, start_ms, end_ms, false)
    }

    /// Records a span of a known duration starting at `start_ms`, for time
    /// reported by a child process or the server rather than measured here.
    pub fn span_ms(
        &mut self,
        request: usize,
        parent: usize,
        name: &'static str,
        start_ms: f64,
        dur_ms: f64,
    ) -> usize {
        self.push(
            request,
            Some(parent),
            name,
            start_ms,
            start_ms + dur_ms,
            true,
        )
    }

    /// Adds the telemetry phase growth `after - before` as synthetic
    /// children of `parent`.
    pub fn phases(&mut self, request: usize, parent: usize, before: &Phases, after: &Phases) {
        let start_ms = self.spans[parent].start_ms;
        for (phase, ms) in after {
            let delta = ms - before.get(phase).copied().unwrap_or(0.0);
            if delta <= 0.0 {
                continue;
            }
            let name = PHASES
                .iter()
                .find(|(p, _)| p == phase)
                .map_or("phase.other", |(_, n)| *n);
            self.span_ms(request, parent, name, start_ms, delta);
        }
    }

    fn push(
        &mut self,
        request: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ms: f64,
        end_ms: f64,
        synthetic: bool,
    ) -> usize {
        self.spans.push(Span {
            request,
            parent,
            name,
            start_ms,
            end_ms,
            synthetic,
        });
        self.spans.len() - 1
    }

    /// Self time per span name, in milliseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ms - s.start_ms;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            *out.entry(s.name).or_insert(0.0) += s.end_ms - s.start_ms - c;
        }
        out
    }

    /// Total wall time of the root spans (one per request).
    pub fn wall_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ms - s.start_ms)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"request\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ms\": {}, \"end_ms\": {}, \"synthetic\": {}}}",
                s.request, s.name, s.start_ms, s.end_ms, s.synthetic
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Exact work counts of a traced pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub queries: u64,
    pub instances: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub conflicts: u64,
    pub frame_hits: u64,
    pub frame_misses: u64,
    pub sessions_built: u64,
    pub steps: u64,
}

impl Counts {
    /// Adds the global telemetry counters' growth from `before` to `after`.
    pub fn add_counters(&mut self, before: &[(String, u64)], after: &[(String, u64)]) {
        let get = |table: &[(String, u64)], name: &str| {
            table.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
        };
        let delta = |name: &str| get(after, name) - get(before, name);
        self.queries += delta("epr.queries");
        self.instances += delta("epr.instances");
        self.decisions += delta("sat.decisions");
        self.propagations += delta("sat.propagations");
        self.conflicts += delta("sat.conflicts");
    }

    pub fn add_rollup(&mut self, r: &ivy_telemetry::OracleRollup) {
        self.frame_hits += r.frame_hits;
        self.frame_misses += r.frame_misses;
        self.sessions_built += r.sessions_built;
    }
}

/// The per-layer metrics of a traced pass, in the order of
/// `BENCHMARK.json`. Layers a workload never enters report 0.
pub fn layer_metrics(
    tracer: &Tracer,
    counts: &Counts,
    overhead_ms: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let selfs = tracer.self_times();
    let t = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let named: &[(&str, &str)] = &[
        ("rml.parse_ms", "rml.parse"),
        ("rml.check_ms", "rml.check"),
        ("rml.trans_ms", "rml.trans"),
        ("core.vc_ms", "core.vc"),
        ("core.minimize_ms", "core.minimize"),
        ("core.generalize_ms", "core.generalize"),
        ("users.oracle_ms", "users.oracle"),
        ("process.overhead_ms", "process"),
        ("epr.ground_ms", "epr.ground"),
        ("epr.encode_ms", "epr.encode"),
        ("sat.solve_ms", "sat.solve"),
        ("serve.engine_ms", "serve.engine"),
        ("serve.overhead_ms", "serve.roundtrip"),
        ("serve.handle_line_ms", "serve.handle_line"),
    ];
    let mut out: Vec<(&'static str, f64, &'static str)> = named
        .iter()
        .map(|(metric, span)| (*metric, t(span), "ms"))
        .collect();
    let attributed: f64 = named.iter().map(|(_, span)| t(span)).sum();
    let total: f64 = selfs.values().sum();
    out.push(("other_ms", total - attributed, "ms"));
    out.push(("trace.wall_ms", tracer.wall_ms(), "ms"));
    out.push(("trace.overhead_ms", overhead_ms, "ms"));
    let hit_rate = if counts.frame_hits + counts.frame_misses == 0 {
        0.0
    } else {
        counts.frame_hits as f64 / (counts.frame_hits + counts.frame_misses) as f64
    };
    for (name, v, unit) in [
        ("epr.queries", counts.queries as f64, "count"),
        ("epr.instances", counts.instances as f64, "count"),
        ("sat.decisions", counts.decisions as f64, "count"),
        ("sat.propagations", counts.propagations as f64, "count"),
        ("sat.conflicts", counts.conflicts as f64, "count"),
        ("oracle.frame_hit_rate", hit_rate, "ratio"),
        (
            "oracle.sessions_built",
            counts.sessions_built as f64,
            "count",
        ),
        ("core.steps", counts.steps as f64, "count"),
    ] {
        out.push((name, v, unit));
    }
    out
}
