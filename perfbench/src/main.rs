//! `ivy-perfbench`: the repository benchmark.
//!
//! ```text
//! ivy-perfbench --workload prove-cold|interactive|serve-warm --seed N
//!               --seconds S --trace 0|1 --root DIR --ivy PATH
//! ivy-perfbench --selftest --workload W --seed N --root DIR --ivy PATH
//! ```
//!
//! `--trace 0` measures the workload for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` runs a fixed, seeded request list twice
//! (untraced, then traced) and prints the per-layer metrics. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--selftest` runs two
//! traced runs in child processes and checks that their exact counts agree.
//! `--child-prove` and `--child-session` are this binary's own child
//! processes (see `prove_cold.rs`, `interactive.rs`).
//! See `perfbench/README.md` for the metrics and workloads.

mod calib;
mod corpus;
mod interactive;
mod prove_cold;
mod serve_warm;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Timed operations a run completes at least, so that at least ten lie
/// beyond its 90th percentile. A run ends at the first round boundary
/// after both `--seconds` and this many operations.
pub const MIN_OPS: usize = 100;

/// Command-line options shared by every workload.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Root of the checkout (inputs and traces go under `ROOT/.bench_work`).
    pub root: PathBuf,
    /// The `ivy` CLI binary.
    pub ivy: PathBuf,
    /// When this process started (set-up time counts from here).
    pub started: Instant,
}

impl Opts {
    /// A scratch directory private to this process.
    pub fn work_dir(&self) -> PathBuf {
        self.root
            .join(".bench_work")
            .join(format!("{}-{}", self.workload, std::process::id()))
    }

    /// Where a measured run writes its raw latency samples.
    pub fn samples_path(&self) -> PathBuf {
        self.root
            .join(".bench_work")
            .join(format!("samples-{}-seed{}.tsv", self.workload, self.seed))
    }

    pub fn trace_path(&self) -> PathBuf {
        self.root
            .join(".bench_work")
            .join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// What a run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` holds (non-finite values, which
/// JSON cannot carry, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The end-to-end metrics every workload reports. `calib` scales the
/// times (see `calib.rs`); `elapsed` is the measured phase without the
/// time spent probing.
pub fn end_to_end(
    opts: &Opts,
    lat: &stats::Latencies,
    start: Instant,
    elapsed: Duration,
    setups: &[f64],
    peak_rss_kb: u64,
    calib: Option<&calib::Calibration>,
) -> Vec<(&'static str, f64, &'static str)> {
    let f = calib.map_or(1.0, |c| {
        eprintln!(
            "ivy-perfbench: probe median {} ms (reference {} ms): times scaled by {}",
            c.probe_ms(),
            calib::PROBE_REF_MS,
            c.factor()
        );
        c.factor()
    });
    if let Err(e) = lat.write(&opts.samples_path(), start) {
        eprintln!("ivy-perfbench: writing samples: {e}");
    }
    vec![
        ("p50_gmean_ms", lat.p50_gmean() * f, "ms"),
        ("p90_ms", lat.p90() * f, "ms"),
        (
            "throughput_per_s",
            lat.count() as f64 / elapsed.as_secs_f64() / f,
            "1/s",
        ),
        ("setup_s", stats::median(setups) * f, "s"),
        ("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB"),
    ]
}

/// Peak resident set size (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Peak RSS of the largest child this process has waited for, in KiB.
pub fn children_max_rss_kb() -> u64 {
    // `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
    // which `ru_maxrss` is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss.max(0) as u64
    } else {
        0
    }
}

enum Mode {
    Run(Opts),
    SelfTest(Opts),
    ChildProve(Vec<String>),
    ChildSession(Vec<String>),
}

fn parse_args() -> Result<Mode, String> {
    let started = Instant::now();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--child-prove") => return Ok(Mode::ChildProve(args.split_off(1))),
        Some("--child-session") => return Ok(Mode::ChildSession(args.split_off(1))),
        _ => {}
    }
    let selftest = match args.iter().position(|a| a == "--selftest") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let mut take = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        let v = args.get(i + 1).cloned();
        args.drain(i..(i + 2).min(args.len()));
        v
    };
    let workload = take("--workload").ok_or("--workload is required")?;
    if !["prove-cold", "interactive", "serve-warm"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = take("--seed")
        .unwrap_or_else(|| "1".into())
        .parse()
        .map_err(|_| "--seed expects an integer")?;
    let seconds: f64 = take("--seconds")
        .unwrap_or_else(|| "30".into())
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    let trace = match take("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace expects 0 or 1".into()),
    };
    let root = PathBuf::from(take("--root").unwrap_or_else(|| ".".into()));
    let ivy = PathBuf::from(take("--ivy").ok_or("--ivy is required")?);
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {}", args.join(" ")));
    }
    if !ivy.is_file() {
        return Err(format!("no ivy binary at {}", ivy.display()));
    }
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        root,
        ivy,
        started,
    };
    Ok(if selftest {
        Mode::SelfTest(opts)
    } else {
        Mode::Run(opts)
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Mode::Run(opts)) => opts,
        Ok(Mode::SelfTest(opts)) => return selftest(&opts),
        Ok(Mode::ChildProve(args)) => return prove_cold::child_prove(&args),
        Ok(Mode::ChildSession(args)) => return interactive::child_session(&args),
        Err(e) => {
            eprintln!("ivy-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload.as_str() {
        "prove-cold" => prove_cold::run(&opts),
        "interactive" => interactive::run(&opts),
        _ => serve_warm::run(&opts),
    };
    let _ = std::fs::remove_dir_all(opts.work_dir());
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ivy-perfbench: {}: {e}", opts.workload);
            ExitCode::from(1)
        }
    }
}

/// The counts a traced run must reproduce exactly under the same seed.
const EXACT: &[&str] = &[
    "epr.instances",
    "sat.conflicts",
    "oracle.sessions_built",
    "core.steps",
];

/// Runs two traced runs of the same workload and seed in child processes
/// and checks that their exact counts are identical.
fn selftest(opts: &Opts) -> ExitCode {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let out = Command::new(std::env::current_exe().expect("own path"))
            .args(["--workload", &opts.workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--trace", "1", "--root"])
            .arg(&opts.root)
            .arg("--ivy")
            .arg(&opts.ivy)
            .output();
        let Ok(out) = out else {
            eprintln!("selftest: could not start a traced run");
            return ExitCode::from(1);
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(Ok(json)) = stdout.lines().last().map(ivy_serve::Json::parse) else {
            eprintln!("selftest: traced run printed no result");
            return ExitCode::from(1);
        };
        let counts: Vec<(&str, f64)> = EXACT
            .iter()
            .map(|name| {
                let v = json
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(ivy_serve::Json::as_f64)
                    .unwrap_or(f64::NAN);
                (*name, v)
            })
            .collect();
        runs.push(counts);
    }
    let same = runs[0] == runs[1];
    for ((name, a), (_, b)) in runs[0].iter().zip(&runs[1]) {
        println!("{name}: {a} vs {b}");
    }
    println!(
        "selftest {} seed {}: {}",
        opts.workload,
        opts.seed,
        if same { "identical" } else { "DIFFERENT" }
    );
    if same {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
