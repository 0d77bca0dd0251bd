//! Fresh-vs-incremental benchmark for the VC pipeline.
//!
//! For every bundled protocol, times a full inductiveness check under each
//! [`QueryStrategy`], and bounded model checking with and without the
//! incremental reachability session. Writes machine-readable results to
//! `BENCH_incremental.json` (or the path given as the first argument).

use std::fmt::Write as _;
use std::time::Duration;

use ivy_bench::{harness::measure, protocols};
use ivy_core::{Bmc, QueryStrategy, Verifier};

const SAMPLES: usize = 3;
const BMC_DEPTH: usize = 2;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_incremental.json".to_string());
    let mut rows = String::new();
    for entry in protocols() {
        let program = &entry.program;
        let invariant = &entry.invariant;
        let mut times: Vec<(&str, f64)> = Vec::new();
        for (key, strategy) in [
            ("verify_fresh", QueryStrategy::Fresh),
            ("verify_session", QueryStrategy::Session),
        ] {
            let sample = measure(SAMPLES, || {
                let mut v = Verifier::new(program);
                v.set_strategy(strategy);
                let r = v.check(invariant).expect("check succeeds");
                assert!(r.is_inductive(), "{}: invariant must verify", entry.name);
            });
            println!("{}/{key}: median {:?}", entry.name, sample.median);
            times.push((key, secs(sample.median)));
        }
        for (key, incremental) in [("bmc_fresh", false), ("bmc_incremental", true)] {
            let sample = measure(SAMPLES, || {
                let mut b = Bmc::new(program);
                b.set_incremental(incremental);
                let r = b.check_safety(BMC_DEPTH).expect("bmc succeeds");
                assert!(
                    r.is_none(),
                    "{}: safety must hold to depth {BMC_DEPTH}",
                    entry.name
                );
            });
            println!("{}/{key}: median {:?}", entry.name, sample.median);
            times.push((key, secs(sample.median)));
        }
        let fields: Vec<String> = times
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.6}"))
            .collect();
        let _ = writeln!(
            rows,
            "    {{\"protocol\": \"{}\", {},\n     \"session_speedup\": {:.2}, \"bmc_speedup\": {:.2}}},",
            entry.name,
            fields.join(", "),
            times[0].1 / times[1].1,
            times[2].1 / times[3].1,
        );
    }
    let json = format!(
        "{{\n  \"samples\": {SAMPLES},\n  \"bmc_depth\": {BMC_DEPTH},\n  \"median_seconds\": [\n{}  ]\n}}\n",
        rows.trim_end_matches(",\n").to_string() + "\n"
    );
    std::fs::write(&out_path, &json).expect("write results");
    println!("wrote {out_path}");
}
