//! The one writer of the `ivy-profile-v1` object (DESIGN.md §4e): the
//! CLI's `--profile` file, a serve response's `profile` and `cache`
//! blocks, and `status.oracle` are all built here as [`Json`] values.

use ivy_telemetry::{OracleRollup, PhaseStat, QueryReport};

use crate::json::Json;

/// The `ivy-profile-v1` object of `report` (outcome, stop and wall time
/// as the caller set them). `phases` and `counters` are written as given:
/// a profile of the whole process passes the global registry's snapshots;
/// one that covers only part of the process passes nothing, since the
/// registry cannot tell who recorded what. `intern` is the interner's
/// `(hits, misses)`, a process total, so only a whole-process profile
/// passes it.
pub fn profile(
    report: &QueryReport,
    phases: &[(String, PhaseStat)],
    counters: &[(String, u64)],
    intern: Option<(u64, u64)>,
) -> Json {
    let phases = phases
        .iter()
        .map(|(name, stat)| {
            Json::obj([
                ("phase", Json::str(name)),
                ("calls", count(stat.calls)),
                ("ms", fixed(stat.millis(), 3)),
            ])
        })
        .collect();
    let counters = counters
        .iter()
        .map(|(name, value)| (name.clone(), count(*value)))
        .collect();
    let mut caches = Json::obj([
        ("atom_hits", count(report.atom_cache_hits)),
        ("atom_misses", count(report.atom_cache_misses)),
        (
            "atom_hit_rate",
            hit_rate(report.atom_cache_hits, report.atom_cache_misses),
        ),
    ]);
    if let Some((hits, misses)) = intern {
        caches.insert("intern_hits", count(hits));
        caches.insert("intern_misses", count(misses));
        caches.insert("intern_hit_rate", hit_rate(hits, misses));
    }
    Json::obj([
        ("schema", Json::str("ivy-profile-v1")),
        ("queries", count(report.queries)),
        ("outcome", Json::str(&report.outcome)),
        (
            "stop",
            report.stop.map_or(Json::Null, |r| Json::str(r.tag())),
        ),
        ("wall_ms", fixed(report.wall_nanos as f64 / 1.0e6, 3)),
        ("phases", Json::Arr(phases)),
        ("counters", Json::Obj(counters)),
        (
            "grounding",
            Json::obj([
                ("universe", count(report.universe)),
                ("instances", count(report.instances)),
                ("equality_clauses", count(report.equality_clauses)),
                ("final_check_firings", count(report.final_check_firings)),
            ]),
        ),
        (
            "sat",
            Json::obj([
                ("vars", count(report.sat_vars)),
                ("clauses", count(report.sat_clauses)),
                ("decisions", count(report.decisions)),
                ("propagations", count(report.propagations)),
                ("conflicts", count(report.conflicts)),
                ("restarts", count(report.restarts)),
                ("deleted_clauses", count(report.deleted_clauses)),
            ]),
        ),
        ("caches", caches),
    ])
}

/// The frame-cache block of `rollup`: a serve response's `cache`, the
/// CLI profile's `cache`, and the core of `status.oracle`.
pub fn cache(rollup: &OracleRollup) -> Json {
    Json::obj([
        ("frame_hits", count(rollup.frame_hits)),
        ("frame_misses", count(rollup.frame_misses)),
        ("sessions_built", count(rollup.sessions_built)),
        ("hit_rate", Json::num(rollup.frame_hit_rate())),
    ])
}

fn count(n: u64) -> Json {
    Json::num(n as f64)
}

/// `x` rounded to `digits` decimals.
fn fixed(x: f64, digits: i32) -> Json {
    let scale = 10f64.powi(digits);
    Json::num((x * scale).round() / scale)
}

fn hit_rate(hits: u64, misses: u64) -> Json {
    fixed(hits as f64 / (hits + misses).max(1) as f64, 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_telemetry::StopReason;

    #[test]
    fn profile_shape() {
        let report = QueryReport {
            queries: 2,
            outcome: "unknown".into(),
            stop: Some(StopReason::DeadlineExceeded),
            wall_nanos: 1_234_567,
            equality_clauses: 10,
            final_check_firings: 1,
            atom_cache_hits: 2,
            atom_cache_misses: 1,
            ..QueryReport::default()
        };
        let phases = [("sat".to_string(), PhaseStat { nanos: 1, calls: 1 })];
        let counters = [("epr.queries".to_string(), 2)];
        let expected = r#"{"schema": "ivy-profile-v1", "queries": 2, "outcome": "unknown",
            "stop": "deadline", "wall_ms": 1.235,
            "phases": [{"phase": "sat", "calls": 1, "ms": 0}], "counters": {"epr.queries": 2},
            "grounding": {"universe": 0, "instances": 0, "equality_clauses": 10,
                "final_check_firings": 1},
            "sat": {"vars": 0, "clauses": 0, "decisions": 0, "propagations": 0, "conflicts": 0,
                "restarts": 0, "deleted_clauses": 0},
            "caches": {"atom_hits": 2, "atom_misses": 1, "atom_hit_rate": 0.6667,
                "intern_hits": 3, "intern_misses": 1, "intern_hit_rate": 0.75}}"#;
        let json = profile(&report, &phases, &counters, Some((3, 1)));
        assert_eq!(json, Json::parse(expected).unwrap(), "{json}");

        // Without the process totals the profile has no intern counts, and
        // no phase or counter it was not given.
        let json = profile(&report, &[], &[], None);
        let caches = r#"{"atom_hits": 2, "atom_misses": 1, "atom_hit_rate": 0.6667}"#;
        assert_eq!(json.get("caches"), Some(&Json::parse(caches).unwrap()));
        assert_eq!(json.get("phases"), Some(&Json::Arr(Vec::new())));
        assert_eq!(json.get("counters"), Some(&Json::obj([])));
    }
}
