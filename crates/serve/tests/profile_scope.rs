//! A response's `profile` covers its own request only, also while the
//! process-global telemetry registry is recording (as a profiled run or a
//! traced benchmark that embeds `Server` has it). In its own file because
//! the recording switch is process-global.

use ivy_serve::{Json, ServeConfig, Server};

#[test]
fn a_request_profile_leaves_out_earlier_requests() {
    let server = Server::new(ServeConfig::default());
    let model = concat!(env!("CARGO_MANIFEST_DIR"), "/../protocols/rml/leader.rml");
    let line = Json::obj([
        ("cmd", Json::str("verify")),
        ("model_path", Json::str(model)),
    ]);
    ivy_telemetry::reset();
    ivy_telemetry::set_enabled(true);
    // One cold request, then two warm ones asking the same queries.
    let profiles: Vec<Json> = (0..3)
        .map(|_| {
            let resp = Json::parse(server.handle_line(&line.to_string()).response.trim());
            resp.unwrap()
                .get("profile")
                .cloned()
                .expect("profile block")
        })
        .collect();
    ivy_telemetry::set_enabled(false);
    let queries = |i: usize| profiles[i].get("queries").and_then(Json::as_u64).unwrap();
    let counter = |counters: &Json, name| counters.get(name).and_then(Json::as_u64);

    // The registry recorded both requests...
    let global = ivy_telemetry::counter_snapshot();
    let global_queries = global.iter().find(|(name, _)| name == "epr.queries");
    assert!(queries(0) > 0 && global_queries.unwrap().1 >= queries(0) + queries(1));
    // ...but the second profile counts none of the first request's work.
    // It is served warm, so any frame miss would be the first request's.
    let counters = profiles[1].get("counters").expect("counters");
    assert!(
        counter(counters, "epr.queries").unwrap_or(0) <= queries(1),
        "{counters}"
    );
    assert_eq!(counter(counters, "oracle.frame_misses"), None, "{counters}");

    // The two warm requests do the same work and report the same counts;
    // no count grows with the number of earlier requests. (SAT counts may
    // differ: learnt clauses persist in the pooled sessions.)
    let at = |i: usize, path: &[&str]| path.iter().try_fold(&profiles[i], |j, k| j.get(k));
    for path in [&["queries"][..], &["grounding", "instances"], &["caches"]] {
        let warm = at(1, path).expect("profile field");
        assert_eq!(Some(warm), at(2, path), "{path:?}");
    }
    let caches = at(1, &["caches"]).expect("caches block").to_string();
    assert!(!caches.contains("intern_"), "{caches}");
}
