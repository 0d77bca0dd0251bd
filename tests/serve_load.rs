//! Load test for the `ivy-serve` daemon: concurrent clients replay
//! `verify` for the six evaluation protocols over real sockets against one
//! in-process server, and every answer must match a direct `Verifier` run.
//!
//! Four clients run two rounds over all six protocols. At each step the
//! clients verify four distinct protocols at once (each client starts at a
//! different protocol) and wait for one another before the next step, so
//! no two concurrent requests contend for one frame. The second round must
//! therefore be fully warm: it re-grounds nothing. Latency is measured by
//! perfbench's `serve-warm` workload, not here.

use std::sync::{Arc, Barrier};

use ivy_core::{Inductiveness, Verifier};
use ivy_protocols::evaluation;
use ivy_serve::{Client, Endpoint, Json, Listener, ServeConfig, Server};

const CLIENTS: usize = 4;
const ROUNDS: usize = 2;

/// One response, tagged with what was asked.
struct Obs {
    protocol: usize,
    round: usize,
    response: Result<Json, String>,
}

fn roundtrip(client: &mut Client, request: &str) -> Result<Json, String> {
    let line = client.roundtrip(request).map_err(|e| e.to_string())?;
    Json::parse(&line).map_err(|e| e.to_string())
}

fn cache_field(resp: &Json, key: &str) -> u64 {
    resp.get("cache")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("response has no cache.{key}: {resp}"))
}

#[test]
fn concurrent_verify_matches_direct_runs_and_runs_warm() {
    let protocols = evaluation();
    let requests: Vec<String> = protocols
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let invariant = p
                .invariant
                .iter()
                .map(|c| {
                    Json::obj([
                        ("name", Json::str(c.name.clone())),
                        ("formula", Json::str(c.formula.to_string())),
                    ])
                })
                .collect();
            Json::obj([
                ("id", Json::num(i as f64)),
                ("cmd", Json::str("verify")),
                ("model", Json::str(p.source)),
                ("invariant", Json::Arr(invariant)),
            ])
            .to_string()
        })
        .collect();
    let direct: Vec<&str> = protocols
        .iter()
        .map(
            |p| match Verifier::new(&p.program).check(&p.invariant).unwrap() {
                Inductiveness::Inductive => "inductive",
                Inductiveness::Cti(_) => "cti",
            },
        )
        .collect();

    // The configuration `ivy serve --workers 4 --queue 32` runs with.
    let server = Arc::new(Server::new(ServeConfig {
        workers: 4,
        queue: 32,
        pool_capacity: 4 * 24,
        ..ServeConfig::default()
    }));
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::parse(&listener.describe());
    let serving = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_listener(listener))
    };

    // Clients never panic mid-run (a panic would strand the others at the
    // barrier); failures are recorded and asserted after the join.
    let barrier = Barrier::new(CLIENTS);
    let observations: Vec<Obs> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|tid| {
                let (barrier, requests, endpoint) = (&barrier, &requests, &endpoint);
                scope.spawn(move || {
                    let mut client = Client::connect(endpoint).map_err(|e| e.to_string());
                    let mut out = Vec::new();
                    for round in 0..ROUNDS {
                        for k in 0..requests.len() {
                            let protocol = (k + tid + round) % requests.len();
                            let response = match &mut client {
                                Ok(c) => roundtrip(c, &requests[protocol]),
                                Err(e) => Err(e.clone()),
                            };
                            out.push(Obs {
                                protocol,
                                round,
                                response,
                            });
                            barrier.wait();
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.request_stop();
    serving
        .join()
        .expect("server thread")
        .expect("serve_listener");

    assert_eq!(
        observations.len(),
        CLIENTS * ROUNDS * protocols.len(),
        "every request answered"
    );
    let mut hits = vec![0u64; protocols.len()];
    let mut misses = vec![0u64; protocols.len()];
    for obs in &observations {
        let name = protocols[obs.protocol].name;
        let resp = obs
            .response
            .as_ref()
            .unwrap_or_else(|e| panic!("{name} round {}: {e}", obs.round));
        let code = resp
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        assert_ne!(code, Some("busy"), "{name}: busy at {CLIENTS} clients");
        assert_eq!(
            resp.get("verdict").and_then(Json::as_str),
            Some(direct[obs.protocol]),
            "{name} round {}: verdict diverges from a direct run: {resp}",
            obs.round
        );
        hits[obs.protocol] += cache_field(resp, "frame_hits");
        misses[obs.protocol] += cache_field(resp, "frame_misses");
        if obs.round > 0 {
            assert_eq!(
                cache_field(resp, "frame_misses"),
                0,
                "{name}: warm verify re-grounded a frame: {resp}"
            );
            assert_eq!(
                cache_field(resp, "sessions_built"),
                0,
                "{name}: warm verify built a session: {resp}"
            );
        }
    }
    for (i, p) in protocols.iter().enumerate() {
        let rate = hits[i] as f64 / (hits[i] + misses[i]).max(1) as f64;
        assert!(
            rate >= 0.7,
            "{}: frame-cache hit rate {rate:.3} below 0.7 ({} hits, {} misses)",
            p.name,
            hits[i],
            misses[i]
        );
    }
}
