//! Wire-protocol conformance: every failure mode produces a well-formed
//! error response and never wedges a worker.
//!
//! Most tests drive [`Server::handle_line`] directly — the dispatch core
//! is transport-agnostic — with a handful of socket-level tests for the
//! behaviors that only exist at the stream layer (oversized lines,
//! mid-request disconnects, busy rejection under real concurrency).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ivy_serve::{Client, Endpoint, Json, Listener, ServeConfig, Server};

const MODEL: &str = r#"
sort client
relation has_lock : client
relation lock_free
local c : client
safety mutex: forall C1:client, C2:client. has_lock(C1) & has_lock(C2) -> C1 = C2
init { has_lock(X0) := false; lock_free() := true }
action acquire { havoc c; assume lock_free; lock_free() := false; has_lock.insert(c) }
action release { havoc c; assume has_lock(c); has_lock.remove(c); lock_free() := true }
"#;

const INVARIANT: &str = "\
mutex: forall C1:client, C2:client. has_lock(C1) & has_lock(C2) -> C1 = C2
excl: forall C:client. has_lock(C) -> ~lock_free
";

fn server() -> Server {
    Server::new(ServeConfig::default())
}

fn request(fields: &[(&str, &str)]) -> String {
    let mut obj = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            obj.push(',');
        }
        obj.push_str(&format!("{:?}:{v}", k));
    }
    obj.push('}');
    obj
}

fn json_field<'a>(resp: &'a Json, key: &str) -> &'a Json {
    resp.get(key)
        .unwrap_or_else(|| panic!("response missing `{key}`: {resp}"))
}

/// Parses a response line and asserts the envelope invariants every
/// response must satisfy: single line, valid JSON object, `ok` bool,
/// echoed `id`.
fn check_envelope(line: &str) -> Json {
    assert!(line.ends_with('\n'), "response must be newline-terminated");
    let body = line.trim_end_matches('\n');
    assert!(!body.contains('\n'), "response must be a single line");
    let parsed =
        Json::parse(body).unwrap_or_else(|e| panic!("invalid response JSON ({e}): {body}"));
    assert!(parsed.get("ok").and_then(Json::as_bool).is_some(), "{body}");
    parsed
}

fn error_code(resp: &Json) -> String {
    json_field(resp, "error")
        .get("code")
        .and_then(Json::as_str)
        .expect("error.code")
        .to_string()
}

#[test]
fn malformed_json_yields_parse_error() {
    let s = server();
    for line in [
        "{not json",
        "]",
        "{\"cmd\": \"verify\"",           // truncated
        "{\"cmd\": \"verify\"} trailing", // trailing garbage
        "\u{1}",                          // control byte
        "[1,2,3]",                        // valid JSON, not an object
    ] {
        let handled = s.handle_line(line);
        let resp = check_envelope(&handled.response);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let code = error_code(&resp);
        assert!(
            code == "parse" || code == "protocol",
            "line {line:?} gave code {code}"
        );
        assert!(!handled.close, "a parse error should not close the stream");
    }
}

#[test]
fn unknown_command_yields_protocol_error_with_id_echo() {
    let s = server();
    let handled = s.handle_line(r#"{"id": 42, "cmd": "frobnicate"}"#);
    let resp = check_envelope(&handled.response);
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(42));
    assert_eq!(error_code(&resp), "protocol");
}

#[test]
fn missing_model_yields_protocol_error() {
    let s = server();
    let handled = s.handle_line(r#"{"id": "x", "cmd": "verify"}"#);
    let resp = check_envelope(&handled.response);
    assert_eq!(error_code(&resp), "protocol");
}

#[test]
fn invalid_model_yields_model_error() {
    let s = server();
    let req = request(&[
        ("cmd", "\"verify\""),
        ("model", "\"sort s\\nrelation r : missing\""),
    ]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(error_code(&resp), "model");
}

#[test]
fn verify_inductive_with_cache_and_profile_blocks() {
    let s = server();
    let model = Json::str(MODEL).to_string();
    let inv = Json::str(INVARIANT).to_string();
    let req = request(&[
        ("id", "\"r1\""),
        ("cmd", "\"verify\""),
        ("model", &model),
        ("invariant", &inv),
    ]);

    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert_eq!(
        resp.get("verdict").and_then(Json::as_str),
        Some("inductive")
    );
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("r1"));
    // The telemetry contract: every response carries an ivy-profile-v1
    // block and cache provenance.
    let profile = json_field(&resp, "profile");
    assert_eq!(
        profile.get("schema").and_then(Json::as_str),
        Some("ivy-profile-v1")
    );
    let grounding = json_field(profile, "grounding");
    assert_eq!(
        grounding.get("final_check_firings").and_then(Json::as_u64),
        Some(0),
        "{resp}"
    );
    let cache = json_field(&resp, "cache");
    let miss1 = cache.get("frame_misses").and_then(Json::as_u64).unwrap();
    assert!(miss1 > 0, "a cold verify must build sessions: {resp}");

    // The same frames again: served warm from the shared pool.
    let resp = check_envelope(&s.handle_line(&req).response);
    let cache = json_field(&resp, "cache");
    assert_eq!(
        cache.get("frame_misses").and_then(Json::as_u64),
        Some(0),
        "second identical request must be all warm: {resp}"
    );
    assert!(cache.get("frame_hits").and_then(Json::as_u64).unwrap() > 0);
}

#[test]
fn verify_unstrengthened_safety_yields_cti() {
    let s = server();
    let model = Json::str(MODEL).to_string();
    let req = request(&[("cmd", "\"verify\""), ("model", &model)]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(resp.get("verdict").and_then(Json::as_str), Some("cti"));
    assert!(resp.get("state").and_then(Json::as_str).is_some(), "{resp}");
}

#[test]
fn bmc_and_houdini_and_generalize_roundtrip() {
    let s = server();
    let model = Json::str(MODEL).to_string();

    let req = request(&[("cmd", "\"bmc\""), ("model", &model), ("depth", "2")]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(
        resp.get("verdict").and_then(Json::as_str),
        Some("safe"),
        "{resp}"
    );

    let req = request(&[
        ("cmd", "\"houdini\""),
        ("model", &model),
        ("vars", "1"),
        ("lits", "1"),
    ]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert!(resp.get("survivors").and_then(Json::as_arr).is_some());

    let req = request(&[("cmd", "\"generalize\""), ("model", &model)]);
    let resp = check_envelope(&s.handle_line(&req).response);
    let verdict = resp.get("verdict").and_then(Json::as_str).unwrap();
    assert!(
        ["generalized", "too_strong", "inductive"].contains(&verdict),
        "{resp}"
    );
}

#[test]
fn exhausted_budget_yields_budget_error_not_wrong_verdict() {
    let s = server();
    let model = Json::str(MODEL).to_string();
    let inv = Json::str(INVARIANT).to_string();
    let req = request(&[
        ("id", "\"b\""),
        ("cmd", "\"verify\""),
        ("model", &model),
        ("invariant", &inv),
        ("timeout_ms", "0"),
    ]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&resp), "budget");
    assert_eq!(resp.get("verdict").and_then(Json::as_str), Some("unknown"));
    // Partial telemetry still attached.
    assert!(resp.get("profile").is_some(), "{resp}");

    // The server is not wedged: the same request with a real budget works.
    let req = request(&[
        ("cmd", "\"verify\""),
        ("model", &model),
        ("invariant", &inv),
    ]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(
        resp.get("verdict").and_then(Json::as_str),
        Some("inductive")
    );
}

#[test]
fn server_caps_clamp_request_budgets() {
    let s = Server::new(ServeConfig {
        max_timeout: Some(Duration::ZERO),
        ..ServeConfig::default()
    });
    let model = Json::str(MODEL).to_string();
    // The request asks for a generous hour; the server cap of zero wins.
    let req = request(&[
        ("cmd", "\"verify\""),
        ("model", &model),
        ("timeout_ms", "3600000"),
    ]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(error_code(&resp), "budget");
}

#[test]
fn status_reports_counters_and_shutdown_drains() {
    let s = server();
    let model = Json::str(MODEL).to_string();
    let req = request(&[("cmd", "\"verify\""), ("model", &model)]);
    let bmc = request(&[("cmd", "\"bmc\""), ("model", &model), ("depth", "1")]);
    let responses: Vec<Json> = [&req, &bmc]
        .map(|line| check_envelope(&s.handle_line(line).response))
        .into();

    let resp = check_envelope(&s.handle_line(r#"{"cmd": "status"}"#).response);
    assert_eq!(resp.get("verdict").and_then(Json::as_str), Some("ok"));
    let requests = json_field(&resp, "requests");
    assert!(requests.get("received").and_then(Json::as_u64).unwrap() >= 3);
    // The `oracle` block totals the finished requests' own accounts.
    let oracle = json_field(&resp, "oracle");
    assert!(oracle.get("queries").and_then(Json::as_u64).unwrap() > 0);
    for (block, key) in [
        ("profile", "queries"),
        ("cache", "frame_hits"),
        ("cache", "frame_misses"),
        ("cache", "sessions_built"),
    ] {
        let count = |r: &Json| json_field(json_field(r, block), key).as_u64().unwrap();
        let sum: u64 = responses.iter().map(count).sum();
        let total = json_field(oracle, key).as_u64();
        assert_eq!(total, Some(sum), "{key}: {resp}");
    }

    let handled = s.handle_line(r#"{"cmd": "shutdown"}"#);
    let resp = check_envelope(&handled.response);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(handled.close);
    assert!(s.stopping());

    // After shutdown: queries refused, status still answered.
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(error_code(&resp), "shutdown");
    let resp = check_envelope(&s.handle_line(r#"{"cmd": "status"}"#).response);
    assert_eq!(resp.get("stopping").and_then(Json::as_bool), Some(true));
}

/// Starts a TCP server on an ephemeral port on a background thread.
fn spawn_tcp(config: ServeConfig) -> (Arc<Server>, String, std::thread::JoinHandle<()>) {
    let server = Arc::new(Server::new(config));
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.describe();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_listener(listener).unwrap())
    };
    (server, addr, handle)
}

#[test]
fn oversized_request_line_gets_error_then_close() {
    let (server, addr, handle) = spawn_tcp(ServeConfig {
        max_line_bytes: 1024,
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(&addr).unwrap();
    // Junk past the cap with no newline in sight: rejected as soon as the
    // buffered prefix exceeds the limit, without waiting for the line to
    // ever end.
    let junk = vec![b'x'; 4096];
    stream.write_all(&junk).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let resp = check_envelope(&response);
    assert_eq!(error_code(&resp), "oversized");

    // The server survives to serve a fresh connection.
    let mut client = Client::connect(&Endpoint::parse(&addr)).unwrap();
    let line = client.roundtrip(r#"{"cmd": "status"}"#).unwrap();
    let resp = Json::parse(&line).unwrap();
    assert_eq!(resp.get("verdict").and_then(Json::as_str), Some("ok"));

    server.request_stop();
    handle.join().unwrap();
}

#[test]
fn mid_request_disconnect_does_not_wedge_workers() {
    let (server, addr, handle) = spawn_tcp(ServeConfig::default());
    // Half a request, then vanish.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"{\"cmd\": \"veri").unwrap();
        stream.flush().unwrap();
    } // dropped: RST/FIN mid-line
      // A full request, response never read.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let model = Json::str(MODEL).to_string();
        let req = request(&[("cmd", "\"verify\""), ("model", &model)]);
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
    }
    // All workers still available for a well-behaved client.
    let mut client = Client::connect(&Endpoint::parse(&addr)).unwrap();
    let model = Json::str(MODEL).to_string();
    let inv = Json::str(INVARIANT).to_string();
    let req = request(&[
        ("cmd", "\"verify\""),
        ("model", &model),
        ("invariant", &inv),
    ]);
    let line = client.roundtrip(&req).unwrap();
    let resp = Json::parse(&line).unwrap();
    assert_eq!(
        resp.get("verdict").and_then(Json::as_str),
        Some("inductive"),
        "{line}"
    );

    server.request_stop();
    handle.join().unwrap();
}

#[test]
fn overload_yields_busy_not_queue_collapse() {
    // One worker, zero queue slots: a second concurrent request must be
    // refused with `busy` while the first still completes.
    let (server, addr, handle) = spawn_tcp(ServeConfig {
        workers: 1,
        queue: 0,
        ..ServeConfig::default()
    });
    let model = Json::str(MODEL).to_string();
    let inv = Json::str(INVARIANT).to_string();
    let slow = request(&[
        ("id", "\"slow\""),
        ("cmd", "\"verify\""),
        ("model", &model),
        ("invariant", &inv),
    ]);

    let mut clients: Vec<std::thread::JoinHandle<Json>> = Vec::new();
    for _ in 0..6 {
        let addr = addr.clone();
        let slow = slow.clone();
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(&Endpoint::parse(&addr)).unwrap();
            Json::parse(&c.roundtrip(&slow).unwrap()).unwrap()
        }));
    }
    let responses: Vec<Json> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let busy = responses
        .iter()
        .filter(|r| r.get("ok") == Some(&Json::Bool(false)))
        .count();
    let served = responses
        .iter()
        .filter(|r| r.get("verdict").and_then(Json::as_str) == Some("inductive"))
        .count();
    assert_eq!(busy + served, 6, "{responses:?}");
    assert!(served >= 1, "at least one request must be served");
    for r in &responses {
        if r.get("ok") == Some(&Json::Bool(false)) {
            assert_eq!(error_code(r), "busy", "{r}");
        }
    }

    server.request_stop();
    handle.join().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_roundtrips() {
    let path = std::env::temp_dir().join(format!("ivy_serve_{}.sock", std::process::id()));
    let server = Arc::new(Server::new(ServeConfig::default()));
    let listener = Listener::bind_unix(&path).unwrap();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_listener(listener).unwrap())
    };
    let mut client = Client::connect(&Endpoint::Unix(path.clone())).unwrap();
    let line = client.roundtrip(r#"{"cmd": "status"}"#).unwrap();
    let resp = Json::parse(&line).unwrap();
    assert_eq!(resp.get("verdict").and_then(Json::as_str), Some("ok"));

    // Shutdown over the wire: the accept loop drains and returns.
    let line = client.roundtrip(r#"{"cmd": "shutdown"}"#).unwrap();
    let resp = Json::parse(&line).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    handle.join().unwrap();
    std::fs::remove_file(&path).ok();
}

/// A deliberately non-EPR model: `f : t -> t` breaks stratification, so
/// full instantiation refuses it and only a `bound` admits it.
const OPEN_MODEL: &str = r#"
sort t
function f : t -> t
relation p : t
local x : t
safety all_p: forall X:t. p(X)
init { p(X0) := true }
action grow { havoc x; p.insert(x) }
"#;

#[test]
fn non_epr_model_without_bound_is_refused_with_a_hint() {
    let s = server();
    let req = request(&[
        ("cmd", "\"verify\""),
        ("model", &Json::str(OPEN_MODEL).to_string()),
    ]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(error_code(&resp), "model");
    let msg = json_field(&resp, "error")
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(
        msg.contains("not stratified") && msg.contains("bound"),
        "expected a cycle diagnostic plus a bound hint, got: {msg}"
    );
}

#[test]
fn bound_field_admits_and_proves_a_non_epr_model() {
    // Safety alone is inductive here (p only grows): every query is a
    // refutation, and refutations under a bound are sound verdicts.
    let s = server();
    let req = request(&[
        ("cmd", "\"verify\""),
        ("model", &Json::str(OPEN_MODEL).to_string()),
        ("bound", "2"),
    ]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert_eq!(
        resp.get("verdict").and_then(Json::as_str),
        Some("inductive")
    );
}

#[test]
fn bound_leaning_sat_degrades_to_budget_error_not_a_cti() {
    // Flip the action to *remove* facts: the CTI query is satisfiable,
    // but its model leans on the truncated universe, so the honest
    // answer is `unknown` with a `budget` error — never a CTI.
    let model = OPEN_MODEL.replace("p.insert(x)", "p.remove(x)");
    let s = server();
    let req = request(&[
        ("cmd", "\"verify\""),
        ("model", &Json::str(&model).to_string()),
        ("bound", "2"),
    ]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&resp), "budget");
    assert_eq!(resp.get("verdict").and_then(Json::as_str), Some("unknown"));
    let msg = json_field(&resp, "error")
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(
        msg.contains("bound"),
        "stop reason should name the bound: {msg}"
    );
}

#[test]
fn server_default_bound_applies_when_the_request_names_none() {
    let config = ServeConfig {
        default_bound: Some(2),
        ..ServeConfig::default()
    };
    let s = Server::new(config);
    let req = request(&[
        ("cmd", "\"verify\""),
        ("model", &Json::str(OPEN_MODEL).to_string()),
    ]);
    let resp = check_envelope(&s.handle_line(&req).response);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert_eq!(
        resp.get("verdict").and_then(Json::as_str),
        Some("inductive")
    );
}
