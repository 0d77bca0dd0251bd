//! End-to-end smoke tests of the `ivy` CLI binary.

use std::io::Write;
use std::process::Command;

use ivy_serve::Json;

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

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ivy_cli_{}_{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

fn ivy(args: &[&str]) -> (bool, String) {
    let (code, text) = ivy_code(args);
    (code == 0, text)
}

fn ivy_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ivy"))
        .args(args)
        .output()
        .expect("run ivy binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        out.status
            .code()
            .expect("ivy must exit, not die on a signal"),
        text,
    )
}

#[test]
fn check_bmc_prove_roundtrip() {
    let model = write_temp("m.rml", MODEL);
    let inv = write_temp("m.inv", INVARIANT);
    let model = model.to_str().unwrap();

    let (ok, text) = ivy(&["check", model]);
    assert!(ok, "{text}");
    assert!(text.contains("2 actions"), "{text}");

    let (ok, text) = ivy(&["bmc", model, "-k", "3"]);
    assert!(ok, "{text}");
    assert!(text.contains("safe within 3"), "{text}");

    // Safety alone is not inductive: prove fails, cti shows a state.
    let (ok, text) = ivy(&["prove", model]);
    assert!(!ok);
    assert!(text.contains("not inductive"), "{text}");

    let (ok, text) = ivy(&["cti", model]);
    assert!(!ok);
    assert!(text.contains("state:"), "{text}");

    // With the strengthened invariant file: proved.
    let (ok, text) = ivy(&["prove", model, inv.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("inductive"), "{text}");

    // DOT output is well-formed enough to contain a digraph.
    let (_, text) = ivy(&["dot", model]);
    assert!(text.contains("digraph"), "{text}");

    // Houdini with a tiny template runs and reports.
    let (_, text) = ivy(&["houdini", model, "--vars", "1", "--lits", "1"]);
    assert!(text.contains("survive"), "{text}");
}

/// The non-EPR `two_phase` model end to end: full instantiation refuses
/// it as a usage error that names the cycle and suggests `--bound`, and
/// `--bound 2` proves its invariant.
#[test]
fn non_epr_model_is_refused_unless_bounded() {
    let rml = concat!(env!("CARGO_MANIFEST_DIR"), "/../protocols/rml/");
    let model = format!("{rml}two_phase.rml");
    let inv = format!("{rml}two_phase.inv");
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ivy"))
            .args(["prove", &model, &inv])
            .args(extra)
            .output()
            .expect("run ivy binary")
    };

    let out = run(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("not stratified"), "{stderr}");
    assert!(stderr.contains("--bound"), "{stderr}");

    let out = run(&["--bound", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("inductive"), "{stdout}");
}

#[test]
fn bad_model_reports_validation_errors() {
    let model = write_temp(
        "bad.rml",
        "sort s\nrelation r : s\ninit { r(X0) := exists Y:s. Y = X0 }\n",
    );
    let (ok, text) = ivy(&["check", model.to_str().unwrap()]);
    assert!(!ok);
    assert!(text.contains("quantified"), "{text}");
}

#[test]
fn kinv_detects_violations() {
    let model = write_temp("m2.rml", MODEL);
    let model = model.to_str().unwrap();
    let (ok, _) = ivy(&["kinv", model, "-k", "2", "forall C:client. ~has_lock(C)"]);
    assert!(!ok, "someone can acquire within 2 steps");
    let (ok, text) = ivy(&["kinv", model, "-k", "2", "lock_free | ~lock_free"]);
    assert!(ok, "{text}");
}

#[test]
fn bad_strategy_or_unknown_flag_is_a_usage_error() {
    let model = write_temp("u.rml", MODEL);
    let model = model.to_str().unwrap();
    for args in [
        // There is no `--strategy` flag: the differential tests select the
        // reference strategy through the library.
        &["prove", model, "--strategy", "turbo"][..],
        &["prove", model, "--strategy", "parallel"],
        &["prove", model, "--strategy", "portfolio"],
        // A flag the command does not define is refused, not ignored.
        &["prove", model, "--jobs", "2"],
        &["prove", model, "--strategy", "session", "--jobs", "2"],
        &["prove", model, "--bogus", "7"],
        &["bmc", model, "--vars", "1"],
        // Nor does the server accept one.
        &["serve", "--strategy", "fresh", "--listen", "127.0.0.1:0"],
    ] {
        let (code, text) = ivy_code(args);
        assert_eq!(code, 2, "{args:?}: {text}");
        assert!(text.contains("error:"), "{args:?}: {text}");
    }
}

#[test]
fn profile_flag_writes_schema_valid_report() {
    let model = write_temp("p.rml", MODEL);
    let inv = write_temp("p.inv", INVARIANT);
    let profile = std::env::temp_dir().join(format!("ivy_cli_{}_profile.json", std::process::id()));
    let (code, text) = ivy_code(&[
        "prove",
        model.to_str().unwrap(),
        inv.to_str().unwrap(),
        "--profile",
        profile.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("inductive"), "{text}");
    let json = std::fs::read_to_string(&profile).unwrap();
    let report = Json::parse(&json).unwrap();
    let Json::Obj(fields) = &report else {
        panic!("{json}")
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    let expected = "cache caches command counters grounding model outcome phases queries sat \
                    schema stop wall_ms";
    assert_eq!(keys.join(" "), expected);
    let at = |block: &str, key: &str| report.get(block).and_then(|b| b.get(key));
    let text = |key| report.get(key).and_then(Json::as_str);
    assert_eq!(text("schema"), Some("ivy-profile-v1"), "{json}");
    assert_eq!(text("outcome"), Some("inductive"), "{json}");
    let firings = at("grounding", "final_check_firings");
    assert_eq!(firings.and_then(Json::as_u64), Some(0), "{json}");
    // The CLI profile carries the same frame-cache block as a serve
    // response, and it agrees with the process's own counter.
    let built = at("cache", "sessions_built");
    assert_eq!(built, at("counters", "oracle.sessions_built"), "{json}");
    // The size gauges are the maxima over the run's queries, never 0; so
    // is the number of sessions built.
    for (block, gauge) in [
        ("grounding", "universe"),
        ("sat", "vars"),
        ("sat", "clauses"),
        ("cache", "sessions_built"),
    ] {
        let value = at(block, gauge).and_then(Json::as_u64);
        assert!(value > Some(0), "{block}.{gauge}: {json}");
    }
    std::fs::remove_file(&profile).ok();
}

#[test]
fn zero_timeout_degrades_to_unknown_with_partial_profile() {
    let model = write_temp("t.rml", MODEL);
    let inv = write_temp("t.inv", INVARIANT);
    let profile = std::env::temp_dir().join(format!("ivy_cli_{}_timeout.json", std::process::id()));
    let (code, text) = ivy_code(&[
        "prove",
        model.to_str().unwrap(),
        inv.to_str().unwrap(),
        "--timeout",
        "0",
        "--profile",
        profile.to_str().unwrap(),
    ]);
    // Graceful degradation: exit 3 ("unknown"), never a wrong verdict or
    // a panic; the profile still records partial statistics.
    assert_eq!(code, 3, "{text}");
    assert!(text.contains("unknown (deadline exceeded)"), "{text}");
    assert!(!text.contains("inductive"), "{text}");
    let report = Json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
    let text = |key| report.get(key).and_then(Json::as_str);
    assert_eq!(text("outcome"), Some("unknown"), "{report}");
    assert_eq!(text("stop"), Some("deadline"), "{report}");
    std::fs::remove_file(&profile).ok();
}

#[test]
fn repeated_or_valueless_flags_are_usage_errors() {
    let model = write_temp("dup.rml", MODEL);
    let model = model.to_str().unwrap();
    for args in [
        // A repeated global flag must not silently pick one value.
        &["prove", model, "--timeout", "5", "--timeout", "10"][..],
        &[
            "prove",
            model,
            "--strategy",
            "session",
            "--strategy",
            "fresh",
        ],
        // A repeated subcommand flag is just as ambiguous.
        &["bmc", model, "-k", "2", "-k", "3"],
        &["houdini", model, "--vars", "1", "--vars", "2"],
        // A flag with no value must not be reparsed as a positional arg,
        // nor fall back to its default.
        &["prove", model, "--timeout"],
        &["prove", model, "--strategy"],
        &["bmc", model, "-k"],
        &["houdini", model, "--vars", "1", "--lits"],
    ] {
        let (code, text) = ivy_code(args);
        assert_eq!(code, 2, "{args:?}: {text}");
        assert!(text.contains("error:"), "{args:?}: {text}");
    }
}

#[test]
fn usage_mentions_serve_and_client() {
    let (code, text) = ivy_code(&[]);
    assert_eq!(code, 2);
    assert!(text.contains("serve"), "{text}");
    assert!(text.contains("client"), "{text}");
}

#[test]
fn serve_and_client_roundtrip_over_tcp() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Stdio};

    let model = write_temp("srv.rml", MODEL);
    let inv = write_temp("srv.inv", INVARIANT);
    let model = model.to_str().unwrap();
    let inv = inv.to_str().unwrap();

    // Start the daemon on an ephemeral port; the first stdout line is the
    // address contract.
    let mut server: Child = Command::new(env!("CARGO_BIN_EXE_ivy"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ivy serve");
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("ivy-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();

    // Thin-driver verdicts and exit codes mirror the one-shot CLI.
    let (code, text) = ivy_code(&["client", "--connect", &addr, "prove", model, inv]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("verdict: inductive"), "{text}");
    assert!(text.contains("cache:"), "{text}");

    let (code, text) = ivy_code(&["client", "--connect", &addr, "prove", model]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("verdict: cti"), "{text}");

    let (code, text) = ivy_code(&["client", "--connect", &addr, "bmc", model, "-k", "2"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("verdict: safe"), "{text}");

    // A second identical prove is served from the warm frame cache.
    let (code, text) = ivy_code(&["client", "--connect", &addr, "prove", model, inv, "--raw"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("\"frame_hits\""), "{text}");
    assert!(text.contains("\"frame_misses\":0"), "{text}");

    let (code, text) = ivy_code(&["client", "--connect", &addr, "status"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("verdict: ok"), "{text}");

    // Budget exhaustion over the wire: exit 3, like the one-shot CLI.
    let (code, text) = ivy_code(&[
        "client",
        "--connect",
        &addr,
        "prove",
        model,
        inv,
        "--timeout",
        "0",
    ]);
    assert_eq!(code, 3, "{text}");

    // Clean shutdown via the protocol; the server process exits 0.
    let (code, text) = ivy_code(&["client", "--connect", &addr, "shutdown"]);
    assert_eq!(code, 0, "{text}");
    let status = server.wait().expect("server wait");
    assert_eq!(status.code(), Some(0));

    // Usage errors in the client itself.
    let (code, text) = ivy_code(&["client", "prove", model]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("--connect"), "{text}");
}
