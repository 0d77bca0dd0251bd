//! `ivy` — the command-line front end of the verifier.
//!
//! ```text
//! ivy check  MODEL.rml                      parse + validate the model
//! ivy bmc    MODEL.rml -k N                 bounded verification to depth N
//! ivy kinv   MODEL.rml -k N "FORMULA"       k-invariance of a property
//! ivy prove  MODEL.rml [INV.inv]            check an inductive invariant
//! ivy cti    MODEL.rml [INV.inv]            show a (minimal) CTI
//! ivy dot    MODEL.rml [INV.inv]            render a CTI state as DOT
//! ivy houdini MODEL.rml [--vars V --lits L] infer an invariant by template
//! ivy infer   MODEL.rml [--vars V --lits L]  synthesize an inductive
//!             [--no-constants]               invariant from safety alone
//! ivy serve   --listen ADDR | --socket PATH  run the verification daemon
//! ivy client  --connect ADDR CMD [args]      drive a running daemon
//! ```
//!
//! Invariant files (`.inv`) contain one conjecture per line:
//! `name: formula` (blank lines and `#` comments ignored). Without an
//! invariant file, the model's safety properties are used.
//!
//! Global flags (any command):
//!
//! * `--timeout SECS` — wall-clock budget. On expiry the run prints
//!   `unknown (deadline exceeded)` and exits with code 3; it never
//!   reports a wrong verdict or panics.
//! * `--bound N` — bounded quantifier instantiation: ground terms are
//!   built only to nesting depth N, which admits models *outside* the
//!   EPR fragment (unstratified functions, `∀∃` alternations). UNSAT
//!   results — `inductive`, `safe` — remain verdicts (the bounded
//!   clause set is a subset of the full instantiation); a SAT answer
//!   that leaned on the bound degrades to `unknown (instantiation
//!   bound reached)` with exit code 3, never a wrong verdict. For
//!   `serve` this sets the server-wide default bound; for `client` it
//!   is forwarded as the request's `bound` field.
//! * `--profile OUT.json` — write an `ivy-profile-v1` JSON report
//!   (timing phases, query/grounding/SAT counters, cache hit rates; see
//!   DESIGN.md §4e), including partial statistics on timeout.
//!
//! Every command routes its queries through ONE shared [`Oracle`]
//! configured by these flags, so e.g. `prove` and the CTI minimization it
//! may trigger reuse the same frame-keyed session cache.
//!
//! A one-shot command rejects (exit code 2) any `-`-prefixed argument it
//! does not define, and any of its flags given without a value.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ivy_core::{houdini_with_oracle, Bmc, Conjecture, Inductiveness, Oracle, Verifier};
use ivy_epr::{Budget, EprError, InstantiationMode};
use ivy_fol::parse_formula;
use ivy_rml::{check_program, parse_program, CheckError, Program};
use ivy_serve::proto::parse_inv_lines;
use ivy_serve::{profile, Client, Endpoint, Json, Listener, ServeConfig, Server};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let profile_path = match take_flag(&mut args, "--profile") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let timeout = match take_flag(&mut args, "--timeout") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let timeout_secs = match timeout.as_deref().map(str::parse::<f64>) {
        None => None,
        Some(Ok(secs)) if secs >= 0.0 && secs.is_finite() => Some(secs),
        Some(_) => {
            return usage_error("--timeout expects a non-negative number of seconds");
        }
    };
    let budget = match timeout_secs {
        None => Budget::UNLIMITED,
        Some(secs) => Budget::with_timeout(Duration::from_secs_f64(secs)),
    };
    let bound_flag = match take_flag(&mut args, "--bound") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let bound = match bound_flag.as_deref().map(str::parse::<usize>) {
        None => None,
        Some(Ok(n)) if n >= 1 => Some(n),
        Some(_) => {
            return usage_error("--bound expects a positive instantiation depth");
        }
    };
    // The daemon and its thin driver bypass the one-shot oracle path:
    // `serve` owns a long-lived shared oracle, `client` owns none.
    match args.first().map(String::as_str) {
        Some("serve") => {
            if profile_path.is_some() {
                return usage_error(
                    "--profile is not supported with `serve`; every response carries a profile",
                );
            }
            let default_timeout = timeout_secs.map(Duration::from_secs_f64);
            return cmd_serve(&args[1..], default_timeout, bound);
        }
        Some("client") => {
            if profile_path.is_some() {
                return usage_error(
                    "--profile is not supported with `client`; every response carries a profile",
                );
            }
            let timeout_ms = timeout_secs.map(|s| (s * 1e3).ceil() as u64);
            return cmd_client(&args[1..], timeout_ms, bound);
        }
        _ => {}
    }
    let mut oracle = Oracle::new();
    oracle.set_budget(budget);
    if let Some(depth) = bound {
        oracle.set_mode(InstantiationMode::Bounded(depth));
    }
    let oracle = Arc::new(oracle);
    if profile_path.is_some() {
        ivy_telemetry::reset();
        ivy_telemetry::set_enabled(true);
    }
    let started = Instant::now();
    let result = run(&args, &oracle, bound);
    let (code, verdict, stop) = match result {
        Ok((code, verdict)) => (code, verdict, None),
        Err(e) => match e.downcast_ref::<EprError>() {
            Some(EprError::Inconclusive(r)) => {
                println!("unknown ({r})");
                (ExitCode::from(3), "unknown", Some(*r))
            }
            _ => {
                eprintln!("error: {e}");
                (ExitCode::from(2), "error", None)
            }
        },
    };
    if let Some(path) = &profile_path {
        if let Err(e) = write_profile(path, &args, &oracle, verdict, stop, started.elapsed()) {
            eprintln!("profile: {e}");
            return ExitCode::from(2);
        }
    }
    code
}

/// Removes `flag VALUE` from `args`, returning the value when present.
/// A repeated flag or a flag missing its value is a usage error — silently
/// picking one value (or reparsing the flag as a positional argument)
/// masks caller typos.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} expects a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    if args.iter().any(|a| a == flag) {
        return Err(format!("{flag} given more than once"));
    }
    Ok(Some(value))
}

/// Prints a usage error and yields exit code 2.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Writes the `ivy-profile-v1` report: the merge of every query the
/// oracle answered (counters summed; universe, SAT variables and clauses
/// at their maxima), plus wall time, outcome, the frame-cache block, and
/// what only a whole-process profile may report: the global phase and
/// counter registry and the interner's totals.
fn write_profile(
    path: &str,
    args: &[String],
    oracle: &Oracle,
    verdict: &str,
    stop: Option<ivy_epr::StopReason>,
    wall: Duration,
) -> Result<(), Box<dyn std::error::Error>> {
    let rollup = oracle.rollup();
    let mut report = rollup.report.clone();
    report.outcome = verdict.to_string();
    report.stop = stop;
    report.wall_nanos = wall.as_nanos();
    let mut json = profile::profile(
        &report,
        &ivy_telemetry::phase_snapshot(),
        &ivy_telemetry::counter_snapshot(),
        Some(ivy_fol::intern::cache_stats()),
    );
    let arg = |i: usize| Json::str(args.get(i).map(String::as_str).unwrap_or(""));
    json.insert("command", arg(0));
    json.insert("model", arg(1));
    json.insert("cache", profile::cache(&rollup));
    std::fs::write(path, format!("{json}\n"))?;
    Ok(())
}

fn usage() -> Result<(ExitCode, &'static str), Box<dyn std::error::Error>> {
    eprintln!(
        "usage: ivy <check|bmc|kinv|prove|cti|dot|houdini|infer|serve|client> MODEL.rml [args] \
         [--timeout SECS] [--bound N] [--profile OUT.json]\n\
         ivy serve  --listen ADDR | --socket PATH [--workers N] [--queue N] \
         [--max-timeout SECS] [--max-instances N]\n\
         ivy client --connect ADDR|unix:PATH <prove|bmc|houdini|infer|generalize|status|shutdown> \
         [MODEL.rml] [INV.inv] [--raw]\n\
         see `crates/core/src/bin/ivy.rs` and docs/serve-protocol.md for details"
    );
    Ok((ExitCode::from(2), "usage"))
}

/// Loads and validates a model, returning the program together with its
/// *fragment* problems (unstratified functions, `∀∃`/`∃∀` alternations —
/// exactly what `--bound N` tolerates). Hard problems — unknown symbols,
/// sort errors, malformed updates — still refuse the model outright.
fn load(path: &str) -> Result<(Program, Vec<CheckError>), Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(path)?;
    let program = parse_program(&src)?;
    let (fragment, hard): (Vec<CheckError>, Vec<CheckError>) = check_program(&program)
        .into_iter()
        .partition(CheckError::is_fragment);
    if !hard.is_empty() {
        for p in &hard {
            eprintln!("validation: {p}");
        }
        return Err(format!("{} validation problem(s)", hard.len()).into());
    }
    Ok((program, fragment))
}

/// `ivy check`'s fragment verdict: names the alternation cycle (via the
/// stratification analysis, which identifies the function edges closing
/// it) and any quantifier-alternation violations, without running a
/// single query.
fn print_fragment_report(program: &Program, fragment: &[CheckError], bound: Option<usize>) {
    let strat = program.sig.analyze_stratification();
    if strat.is_stratified() && fragment.is_empty() {
        println!("fragment: EPR (stratified functions; full instantiation decides all queries)");
        return;
    }
    if !strat.is_stratified() {
        let cycle: Vec<String> = strat.cycle.iter().map(ToString::to_string).collect();
        let edges: Vec<String> = strat.edges.iter().map(ToString::to_string).collect();
        println!(
            "fragment: outside EPR — sort cycle {} ({})",
            cycle.join(" -> "),
            edges.join("; ")
        );
    }
    for p in fragment {
        // The stratification line above already names the cycle in more
        // detail than the validation problem restating it.
        if !matches!(p, CheckError::NotStratified(_)) {
            println!("fragment: {p}");
        }
    }
    match bound {
        Some(depth) => println!(
            "fragment: bounded instantiation at depth {depth} applies \
             (UNSAT-backed verdicts remain sound)"
        ),
        None => println!("fragment: use --bound N for bounded (sound-for-UNSAT) checking"),
    }
}

fn load_invariant(
    program: &Program,
    path: Option<&str>,
) -> Result<Vec<Conjecture>, Box<dyn std::error::Error>> {
    match path {
        None => Ok(Conjecture::safety(program)),
        Some(p) => parse_inv_lines(&std::fs::read_to_string(p)?)?
            .into_iter()
            .map(|(name, formula)| Ok(Conjecture::new(name, parse_formula(&formula)?)))
            .collect(),
    }
}

/// The flags each one-shot command defines, with whether each takes a
/// value. Global flags are removed from the arguments before dispatch.
fn command_flags(cmd: &str) -> &'static [(&'static str, bool)] {
    match cmd {
        "bmc" | "kinv" => &[("-k", true)],
        "houdini" => &[("--vars", true), ("--lits", true)],
        "infer" => &[
            ("--vars", true),
            ("--literals", true),
            ("--lits", true),
            ("--no-constants", false),
        ],
        _ => &[],
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run(
    args: &[String],
    oracle: &Arc<Oracle>,
    bound: Option<usize>,
) -> Result<(ExitCode, &'static str), Box<dyn std::error::Error>> {
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    // An unknown, valueless or repeated flag is a typo or ambiguous;
    // refuse rather than silently ignore it, fall back to a default, or
    // pick one value.
    let flags = command_flags(cmd);
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i].as_str();
        if a.len() > 1 && a.starts_with('-') {
            let Some((_, takes_value)) = flags.iter().find(|(f, _)| *f == a) else {
                return Err(format!("{cmd}: unknown flag {a}").into());
            };
            if seen.contains(&a) {
                return Err(format!("{a} given more than once").into());
            }
            seen.push(a);
            if *takes_value {
                if i + 1 == rest.len() {
                    return Err(format!("{a} expects a value").into());
                }
                i += 1;
            }
        }
        i += 1;
    }
    let Some(model_path) = rest.first() else {
        return usage();
    };
    let (program, fragment) = load(model_path)?;
    // `check` is pure analysis — it reports fragment membership instead
    // of refusing. Every querying command needs the fragment problems
    // resolved: admitted under a bound (as notes), refused otherwise.
    if cmd != "check" && !fragment.is_empty() {
        match bound {
            Some(depth) => {
                for p in &fragment {
                    eprintln!("note: outside EPR (admitted by --bound {depth}): {p}");
                }
            }
            None => {
                for p in &fragment {
                    eprintln!("validation: {p}");
                }
                return Err(format!(
                    "{} fragment violation(s); bounded instantiation \
                     (--bound N) can still check this model",
                    fragment.len()
                )
                .into());
            }
        }
    }
    match cmd {
        "check" => {
            println!(
                "ok: {} sorts, {} symbols, {} actions, {} axioms, {} safety properties",
                program.sig.sorts().len(),
                program.sig.symbol_count(),
                program.actions.len(),
                program.axioms.len(),
                program.safety.len()
            );
            print_fragment_report(&program, &fragment, bound);
            Ok((ExitCode::SUCCESS, "ok"))
        }
        "bmc" => {
            let k: usize = flag_value(rest, "-k").unwrap_or("3").parse()?;
            let bmc = Bmc::with_oracle(&program, oracle.clone());
            match bmc.check_safety(k)? {
                None => {
                    println!("safe within {k} loop iterations (any domain size)");
                    Ok((ExitCode::SUCCESS, "safe"))
                }
                Some(trace) => {
                    print!("{}", ivy_core::trace_to_text(&trace));
                    Ok((ExitCode::FAILURE, "trace"))
                }
            }
        }
        "kinv" => {
            let k: usize = flag_value(rest, "-k").unwrap_or("3").parse()?;
            let formula_src = rest
                .iter()
                .skip(1)
                .find(|a| !a.starts_with('-') && flag_value(rest, "-k") != Some(a.as_str()))
                .ok_or("kinv needs a formula argument")?;
            let phi = parse_formula(formula_src)?;
            let bmc = Bmc::with_oracle(&program, oracle.clone());
            match bmc.check_k_invariance(&phi, k)? {
                None => {
                    println!("{k}-invariant");
                    Ok((ExitCode::SUCCESS, "invariant"))
                }
                Some(trace) => {
                    print!("{}", ivy_core::trace_to_text(&trace));
                    Ok((ExitCode::FAILURE, "trace"))
                }
            }
        }
        "prove" => {
            let inv = load_invariant(&program, rest.get(1).map(String::as_str))?;
            let v = Verifier::with_oracle(&program, oracle.clone());
            match v.check(&inv)? {
                Inductiveness::Inductive => {
                    println!(
                        "inductive: the {} conjecture(s) prove safety for any domain size",
                        inv.len()
                    );
                    Ok((ExitCode::SUCCESS, "inductive"))
                }
                Inductiveness::Cti(cti) => {
                    println!("not inductive: {}", cti.violation);
                    println!("CTI state: {}", cti.state);
                    if let Some(s) = &cti.successor {
                        println!("successor: {s}");
                    }
                    Ok((ExitCode::FAILURE, "cti"))
                }
            }
        }
        "cti" | "dot" => {
            let inv = load_invariant(&program, rest.get(1).map(String::as_str))?;
            let v = Verifier::with_oracle(&program, oracle.clone());
            let measures: Vec<ivy_core::Measure> = program
                .sig
                .sorts()
                .iter()
                .map(|s| ivy_core::Measure::SortSize(*s))
                .collect();
            match v.find_minimal_cti(&inv, &measures)? {
                None => {
                    println!("inductive: no CTI");
                    Ok((ExitCode::SUCCESS, "inductive"))
                }
                Some(cti) => {
                    if cmd == "dot" {
                        println!(
                            "{}",
                            ivy_core::structure_to_dot(
                                &cti.state,
                                &ivy_core::VizOptions::default()
                            )
                        );
                    } else {
                        println!("{}", cti.violation);
                        println!("state: {}", cti.state);
                        if let Some(s) = &cti.successor {
                            println!("successor: {s}");
                        }
                    }
                    Ok((ExitCode::FAILURE, "cti"))
                }
            }
        }
        "houdini" => {
            let vars: usize = flag_value(rest, "--vars").unwrap_or("2").parse()?;
            let lits: usize = flag_value(rest, "--lits").unwrap_or("2").parse()?;
            let candidates = ivy_core::enumerate_candidates(&program.sig, vars, lits);
            let result = houdini_with_oracle(&program, candidates, oracle)?;
            println!(
                "{} clause(s) survive after {} CTI(s); proves safety: {}",
                result.invariant.len(),
                result.iterations,
                result.proves_safety
            );
            for c in &result.invariant {
                println!("  {c}");
            }
            Ok(if result.proves_safety {
                (ExitCode::SUCCESS, "safe")
            } else {
                (ExitCode::FAILURE, "not_proved")
            })
        }
        "infer" => {
            let vars: usize = flag_value(rest, "--vars").unwrap_or("2").parse()?;
            let lits: usize = flag_value(rest, "--literals")
                .or_else(|| flag_value(rest, "--lits"))
                .unwrap_or("2")
                .parse()?;
            let opts = ivy_core::InferOptions {
                vars_per_sort: vars,
                max_literals: lits,
                include_constants: !rest.iter().any(|a| a == "--no-constants"),
                ..ivy_core::InferOptions::default()
            };
            let report = ivy_core::infer(&program, oracle, &opts)?;
            println!(
                "{}: {} clause(s) ({} generated, {} blocked from CTIs, \
                 {} enlargement(s), {} Houdini run(s), {} queries)",
                report.status.tag(),
                report.invariant.len(),
                report.generated,
                report.blocked,
                report.enlargements,
                report.houdini_runs,
                report.queries
            );
            for c in &report.invariant {
                println!("  {c}");
            }
            Ok(match report.status {
                ivy_core::InferStatus::Proved => (ExitCode::SUCCESS, "proved"),
                ivy_core::InferStatus::ReachableCounterexample => {
                    (ExitCode::FAILURE, "reachable_cex")
                }
                ivy_core::InferStatus::Exhausted => (ExitCode::FAILURE, "not_proved"),
            })
        }
        _ => usage(),
    }
}

/// `ivy serve`: run the verification daemon (see `docs/serve-protocol.md`).
///
/// The global `--timeout` flag becomes the server's *default* per-request
/// budget; `--max-timeout` caps what clients may ask for.
fn cmd_serve(
    rest: &[String],
    default_timeout: Option<Duration>,
    default_bound: Option<usize>,
) -> ExitCode {
    match serve_inner(rest, default_timeout, default_bound) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn serve_inner(
    rest: &[String],
    default_timeout: Option<Duration>,
    default_bound: Option<usize>,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut rest = rest.to_vec();
    let listen = take_flag(&mut rest, "--listen")?;
    let socket = take_flag(&mut rest, "--socket")?;
    let workers = take_flag(&mut rest, "--workers")?
        .map(|s| s.parse::<usize>())
        .transpose()?;
    let queue = take_flag(&mut rest, "--queue")?
        .map(|s| s.parse::<usize>())
        .transpose()?;
    let max_timeout = take_flag(&mut rest, "--max-timeout")?
        .map(|s| s.parse::<f64>())
        .transpose()?;
    let max_instances = take_flag(&mut rest, "--max-instances")?
        .map(|s| s.parse::<u64>())
        .transpose()?;
    if !rest.is_empty() {
        return Err(format!("serve: unexpected arguments: {}", rest.join(" ")).into());
    }
    let mut config = ServeConfig {
        default_timeout,
        default_bound,
        ..ServeConfig::default()
    };
    if let Some(w) = workers {
        if w == 0 {
            return Err("--workers expects a positive integer".into());
        }
        config.workers = w;
        config.queue = w * 4;
        config.pool_capacity = (w * 24).max(64);
    }
    if let Some(q) = queue {
        config.queue = q;
    }
    if let Some(secs) = max_timeout {
        if !(secs > 0.0 && secs.is_finite()) {
            return Err("--max-timeout expects a positive number of seconds".into());
        }
        config.max_timeout = Some(Duration::from_secs_f64(secs));
    }
    config.instance_cap = max_instances;
    let listener = match (&listen, &socket) {
        (Some(addr), None) => Listener::bind_tcp(addr.as_str())?,
        (None, Some(path)) => {
            #[cfg(unix)]
            {
                Listener::bind_unix(std::path::Path::new(path))?
            }
            #[cfg(not(unix))]
            {
                return Err("--socket is only available on Unix platforms".into());
            }
        }
        _ => return Err("serve needs exactly one of --listen ADDR or --socket PATH".into()),
    };
    // The address line is a contract: tests and scripts bind port 0 and
    // parse the ephemeral port from here.
    println!("ivy-serve listening on {}", listener.describe());
    let server = Arc::new(Server::new(config));
    server.serve_listener(listener)?;
    println!("ivy-serve: shutdown complete");
    Ok(ExitCode::SUCCESS)
}

/// `ivy client`: one request against a running daemon, CLI-shaped.
///
/// The model file is read locally and sent inline, so the server needs no
/// shared filesystem. Exit codes mirror the one-shot CLI: 0 for
/// favorable verdicts, 1 for counterexamples, 3 for budget exhaustion,
/// 2 for everything else.
fn cmd_client(rest: &[String], timeout_ms: Option<u64>, bound: Option<usize>) -> ExitCode {
    match client_inner(rest, timeout_ms, bound) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn client_inner(
    rest: &[String],
    timeout_ms: Option<u64>,
    bound: Option<usize>,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut rest = rest.to_vec();
    let connect = take_flag(&mut rest, "--connect")?
        .ok_or("client needs --connect HOST:PORT or --connect unix:PATH")?;
    let raw = match rest.iter().position(|a| a == "--raw") {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    };
    let k = take_flag(&mut rest, "-k")?
        .map(|s| s.parse::<u64>())
        .transpose()?;
    let vars = take_flag(&mut rest, "--vars")?
        .map(|s| s.parse::<u64>())
        .transpose()?;
    let lits = take_flag(&mut rest, "--lits")?
        .map(|s| s.parse::<u64>())
        .transpose()?;
    let max_instances = take_flag(&mut rest, "--max-instances")?
        .map(|s| s.parse::<u64>())
        .transpose()?;
    let (cmd, cargs) = rest
        .split_first()
        .ok_or("client needs a command: prove|bmc|houdini|infer|generalize|status|shutdown")?;
    let wire_cmd = match cmd.as_str() {
        "prove" | "verify" => "verify",
        "bmc" => "bmc",
        "houdini" => "houdini",
        "infer" => "infer",
        "generalize" => "generalize",
        "status" => "status",
        "shutdown" => "shutdown",
        other => return Err(format!("client: unknown command `{other}`").into()),
    };

    let mut fields: Vec<(&'static str, Json)> =
        vec![("id", Json::str("cli")), ("cmd", Json::str(wire_cmd))];
    if !matches!(wire_cmd, "status" | "shutdown") {
        let model_path = cargs
            .first()
            .ok_or_else(|| format!("client {cmd}: needs a MODEL.rml argument"))?;
        fields.push(("model", Json::str(std::fs::read_to_string(model_path)?)));
        if matches!(wire_cmd, "verify" | "generalize" | "houdini") {
            if let Some(inv_path) = cargs.get(1) {
                fields.push(("invariant", Json::str(std::fs::read_to_string(inv_path)?)));
            }
        }
    }
    if let Some(k) = k {
        fields.push(("depth", Json::num(k as f64)));
    }
    if let Some(v) = vars {
        fields.push(("vars", Json::num(v as f64)));
    }
    if let Some(l) = lits {
        fields.push(("lits", Json::num(l as f64)));
    }
    if let Some(ms) = timeout_ms {
        fields.push(("timeout_ms", Json::num(ms as f64)));
    }
    if let Some(mi) = max_instances {
        fields.push(("max_instances", Json::num(mi as f64)));
    }
    if let Some(depth) = bound {
        fields.push(("bound", Json::num(depth as f64)));
    }

    let mut client = Client::connect(&Endpoint::parse(&connect))?;
    let response = client.roundtrip(&Json::obj(fields).to_string())?;
    if raw {
        println!("{response}");
    }
    let parsed = Json::parse(&response)
        .map_err(|e| format!("malformed server response: {e}: {response}"))?;
    let ok = parsed.get("ok").and_then(Json::as_bool).unwrap_or(false);
    let verdict = parsed.get("verdict").and_then(Json::as_str).unwrap_or("");
    if !raw {
        print_client_response(&parsed, ok, verdict);
    }
    Ok(if ok {
        match verdict {
            "inductive" | "safe" | "ok" | "generalized" => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        }
    } else {
        let code = parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("");
        if code == "budget" {
            ExitCode::from(3)
        } else {
            ExitCode::from(2)
        }
    })
}

/// Human-readable rendering of a server response.
fn print_client_response(parsed: &Json, ok: bool, verdict: &str) {
    if !ok {
        let msg = parsed
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        println!("error: {msg}");
    }
    if !verdict.is_empty() {
        println!("verdict: {verdict}");
    }
    for key in [
        "violation",
        "state",
        "successor",
        "trace",
        "conjecture",
        "iterations",
        "depth",
        "facts",
    ] {
        if let Some(v) = parsed.get(key) {
            match v.as_str() {
                Some(s) if s.contains('\n') => println!("{key}:\n{s}"),
                Some(s) => println!("{key}: {s}"),
                None => println!("{key}: {v}"),
            }
        }
    }
    if let Some(survivors) = parsed.get("survivors").and_then(Json::as_arr) {
        println!("survivors: {}", survivors.len());
        for s in survivors {
            if let Some(s) = s.as_str() {
                println!("  {s}");
            }
        }
    }
    if let Some(cache) = parsed.get("cache") {
        let hits = cache.get("frame_hits").and_then(Json::as_u64).unwrap_or(0);
        let misses = cache
            .get("frame_misses")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        println!("cache: {hits} frame hit(s), {misses} miss(es)");
    }
    if let Some(ms) = parsed.get("wall_ms").and_then(Json::as_f64) {
        println!("wall: {ms:.1} ms");
    }
}
