//! `prove-cold`: one fresh `ivy prove` process per request, run
//! sequentially, round-robin over the seven protocols in seeded order.
//!
//! The traced run replays each request in a child process of the
//! benchmark (`--child-prove`) that performs the same steps as `ivy prove`
//! and times each layer call from inside.

use std::error::Error;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ivy_core::{Inductiveness, Oracle, Verifier};
use ivy_epr::InstantiationMode;
use ivy_serve::Json;

use crate::calib::Calibration;
use crate::corpus::{self, Files, Protocol, Rng};
use crate::stats::Latencies;
use crate::trace::{self, Counts, Tracer};
use crate::{children_max_rss_kb, end_to_end, Opts, Report, MIN_OPS};

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds (each protocol once, in seeded order) in a traced run.
const TRACE_ROUNDS: usize = 4;

pub fn run(opts: &Opts) -> Result<Report, String> {
    let protos = corpus::protocols();
    let dir = opts.work_dir();
    let mut rng = Rng::new(opts.seed, "prove-cold");
    let mut report = Report::default();

    // Set-up: write the inputs, then one prove per protocol.
    let mut calib = Calibration::default();
    let mut setups = Vec::new();
    let mut files = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            opts.started
        } else {
            Instant::now()
        };
        files = protos
            .iter()
            .map(|p| corpus::write_files(&dir, p))
            .collect::<Result<Vec<Files>, _>>()
            .map_err(|e| format!("writing inputs: {e}"))?;
        for i in rng.permutation(protos.len()) {
            let (ok, _) = prove(opts, &protos[i], &files[i])?;
            report.check(ok);
        }
        setups.push(t0.elapsed().as_secs_f64());
        if opts.trace {
            break;
        }
        calib.probe(10);
    }

    if opts.trace {
        return traced(opts, &protos, &files, &mut rng, report);
    }
    let mut lat = Latencies::default();
    let start = Instant::now();
    let probed = calib.spent();
    let budget = Duration::from_secs_f64(opts.seconds);
    while start.elapsed() < budget || lat.count() < MIN_OPS {
        for i in rng.permutation(protos.len()) {
            let (ok, ms) = prove(opts, &protos[i], &files[i])?;
            report.check(ok);
            if ok {
                lat.add(protos[i].name, ms);
            }
            calib.probe(1);
        }
    }
    let elapsed = start.elapsed() - (calib.spent() - probed);
    let rss = children_max_rss_kb();
    report.metrics = end_to_end(opts, &lat, start, elapsed, &setups, rss, Some(&calib));
    Ok(report)
}

/// Runs `ivy prove` on the full invariant; returns (verdict correct, ms).
fn prove(opts: &Opts, proto: &Protocol, files: &Files) -> Result<(bool, f64), String> {
    let mut cmd = Command::new(&opts.ivy);
    cmd.arg("prove").arg(&files.model).arg(&files.inv);
    if let Some(b) = proto.bound {
        cmd.args(["--bound", &b.to_string()]);
    }
    cmd.stderr(Stdio::null());
    let t = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", opts.ivy.display()))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = out.status.code() == Some(0) && out.stdout.starts_with(b"inductive:");
    Ok((ok, ms))
}

/// The traced run: the same seeded request list once through `ivy prove`
/// (untraced) and once through `--child-prove` replays (traced).
fn traced(
    opts: &Opts,
    protos: &[Protocol],
    files: &[Files],
    rng: &mut Rng,
    mut report: Report,
) -> Result<Report, String> {
    let list: Vec<usize> = (0..TRACE_ROUNDS)
        .flat_map(|_| rng.permutation(protos.len()))
        .collect();
    let mut untraced = Latencies::default();
    for &i in &list {
        let (ok, ms) = prove(opts, &protos[i], &files[i])?;
        report.check(ok);
        untraced.add(protos[i].name, ms);
    }

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut traced = Latencies::default();
    for &i in &list {
        let mut cmd = Command::new(&exe);
        cmd.arg("--child-prove")
            .arg(&files[i].model)
            .arg(&files[i].inv);
        if let Some(b) = protos[i].bound {
            cmd.args(["--bound", &b.to_string()]);
        }
        cmd.stderr(Stdio::null());
        let t0 = Instant::now();
        let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
        let t1 = Instant::now();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let child = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let ok = out.status.success()
            && child
                .as_ref()
                .and_then(|c| c.get("verdict"))
                .and_then(Json::as_str)
                == Some("inductive");
        report.check(ok);
        let Some(child) = child else { continue };
        let num = |key: &str| child.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let req = tracer.request();
        let root = tracer.span(req, None, "process", t0, t1);
        let start = tracer.ms(t0);
        let main = tracer.span_ms(req, root, "child.main", start, num("main_ms"));
        tracer.span_ms(req, main, "rml.parse", start, num("parse_ms"));
        tracer.span_ms(req, main, "rml.check", start, num("check_ms"));
        let vc = tracer.span_ms(req, main, "core.vc", start, num("vc_ms"));
        tracer.phases(req, vc, &trace::Phases::new(), &object(&child, "phases"));
        let counters: Vec<(String, u64)> = object(&child, "counters")
            .into_iter()
            .map(|(k, v)| (k, v as u64))
            .collect();
        counts.add_counters(&[], &counters);
        counts.frame_hits += num("frame_hits") as u64;
        counts.frame_misses += num("frame_misses") as u64;
        counts.sessions_built += num("sessions_built") as u64;
        traced.add(protos[i].name, (t1 - t0).as_secs_f64() * 1e3);
    }
    tracer
        .write(&opts.trace_path())
        .map_err(|e| format!("writing spans: {e}"))?;
    let overhead = traced.p50_gmean() - untraced.p50_gmean();
    report.metrics = trace::layer_metrics(&tracer, &counts, overhead);
    Ok(report)
}

/// A JSON object of numbers as a name → value map.
fn object(json: &Json, key: &str) -> trace::Phases {
    match json.get(key) {
        Some(Json::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        _ => trace::Phases::new(),
    }
}

/// `--child-prove MODEL INV [--bound N]`: the steps of `ivy prove`, each
/// timed, with telemetry on. Prints one JSON line.
pub fn child_prove(args: &[String]) -> ExitCode {
    let t0 = Instant::now();
    ivy_telemetry::set_enabled(true);
    match child_inner(args, t0) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("child-prove: {e}");
            ExitCode::from(2)
        }
    }
}

fn child_inner(args: &[String], t0: Instant) -> Result<String, Box<dyn Error>> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let [model, inv, rest @ ..] = args else {
        return Err("usage: --child-prove MODEL INV [--bound N]".into());
    };
    let bound = match rest {
        [] => None,
        [flag, n] if flag == "--bound" => Some(n.parse::<usize>()?),
        _ => return Err("unexpected arguments".into()),
    };
    let src = std::fs::read_to_string(model)?;
    let inv_src = std::fs::read_to_string(inv)?;

    let t = Instant::now();
    let program = ivy_rml::parse_program(&src)?;
    let mut parse_ms = ms(t);
    let t = Instant::now();
    let (fragment, hard): (Vec<_>, Vec<_>) = ivy_rml::check_program(&program)
        .into_iter()
        .partition(ivy_rml::CheckError::is_fragment);
    let check_ms = ms(t);
    if !hard.is_empty() || (!fragment.is_empty() && bound.is_none()) {
        return Err("model does not validate".into());
    }
    let t = Instant::now();
    let mut conjectures = Vec::new();
    for line in inv_src.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, formula) = line.split_once(':').ok_or("expected `name: formula`")?;
        conjectures.push(ivy_core::Conjecture::new(
            name.trim(),
            ivy_fol::parse_formula(formula)?,
        ));
    }
    parse_ms += ms(t);

    let mut oracle = Oracle::new();
    if let Some(depth) = bound {
        oracle.set_mode(InstantiationMode::Bounded(depth));
    }
    let oracle = Arc::new(oracle);
    let verifier = Verifier::with_oracle(&program, oracle.clone());
    let t = Instant::now();
    let verdict = match verifier.check(&conjectures)? {
        Inductiveness::Inductive => "inductive",
        Inductiveness::Cti(_) => "cti",
    };
    let vc_ms = ms(t);

    let phases: Vec<String> = trace::phases_now()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let counters: Vec<String> = ivy_telemetry::counter_snapshot()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let rollup = oracle.rollup();
    Ok(format!(
        "{{\"verdict\": \"{verdict}\", \"parse_ms\": {parse_ms:?}, \"check_ms\": {check_ms:?}, \
         \"vc_ms\": {vc_ms:?}, \"phases\": {{{}}}, \"counters\": {{{}}}, \"frame_hits\": {}, \
         \"frame_misses\": {}, \"sessions_built\": {}, \"main_ms\": {:?}}}",
        phases.join(", "),
        counters.join(", "),
        rollup.frame_hits,
        rollup.frame_misses,
        rollup.sessions_built,
        ms(t0)
    ))
}
