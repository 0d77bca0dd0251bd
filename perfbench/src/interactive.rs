//! `interactive`: the paper's loop (Figure 5). Each session is a fresh
//! `Session` (fresh oracle) driven by an `OracleUser`, over leader, lock
//! server, db chain and Chord in seeded order. A timed `User` wrapper
//! measures each step's wait: from the engine regaining control to the
//! next callback (or to the end of the session). Time inside the oracle
//! user's callbacks is the simulated user's cost and is excluded from step
//! waits.
//!
//! A measured run starts each session in a fresh child process of the
//! benchmark (`--child-session NAME`), as a user starts one tool per
//! session. Sessions run back to back in one process inherit each other's
//! interner and heap, and five such runs spread by 18–23% (IQR of
//! `p50_gmean_ms` over median) against 10% with one process per session.
//! The traced run keeps its fixed list in process, where telemetry and
//! spans can be read directly.

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ivy_core::{
    Conjecture, Cti, CtiDecision, OracleUser, Proposal, ProposalDecision, Session, SessionCtx,
    SessionOutcome, TooStrongDecision, Trace, User, Verifier,
};
use ivy_fol::PartialStructure;
use ivy_telemetry::OracleRollup;

use crate::corpus::{self, Protocol, Rng};
use crate::stats::Latencies;
use crate::trace::{self, Counts, Phases, Tracer};
use crate::{children_max_rss_kb, end_to_end, Opts, Report, MIN_OPS};
use ivy_serve::Json;

/// Set-up passes per run (one lock-server session each); `setup_s` is
/// their median.
const SETUP_REPS: usize = 3;
/// CTI budget per session; every protocol here converges well within it.
const MAX_CTIS: usize = 40;

/// One step's wait. `kind` is the layer it is booked to: the wait for
/// `on_cti` is CTI search plus minimization, the wait for `on_proposal` /
/// `on_too_strong` is BMC plus auto-generalization, and the wait for the
/// session to end is the final inductiveness check.
struct Wait {
    kind: &'static str,
    start: Instant,
    end: Instant,
    phases: Option<(Phases, Phases)>,
}

/// Wraps the oracle user, recording waits and callback intervals.
struct TimedUser {
    inner: OracleUser,
    traced: bool,
    last: Instant,
    mark: Option<Phases>,
    waits: Vec<Wait>,
    callbacks: Vec<(Instant, Instant)>,
}

impl TimedUser {
    fn new(inner: OracleUser, traced: bool) -> TimedUser {
        let mut u = TimedUser {
            inner,
            traced,
            last: Instant::now(),
            mark: None,
            waits: Vec::new(),
            callbacks: Vec::new(),
        };
        u.resume();
        u
    }

    fn snapshot(&self) -> Option<Phases> {
        self.traced.then(trace::phases_now)
    }

    /// Control passes to the user: the current wait ends.
    fn enter(&mut self, kind: &'static str) -> Instant {
        let end = Instant::now();
        let phases = self.mark.take().zip(self.snapshot());
        self.waits.push(Wait {
            kind,
            start: self.last,
            end,
            phases,
        });
        end
    }

    /// Control returns to the engine: a new wait starts.
    fn resume(&mut self) {
        self.mark = self.snapshot();
        self.last = Instant::now();
    }

    fn leave(&mut self, entered: Instant) {
        self.callbacks.push((entered, Instant::now()));
        self.resume();
    }
}

impl User for TimedUser {
    fn on_cti(&mut self, ctx: &SessionCtx<'_>, cti: &Cti) -> CtiDecision {
        let t = self.enter("core.minimize");
        let d = self.inner.on_cti(ctx, cti);
        self.leave(t);
        d
    }

    fn on_too_strong(
        &mut self,
        ctx: &SessionCtx<'_>,
        attempted: &PartialStructure,
        trace: &Trace,
    ) -> TooStrongDecision {
        let t = self.enter("core.generalize");
        let d = self.inner.on_too_strong(ctx, attempted, trace);
        self.leave(t);
        d
    }

    fn on_proposal(&mut self, ctx: &SessionCtx<'_>, proposal: &Proposal) -> ProposalDecision {
        let t = self.enter("core.generalize");
        let d = self.inner.on_proposal(ctx, proposal);
        self.leave(t);
        d
    }
}

/// Everything one session recorded.
struct SessionRun {
    start: Instant,
    parsed: Instant,
    checked: Instant,
    user: TimedUser,
    recheck: Wait,
    end: Instant,
    /// Proved, and the final invariant re-checked inductive by a fresh
    /// verifier on a fresh oracle.
    ok: bool,
    ctis: usize,
    rollup: OracleRollup,
}

fn run_session(proto: &Protocol, traced: bool) -> SessionRun {
    let start = Instant::now();
    let program = ivy_rml::parse_program(proto.source).expect("shipped model parses");
    let parsed = Instant::now();
    let valid = ivy_rml::check_program(&program).is_empty();
    let checked = Instant::now();
    let initial: Vec<Conjecture> = program
        .safety
        .iter()
        .map(|(label, f)| Conjecture::new(label.clone(), f.clone()))
        .collect();
    let target = proto.invariant.iter().map(|c| c.formula.clone()).collect();
    let mut session = Session::new(&program, initial, proto.measures.clone());
    let mut user = TimedUser::new(OracleUser::new(target, proto.oracle_bound), traced);
    let outcome = session.run(&mut user, MAX_CTIS);
    user.enter("core.vc");

    let before = user.snapshot();
    let r0 = Instant::now();
    let proved = valid && matches!(outcome, Ok(SessionOutcome::Proved));
    let rechecked = proved
        && Verifier::new(&program)
            .check(session.conjectures())
            .is_ok_and(|r| r.is_inductive());
    let recheck = Wait {
        kind: "core.vc",
        start: r0,
        end: Instant::now(),
        phases: before.zip(user.snapshot()),
    };
    SessionRun {
        start,
        parsed,
        checked,
        recheck,
        ok: rechecked,
        ctis: session.stats().ctis,
        rollup: session.oracle().rollup(),
        user,
        end: Instant::now(),
    }
}

/// A step wait's class suffix: `minimize`, `generalize` or `vc`.
fn kind(w: &Wait) -> &'static str {
    w.kind.trim_start_matches("core.")
}

fn wait_ms(w: &Wait) -> f64 {
    (w.end - w.start).as_secs_f64() * 1e3
}

/// Books a session's step waits as operations. A session that reported
/// no waits at all (its process failed) counts as one failed operation.
fn record(
    report: &mut Report,
    lat: &mut Latencies,
    proto: &str,
    ok: bool,
    waits: &[(String, f64)],
) {
    if waits.is_empty() {
        report.check(false);
    }
    for (kind, ms) in waits {
        report.check(ok);
        lat.add(&format!("{proto}/{kind}"), *ms);
    }
}

/// Runs one session in a fresh child process; returns whether it proved
/// (and re-checked) and its step waits.
fn spawn_session(proto: &Protocol) -> Result<(bool, Vec<(String, f64)>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--child-session", proto.name])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawning a session: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let Some(json) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
        return Ok((false, Vec::new()));
    };
    let ok = out.status.success() && json.get("ok").and_then(Json::as_bool) == Some(true);
    let waits = json
        .get("waits")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| {
            let [kind, ms] = w.as_arr()? else { return None };
            Some((kind.as_str()?.to_string(), ms.as_f64()?))
        })
        .collect();
    Ok((ok, waits))
}

/// `--child-session NAME`: one session in this process. Prints
/// `{"ok": bool, "waits": [[kind, ms], ...]}`.
pub fn child_session(args: &[String]) -> ExitCode {
    let protos = corpus::protocols();
    let Some(proto) = args.first().and_then(|name| {
        protos
            .iter()
            .find(|p| p.name == name && corpus::INTERACTIVE.contains(&p.name))
    }) else {
        eprintln!("child-session: expected one of {:?}", corpus::INTERACTIVE);
        return ExitCode::from(2);
    };
    let run = run_session(proto, false);
    let waits: Vec<String> = run
        .user
        .waits
        .iter()
        .map(|w| format!("[\"{}\", {:?}]", kind(w), wait_ms(w)))
        .collect();
    println!("{{\"ok\": {}, \"waits\": [{}]}}", run.ok, waits.join(", "));
    ExitCode::SUCCESS
}

/// Books an in-process session's step waits as operations.
fn record_run(report: &mut Report, lat: &mut Latencies, proto: &Protocol, run: &SessionRun) {
    let waits: Vec<(String, f64)> = run
        .user
        .waits
        .iter()
        .map(|w| (kind(w).to_string(), wait_ms(w)))
        .collect();
    record(report, lat, proto.name, run.ok, &waits);
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let protos: Vec<Protocol> = corpus::protocols()
        .into_iter()
        .filter(|p| corpus::INTERACTIVE.contains(&p.name))
        .collect();
    let lock = protos
        .iter()
        .position(|p| p.name == "lock_server")
        .expect("lock server is an interactive protocol");
    let mut rng = Rng::new(opts.seed, "interactive");
    let mut report = Report::default();

    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            opts.started
        } else {
            Instant::now()
        };
        let (ok, waits) = spawn_session(&protos[lock])?;
        record(
            &mut report,
            &mut Latencies::default(),
            "lock_server",
            ok,
            &waits,
        );
        setups.push(t0.elapsed().as_secs_f64());
        if opts.trace {
            break;
        }
    }

    if opts.trace {
        return traced(opts, &protos, &mut rng, report);
    }
    let mut lat = Latencies::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    // A round takes 10–14 s, so the run ends at the round boundary nearest
    // `--seconds`, not the first one after it, which would stretch a run
    // by up to a round.
    let (mut rounds, mut round) = (0, Duration::ZERO);
    while start.elapsed() + round / 2 < budget || lat.count() < MIN_OPS {
        for i in rng.permutation(protos.len()) {
            let (ok, waits) = spawn_session(&protos[i])?;
            record(&mut report, &mut lat, protos[i].name, ok, &waits);
        }
        rounds += 1;
        round = start.elapsed() / rounds;
    }
    let elapsed = start.elapsed();
    let rss = children_max_rss_kb();
    report.metrics = end_to_end(opts, &lat, start, elapsed, &setups, rss, None);
    Ok(report)
}

/// The traced run: one seeded round of sessions untraced, then the same
/// round with telemetry on and spans recorded.
fn traced(
    opts: &Opts,
    protos: &[Protocol],
    rng: &mut Rng,
    mut report: Report,
) -> Result<Report, String> {
    let list = rng.permutation(protos.len());
    let mut untraced = Latencies::default();
    for &i in &list {
        let run = run_session(&protos[i], false);
        record_run(&mut report, &mut untraced, &protos[i], &run);
    }

    ivy_telemetry::set_enabled(true);
    let counters_before = ivy_telemetry::counter_snapshot();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut traced = Latencies::default();
    for &i in &list {
        let run = run_session(&protos[i], true);
        record_run(&mut report, &mut traced, &protos[i], &run);
        counts.add_rollup(&run.rollup);
        counts.steps += run.ctis as u64;
        let req = tracer.request();
        let root = tracer.span(req, None, "session", run.start, run.end);
        tracer.span(req, Some(root), "rml.parse", run.start, run.parsed);
        tracer.span(req, Some(root), "rml.check", run.parsed, run.checked);
        for w in run.user.waits.iter().chain([&run.recheck]) {
            let id = tracer.span(req, Some(root), w.kind, w.start, w.end);
            if let Some((before, after)) = &w.phases {
                tracer.phases(req, id, before, after);
            }
        }
        for &(a, b) in &run.user.callbacks {
            tracer.span(req, Some(root), "users.oracle", a, b);
        }
    }
    counts.add_counters(&counters_before, &ivy_telemetry::counter_snapshot());
    ivy_telemetry::set_enabled(false);
    tracer
        .write(&opts.trace_path())
        .map_err(|e| format!("writing spans: {e}"))?;
    let overhead = traced.p50_gmean() - untraced.p50_gmean();
    report.metrics = trace::layer_metrics(&tracer, &counts, overhead);
    Ok(report)
}
