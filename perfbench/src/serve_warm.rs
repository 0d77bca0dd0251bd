//! `serve-warm`: the real `ivy serve --workers 2` as a child process,
//! driven by two closed-loop connections. The seeded mix covers the six
//! EPR protocols with three request types each: verify of the full
//! invariant (`inductive`), verify of a hand-picked non-inductive
//! drop-one variant (`cti`), and `bmc` at depth 2 (`safe`). Every
//! distinct request is sent once during set-up, so the measured phase
//! reads the server's warm frame pool.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ivy_serve::{Client, Endpoint, Json, ServeConfig, Server};

use crate::corpus::{self, Protocol, Rng};
use crate::stats::Latencies;
use crate::trace::{self, Counts, Tracer};
use crate::{end_to_end, vm_hwm_kb, Opts, Report};

/// Set-up passes per run (server start plus one pass over the distinct
/// requests); `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Server workers, and closed-loop client connections.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Rounds (each distinct request once, in seeded order) in a traced run.
const TRACE_ROUNDS: usize = 5;
/// `peak_rss_mb` is the server's `VmHWM` once this many measured
/// responses have arrived. The server's RSS grows with every request it
/// serves (about 1.3 GB after 900 requests, 2 GB after 2,400), so reading
/// it at the end of the run would make a faster server look bigger.
const RSS_AFTER: usize = 400;

/// One distinct request and its expected verdict.
struct Request {
    /// `protocol/type`: the unit `p50_gmean_ms` takes a median over.
    class: String,
    model: &'static str,
    invariant: Option<String>,
    line: String,
    expect: &'static str,
}

fn requests(protos: &[Protocol]) -> Vec<Request> {
    let mut out = Vec::new();
    for p in protos.iter().filter(|p| p.drop.is_some()) {
        let full = corpus::inv_text(&p.invariant);
        let dropped = corpus::inv_text(&p.dropped_invariant());
        for (inv, kind, expect) in [(full, "verify", "inductive"), (dropped, "cti", "cti")] {
            let line = Json::obj([
                ("cmd", Json::str("verify")),
                ("model", Json::str(p.source)),
                ("invariant", Json::str(inv.clone())),
            ]);
            out.push(Request {
                class: format!("{}/{kind}", p.name),
                model: p.source,
                invariant: Some(inv),
                line: line.to_string(),
                expect,
            });
        }
        let line = Json::obj([
            ("cmd", Json::str("bmc")),
            ("model", Json::str(p.source)),
            ("depth", Json::num(2.0)),
        ]);
        out.push(Request {
            class: format!("{}/bmc", p.name),
            model: p.source,
            invariant: None,
            line: line.to_string(),
            expect: "safe",
        });
    }
    out
}

/// Whether a response line carries the expected verdict. `busy`,
/// `unknown` and every error count as failures.
fn verdict_ok(response: &Json, expect: &str) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
        && response.get("verdict").and_then(Json::as_str) == Some(expect)
}

/// A running `ivy serve` child.
struct ServerProc {
    child: Child,
    // Kept open so the server's farewell line has a reader.
    _stdout: BufReader<ChildStdout>,
    endpoint: Endpoint,
}

impl ServerProc {
    fn start(opts: &Opts) -> Result<ServerProc, String> {
        let mut child = Command::new(&opts.ivy)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning ivy serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let Some(addr) = banner
            .strip_prefix("ivy-serve listening on ")
            .map(str::trim)
            .filter(|_| read.is_ok())
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected server banner {banner:?}"));
        };
        Ok(ServerProc {
            endpoint: Endpoint::parse(addr),
            child,
            _stdout: stdout,
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connecting: {e}"))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// The `oracle` block of a `status` response.
    fn oracle_status(&self) -> Result<Json, String> {
        let resp = self
            .connect()?
            .roundtrip("{\"cmd\":\"status\"}")
            .map_err(|e| format!("status: {e}"))?;
        Json::parse(&resp)
            .ok()
            .and_then(|j| j.get("oracle").cloned())
            .ok_or_else(|| format!("bad status response {resp}"))
    }

    /// Shuts the server down over the wire and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let acked = self
            .connect()
            .and_then(|mut c| {
                c.roundtrip("{\"cmd\":\"shutdown\"}")
                    .map_err(|e| e.to_string())
            })
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(20);
        while acked && Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err("server did not shut down".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sends one request; returns (verdict correct, round-trip ms, response).
fn send(client: &mut Client, req: &Request) -> Result<(bool, f64, Json), String> {
    let t = Instant::now();
    let resp = client
        .roundtrip(&req.line)
        .map_err(|e| format!("round-trip: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let json = Json::parse(&resp).map_err(|e| format!("bad response: {e}"))?;
    Ok((verdict_ok(&json, req.expect), ms, json))
}

/// Starts a server and sends every distinct request once.
fn set_up(
    opts: &Opts,
    reqs: &[Request],
    rng: &mut Rng,
    report: &mut Report,
) -> Result<ServerProc, String> {
    let server = ServerProc::start(opts)?;
    let mut client = server.connect()?;
    for i in rng.permutation(reqs.len()) {
        let (ok, _, _) = send(&mut client, &reqs[i])?;
        report.check(ok);
    }
    Ok(server)
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let reqs = requests(&corpus::protocols());
    let mut rng = Rng::new(opts.seed, "serve-warm");
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            ServerProc::stop(s)?;
        }
        let t0 = if rep == 0 {
            opts.started
        } else {
            Instant::now()
        };
        server = Some(set_up(opts, &reqs, &mut rng, &mut report)?);
        setups.push(t0.elapsed().as_secs_f64());
        if opts.trace {
            break;
        }
    }
    let server = server.expect("set up at least once");

    if opts.trace {
        return traced(opts, &reqs, &mut rng, server, report);
    }
    let budget = Duration::from_secs_f64(opts.seconds);
    let done = AtomicUsize::new(0);
    let peak = AtomicU64::new(0);
    let start = Instant::now();
    let per_conn: Vec<Result<(Latencies, Report), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mut rng = Rng::new(opts.seed, &format!("serve-warm/connection{c}"));
                let (reqs, server, done, peak) = (&reqs, &server, &done, &peak);
                scope.spawn(move || {
                    let mut client = server.connect()?;
                    let mut lat = Latencies::default();
                    let mut report = Report::default();
                    while start.elapsed() < budget || done.load(Ordering::SeqCst) < RSS_AFTER {
                        for i in rng.permutation(reqs.len()) {
                            let (ok, ms, _) = send(&mut client, &reqs[i])?;
                            if done.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AFTER {
                                peak.store(vm_hwm_kb(&server.pid()), Ordering::SeqCst);
                            }
                            report.check(ok);
                            if ok {
                                lat.add(&reqs[i].class, ms);
                            }
                        }
                    }
                    Ok((lat, report))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut lat = Latencies::default();
    for r in per_conn {
        let (l, rep) = r?;
        lat.merge(l);
        report.attempted += rep.attempted;
        report.failed += rep.failed;
    }
    server.stop()?;
    let rss = peak.into_inner();
    report.metrics = end_to_end(opts, &lat, start, elapsed, &setups, rss, None);
    Ok(report)
}

/// The traced run, on one connection: the seeded request list untraced,
/// then again with spans and the responses' profile blocks recorded, then
/// once more through an in-process `Server::handle_line` with telemetry on.
fn traced(
    opts: &Opts,
    reqs: &[Request],
    rng: &mut Rng,
    server: ServerProc,
    mut report: Report,
) -> Result<Report, String> {
    let list: Vec<usize> = (0..TRACE_ROUNDS)
        .flat_map(|_| rng.permutation(reqs.len()))
        .collect();
    let mut client = server.connect()?;
    let mut untraced = Latencies::default();
    for &i in &list {
        let (ok, ms, _) = send(&mut client, &reqs[i])?;
        report.check(ok);
        untraced.add(&reqs[i].class, ms);
    }

    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut traced = Latencies::default();
    let oracle_before = server.oracle_status()?;
    for &i in &list {
        let t0 = Instant::now();
        let (ok, ms, resp) = send(&mut client, &reqs[i])?;
        let t1 = Instant::now();
        report.check(ok);
        traced.add(&reqs[i].class, ms);
        let req = tracer.request();
        let root = tracer.span(req, None, "serve.roundtrip", t0, t1);
        let wall = resp.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
        tracer.span_ms(req, root, "serve.engine", tracer.ms(t0), wall);
        let profile = |path: &[&str]| {
            path.iter()
                .try_fold(&resp, |j, k| j.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        counts.queries += profile(&["profile", "queries"]);
        counts.instances += profile(&["profile", "grounding", "instances"]);
        counts.decisions += profile(&["profile", "sat", "decisions"]);
        counts.propagations += profile(&["profile", "sat", "propagations"]);
        counts.conflicts += profile(&["profile", "sat", "conflicts"]);
    }
    let oracle_after = server.oracle_status()?;
    let delta = |key: &str| {
        let get = |j: &Json| j.get(key).and_then(Json::as_u64).unwrap_or(0);
        get(&oracle_after).saturating_sub(get(&oracle_before))
    };
    counts.frame_hits = delta("frame_hits");
    counts.frame_misses = delta("frame_misses");
    counts.sessions_built = delta("sessions_built");
    drop(client);
    server.stop()?;

    handle_line_pass(reqs, &list, &mut tracer, &mut report);
    tracer
        .write(&opts.trace_path())
        .map_err(|e| format!("writing spans: {e}"))?;
    let overhead = traced.p50_gmean() - untraced.p50_gmean();
    report.metrics = trace::layer_metrics(&tracer, &counts, overhead);
    Ok(report)
}

/// The request list through an in-process server, one thread, after one
/// warming pass. Parsing and validation happen inside `handle_line`; the
/// benchmark replays them on the same text just before each call and books
/// the replay times as synthetic children of the call.
fn handle_line_pass(reqs: &[Request], list: &[usize], tracer: &mut Tracer, report: &mut Report) {
    let server = Server::new(ServeConfig {
        workers: WORKERS,
        queue: WORKERS * 4,
        pool_capacity: (WORKERS * 24).max(64),
        ..ServeConfig::default()
    });
    let ok = |handled: ivy_serve::Handled, req: &Request| {
        Json::parse(handled.response.trim_end()).is_ok_and(|j| verdict_ok(&j, req.expect))
    };
    for req in reqs {
        report.check(ok(server.handle_line(&req.line), req));
    }
    ivy_telemetry::set_enabled(true);
    for &i in list {
        let req = &reqs[i];
        let t = Instant::now();
        let program = ivy_rml::parse_program(req.model).expect("shipped model parses");
        for line in req.invariant.iter().flat_map(|s| s.lines()) {
            let formula = line.split_once(':').map_or(line, |(_, f)| f);
            let _ = ivy_fol::parse_formula(formula);
        }
        let parse_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let _ = ivy_rml::check_program(&program);
        let check_ms = t.elapsed().as_secs_f64() * 1e3;

        let before = trace::phases_now();
        let h0 = Instant::now();
        let handled = server.handle_line(&req.line);
        let h1 = Instant::now();
        let after = trace::phases_now();
        report.check(ok(handled, req));
        let id = tracer.request();
        let root = tracer.span(id, None, "serve.handle_line", h0, h1);
        tracer.span_ms(id, root, "rml.parse", tracer.ms(h0), parse_ms);
        tracer.span_ms(id, root, "rml.check", tracer.ms(h0), check_ms);
        tracer.phases(id, root, &before, &after);
    }
    ivy_telemetry::set_enabled(false);
}
