//! The verification server: admission control, dispatch, and transports.
//!
//! One [`Server`] owns one base [`Oracle`] whose frame-keyed session pool
//! is shared by every request: each request derives a *view* of the
//! oracle carrying that request's budget (`timeout_ms`, `max_instances`)
//! and its own telemetry rollup, so admission control and the response's
//! `profile` are per-request while cache warmth is global.
//! Requests are admitted through a bounded gate (`workers` concurrent
//! executions, `queue` waiting slots); overload is an explicit `busy`
//! error response, never an unbounded queue.
//!
//! The dispatch core ([`Server::handle_line`]) is transport-agnostic and
//! directly unit-testable; [`Server::serve_listener`] wires it to a TCP
//! or Unix-socket listener with one thread per connection.

use std::io::{self, Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ivy_core::{
    enumerate_candidates, houdini_with_oracle, infer, trace_to_text, AutoGen, Bmc, Conjecture,
    Generalizer, Inductiveness, InferOptions, Measure, Oracle, Verifier,
};
use ivy_epr::{Budget, EprError, InstantiationMode};
use ivy_fol::{parse_formula, PartialStructure};
use ivy_rml::{check_program, parse_program, Program};
use ivy_telemetry::OracleRollup;

use crate::json::Json;
use crate::profile;
use crate::proto::{
    error_response, ok_response, parse_request, Command, ErrorCode, Request, WireError,
};

/// Server tuning knobs. [`ServeConfig::default`] suits an interactive
/// localhost daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum concurrently *executing* requests.
    pub workers: usize,
    /// Waiting slots behind the workers; a request arriving when all
    /// workers are busy and the queue is full is refused with `busy`.
    pub queue: usize,
    /// Default per-request wall-clock budget when the request names none.
    pub default_timeout: Option<Duration>,
    /// Server-side cap on per-request `timeout_ms` (requests asking for
    /// more are clamped, not refused).
    pub max_timeout: Option<Duration>,
    /// Server-side cap on per-request `max_instances` (clamped likewise).
    pub instance_cap: Option<u64>,
    /// Default instantiation bound when the request names none: requests
    /// without a `bound` field run bounded at this depth (admitting
    /// non-EPR models server-wide). A request's own `bound` wins.
    pub default_bound: Option<usize>,
    /// Longest accepted request line in bytes; longer lines get an
    /// `oversized` error and the connection is closed (a partially read
    /// line cannot be resynchronized).
    pub max_line_bytes: usize,
    /// Session-pool capacity of the shared oracle (see
    /// [`Oracle::set_pool_capacity`]); sized for `workers` concurrent
    /// tenants re-visiting a handful of hot frames each.
    pub pool_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(2);
        ServeConfig {
            workers,
            queue: workers * 4,
            default_timeout: None,
            max_timeout: None,
            instance_cap: None,
            default_bound: None,
            max_line_bytes: 8 << 20,
            pool_capacity: (workers * 24).max(64),
        }
    }
}

/// Bounded admission gate: at most `workers` tenants inside, at most
/// `queue` waiting. Entering returns a RAII permit (released on drop, so
/// a panicking handler can never leak a slot); a refused entry is the
/// caller's cue to answer `busy`.
struct Gate {
    state: Mutex<(usize, usize)>, // (active, waiting)
    cv: Condvar,
    workers: usize,
    queue: usize,
}

struct Permit<'g>(&'g Gate);

impl Gate {
    fn new(workers: usize, queue: usize) -> Gate {
        Gate {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            workers: workers.max(1),
            queue,
        }
    }

    fn try_enter(&self) -> Option<Permit<'_>> {
        let mut st = self.state.lock().unwrap();
        if st.0 < self.workers {
            st.0 += 1;
            return Some(Permit(self));
        }
        if st.1 >= self.queue {
            return None;
        }
        st.1 += 1;
        loop {
            st = self.cv.wait(st).unwrap();
            if st.0 < self.workers {
                st.1 -= 1;
                st.0 += 1;
                return Some(Permit(self));
            }
        }
    }

    fn load(&self) -> (usize, usize) {
        *self.state.lock().unwrap()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap();
        st.0 -= 1;
        self.0.cv.notify_one();
    }
}

/// Monotonic server counters, all visible through `status`.
#[derive(Default)]
struct Counters {
    received: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
}

/// A successful dispatch: the verdict string plus extra response fields.
type Verdict = (&'static str, Vec<(&'static str, Json)>);

/// A verification server sharing one frame-cached oracle across clients.
pub struct Server {
    config: ServeConfig,
    oracle: Oracle,
    /// The merged rollups of every finished request's oracle view.
    total: Mutex<OracleRollup>,
    gate: Gate,
    counters: Counters,
    stop: AtomicBool,
    started: Instant,
}

/// The outcome of handling one request line.
pub struct Handled {
    /// The response line (newline-terminated, single line).
    pub response: String,
    /// True when the connection should be closed after writing the
    /// response (shutdown acknowledged, or the stream is unrecoverable).
    pub close: bool,
}

impl Handled {
    fn new(response: Json, close: bool) -> Handled {
        Handled {
            response: format!("{response}\n"),
            close,
        }
    }
}

/// A bound listening socket for [`Server::serve_listener`].
pub enum Listener {
    /// TCP.
    Tcp(TcpListener),
    /// Unix domain socket.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds a TCP listener (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-socket listener, replacing a stale socket file.
    #[cfg(unix)]
    pub fn bind_unix(path: &std::path::Path) -> io::Result<Listener> {
        let _ = std::fs::remove_file(path);
        Ok(Listener::Unix(UnixListener::bind(path)?))
    }

    /// A printable address clients can connect to.
    pub fn describe(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".to_string()),
            #[cfg(unix)]
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "<unix>".to_string()),
        }
    }
}

impl Server {
    /// A server with the given tuning; the shared oracle pools sessions
    /// ([`ivy_core::QueryStrategy::Session`]) up to the config's pool
    /// capacity.
    pub fn new(config: ServeConfig) -> Server {
        let oracle = Oracle::new();
        oracle.set_pool_capacity(config.pool_capacity);
        Server {
            gate: Gate::new(config.workers, config.queue),
            oracle,
            total: Mutex::new(OracleRollup::new()),
            counters: Counters::default(),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            config,
        }
    }

    /// True once a `shutdown` request was acknowledged.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown programmatically (same as the wire command).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Handles one request line end to end: parse, admission, dispatch,
    /// response. Always returns a well-formed, newline-terminated JSON
    /// response line — every failure mode maps to an error code.
    pub fn handle_line(&self, line: &str) -> Handled {
        self.counters.received.fetch_add(1, Ordering::Relaxed);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err((id, err)) => return self.refuse(&id, &err),
        };
        if self.stopping() && req.cmd != Command::Status {
            let err = WireError::new(ErrorCode::Shutdown, "server is shutting down");
            return Handled::new(error_response(&req.id, &err), true);
        }
        match req.cmd {
            Command::Status => self.status(&req),
            Command::Shutdown => {
                self.request_stop();
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                Handled::new(ok_response(&req.id, "ok", []), true)
            }
            _ => self.execute(&req),
        }
    }

    /// Admission + engines for query commands.
    fn execute(&self, req: &Request) -> Handled {
        // The budget clock starts at arrival: queue time counts against
        // the request's deadline, so a saturated server degrades to
        // honest `unknown (deadline exceeded)` answers instead of
        // serving stale work long after the client gave up.
        let budget = self.admission_budget(req);
        let Some(_permit) = self.gate.try_enter() else {
            self.counters.busy.fetch_add(1, Ordering::Relaxed);
            return self.refuse(
                &req.id,
                &WireError::new(
                    ErrorCode::Busy,
                    format!(
                        "all {} workers busy and {} queue slots full",
                        self.config.workers, self.config.queue
                    ),
                ),
            );
        };
        let started = Instant::now();
        let oracle = self.oracle_view(req, budget);
        let result = catch_unwind(AssertUnwindSafe(|| self.dispatch(req, &oracle))).unwrap_or_else(
            |panic| {
                let msg = panic_message(&panic);
                Err(WireError::new(ErrorCode::Internal, msg))
            },
        );
        let rollup = oracle.rollup();
        self.total.lock().unwrap().merge(&rollup);
        let wall = started.elapsed();

        // Per-request telemetry: the request view's rollup, published as
        // an `ivy-profile-v1` block plus explicit cache provenance. The
        // global phase and counter registry covers every request in the
        // process, so the block leaves it out.
        let verdict = result.as_ref().map_or("unknown", |(verdict, _)| *verdict);
        let mut report = rollup.report.clone();
        report.outcome = verdict.to_string();
        report.wall_nanos = wall.as_nanos();
        let mut profile = profile::profile(&report, &[], &[], None);
        profile.insert("command", Json::str(req.cmd.tag()));
        let (mut response, counter) = match result {
            Ok((verdict, fields)) => (ok_response(&req.id, verdict, fields), &self.counters.ok),
            Err(err) => (error_response(&req.id, &err), &self.counters.errors),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        response.insert("verdict", Json::str(verdict));
        response.insert("profile", profile);
        response.insert("cache", profile::cache(&rollup));
        response.insert("wall_ms", Json::num(wall.as_secs_f64() * 1e3));
        Handled::new(response, false)
    }

    /// The request's effective budget under the server's caps.
    fn admission_budget(&self, req: &Request) -> Budget {
        let timeout = match (req.timeout_ms, self.config.default_timeout) {
            (Some(ms), _) => Some(Duration::from_millis(ms)),
            (None, d) => d,
        };
        let timeout = match (timeout, self.config.max_timeout) {
            (Some(t), Some(cap)) => Some(t.min(cap)),
            (None, cap) => cap,
            (t, None) => t,
        };
        match timeout {
            Some(t) => Budget::with_timeout(t),
            None => Budget::UNLIMITED,
        }
    }

    /// A per-request oracle view: shared pool, request-local budget and
    /// rollup.
    fn oracle_view(&self, req: &Request, budget: Budget) -> Arc<Oracle> {
        let mut view = self.oracle.view();
        view.set_budget(budget);
        if let Some(mi) = req.max_instances {
            let mi = match self.config.instance_cap {
                Some(cap) => mi.min(cap),
                None => mi,
            };
            view.set_instance_limit(mi);
        } else if let Some(cap) = self.config.instance_cap {
            view.set_instance_limit(view.instance_limit().min(cap));
        }
        if let Some(depth) = self.effective_bound(req) {
            view.set_mode(InstantiationMode::Bounded(depth));
        }
        Arc::new(view)
    }

    /// The request's instantiation bound: its own `bound` field, or the
    /// server-wide default.
    fn effective_bound(&self, req: &Request) -> Option<usize> {
        req.bound.or(self.config.default_bound)
    }

    /// Runs the engine for one admitted request.
    fn dispatch(&self, req: &Request, oracle: &Arc<Oracle>) -> Result<Verdict, WireError> {
        let program = self.load_model(req)?;
        match req.cmd {
            Command::Verify => {
                let inv = conjectures(&program, req)?;
                let v = Verifier::with_oracle(&program, oracle.clone());
                match v.check(&inv).map_err(engine_error)? {
                    Inductiveness::Inductive => Ok((
                        "inductive",
                        vec![("conjectures", Json::num(inv.len() as f64))],
                    )),
                    Inductiveness::Cti(cti) => {
                        let mut fields = vec![
                            ("violation", Json::str(cti.violation.to_string())),
                            ("state", Json::str(cti.state.to_string())),
                        ];
                        if let Some(s) = &cti.successor {
                            fields.push(("successor", Json::str(s.to_string())));
                        }
                        Ok(("cti", fields))
                    }
                }
            }
            Command::Bmc => {
                let depth = req.depth.unwrap_or(3);
                let bmc = Bmc::with_oracle(&program, oracle.clone());
                match bmc.check_safety(depth).map_err(engine_error)? {
                    None => Ok(("safe", vec![("depth", Json::num(depth as f64))])),
                    Some(trace) => Ok((
                        "trace",
                        vec![
                            ("depth", Json::num(depth as f64)),
                            ("trace", Json::str(trace_to_text(&trace))),
                        ],
                    )),
                }
            }
            Command::Houdini => {
                let candidates = match conjectures_opt(req)? {
                    Some(given) => given,
                    None => {
                        let vars = req.vars.unwrap_or(2);
                        let lits = req.lits.unwrap_or(2);
                        enumerate_candidates(&program.sig, vars, lits)
                    }
                };
                let result =
                    houdini_with_oracle(&program, candidates, oracle).map_err(engine_error)?;
                let survivors: Vec<Json> = result
                    .invariant
                    .iter()
                    .map(|c| Json::str(format!("{}: {}", c.name, c.formula)))
                    .collect();
                let verdict = if result.proves_safety {
                    "safe"
                } else {
                    "not_proved"
                };
                Ok((
                    verdict,
                    vec![
                        ("survivors", Json::Arr(survivors)),
                        ("iterations", Json::num(result.iterations as f64)),
                    ],
                ))
            }
            Command::Infer => {
                let opts = InferOptions {
                    vars_per_sort: req.vars.unwrap_or(2),
                    max_literals: req.lits.unwrap_or(2),
                    ..InferOptions::default()
                };
                let report = infer(&program, oracle, &opts).map_err(engine_error)?;
                let invariant: Vec<Json> = report
                    .invariant
                    .iter()
                    .map(|c| Json::str(format!("{}: {}", c.name, c.formula)))
                    .collect();
                Ok((
                    report.status.tag(),
                    vec![
                        ("survivors", Json::Arr(invariant)),
                        ("generated", Json::num(report.generated as f64)),
                        ("blocked", Json::num(report.blocked as f64)),
                        ("enlargements", Json::num(report.enlargements as f64)),
                        ("iterations", Json::num(report.houdini_runs as f64)),
                    ],
                ))
            }
            Command::Generalize => {
                let inv = conjectures(&program, req)?;
                let measures: Vec<Measure> = program
                    .sig
                    .sorts()
                    .iter()
                    .map(|s| Measure::SortSize(*s))
                    .collect();
                let v = Verifier::with_oracle(&program, oracle.clone());
                let Some(cti) = v.find_minimal_cti(&inv, &measures).map_err(engine_error)? else {
                    return Ok(("inductive", Vec::new()));
                };
                let upper = PartialStructure::from_structure(&cti.state);
                let bound = req.depth.unwrap_or(2);
                let g = Generalizer::with_oracle(&program, oracle.clone());
                match g.auto_generalize(&upper, bound).map_err(engine_error)? {
                    AutoGen::TooStrong(trace) => Ok((
                        "too_strong",
                        vec![("trace", Json::str(trace_to_text(&trace)))],
                    )),
                    AutoGen::Generalized {
                        partial,
                        conjecture,
                    } => Ok((
                        "generalized",
                        vec![
                            ("conjecture", Json::str(conjecture.to_string())),
                            ("facts", Json::num(partial.fact_count() as f64)),
                            ("violation", Json::str(cti.violation.to_string())),
                        ],
                    )),
                }
            }
            Command::Status | Command::Shutdown => unreachable!("handled before admission"),
        }
    }

    /// Loads and validates the request's model.
    fn load_model(&self, req: &Request) -> Result<Program, WireError> {
        let source = match (&req.model, &req.model_path) {
            (Some(src), _) => src.clone(),
            (None, Some(path)) => std::fs::read_to_string(path).map_err(|e| {
                WireError::new(ErrorCode::Model, format!("model_path `{path}`: {e}"))
            })?,
            (None, None) => {
                return Err(WireError::new(ErrorCode::Protocol, "missing model"));
            }
        };
        let program = parse_program(&source)
            .map_err(|e| WireError::new(ErrorCode::Model, format!("model: {e}")))?;
        let problems = check_program(&program);
        // Fragment violations (unstratified functions, ∀∃ alternations)
        // are exactly what bounded instantiation tolerates; with `bound`
        // set they are admitted, everything else still refuses the model.
        let bounded = self.effective_bound(req).is_some();
        let hard: Vec<String> = problems
            .iter()
            .filter(|p| !bounded || !p.is_fragment())
            .map(|p| p.to_string())
            .collect();
        if !hard.is_empty() {
            let mut msg = format!("model validation: {}", hard.join("; "));
            if !bounded && problems.iter().any(|p| p.is_fragment()) {
                msg.push_str(" (fragment violations can be admitted with `bound`)");
            }
            return Err(WireError::new(ErrorCode::Model, msg));
        }
        Ok(program)
    }

    /// `status`: server health, counters, and the oracle telemetry of
    /// every finished request.
    fn status(&self, req: &Request) -> Handled {
        self.counters.ok.fetch_add(1, Ordering::Relaxed);
        let (active, waiting) = self.gate.load();
        let count = |c: &AtomicU64| Json::num(c.load(Ordering::Relaxed) as f64);
        let rollup = self.total.lock().unwrap().clone();
        let mut oracle = profile::cache(&rollup);
        oracle.insert("queries", Json::num(rollup.report.queries as f64));
        oracle.insert(
            "pool_capacity",
            Json::num(self.oracle.pool_capacity() as f64),
        );
        let response = ok_response(
            &req.id,
            "ok",
            [
                (
                    "uptime_ms",
                    Json::num(self.started.elapsed().as_secs_f64() * 1e3),
                ),
                ("workers", Json::num(self.config.workers as f64)),
                ("queue", Json::num(self.config.queue as f64)),
                ("in_flight", Json::num(active as f64)),
                ("queued", Json::num(waiting as f64)),
                ("stopping", Json::Bool(self.stopping())),
                (
                    "requests",
                    Json::obj([
                        ("received", count(&self.counters.received)),
                        ("ok", count(&self.counters.ok)),
                        ("errors", count(&self.counters.errors)),
                        ("busy", count(&self.counters.busy)),
                    ]),
                ),
                ("oracle", oracle),
            ],
        );
        Handled::new(response, false)
    }

    fn refuse(&self, id: &Json, err: &WireError) -> Handled {
        let counter = if err.code == ErrorCode::Busy {
            &self.counters.busy
        } else {
            &self.counters.errors
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Handled::new(error_response(id, err), err.code == ErrorCode::Oversized)
    }

    /// Serves connections until `shutdown` is acknowledged, then drains
    /// in-flight connections and returns.
    pub fn serve_listener(self: &Arc<Self>, listener: Listener) -> io::Result<()> {
        match listener {
            Listener::Tcp(l) => {
                l.set_nonblocking(true)?;
                self.accept_loop(|| match l.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).ok();
                        stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
                        Some(Ok(Box::new(stream) as Box<dyn Conn>))
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => Some(Err(e)),
                })
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                l.set_nonblocking(true)?;
                self.accept_loop(|| match l.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).ok();
                        stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
                        Some(Ok(Box::new(stream) as Box<dyn Conn>))
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => Some(Err(e)),
                })
            }
        }
    }

    fn accept_loop(
        self: &Arc<Self>,
        mut accept: impl FnMut() -> Option<io::Result<Box<dyn Conn>>>,
    ) -> io::Result<()> {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            match accept() {
                Some(Ok(stream)) => {
                    let server = Arc::clone(self);
                    conns.push(std::thread::spawn(move || server.serve_conn(stream)));
                }
                Some(Err(e)) => return Err(e),
                None => {
                    conns.retain(|h| !h.is_finished());
                    if self.stopping() {
                        break;
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
            }
        }
        for h in conns {
            let _ = h.join();
        }
        Ok(())
    }

    /// One connection: read request lines, write response lines, until
    /// the peer disconnects, a protocol error forces a close, or the
    /// server drains for shutdown. A mid-line disconnect is silently
    /// dropped — the worker is released, never wedged.
    fn serve_conn(self: Arc<Self>, mut stream: Box<dyn Conn>) {
        let mut reader = LineReader::new(self.config.max_line_bytes);
        loop {
            match reader.next_line(&mut *stream) {
                Ok(LineEvent::Line(bytes)) => {
                    let handled = match String::from_utf8(bytes) {
                        Ok(line) => {
                            if line.trim().is_empty() {
                                continue; // blank keep-alive lines are ignored
                            }
                            self.handle_line(&line)
                        }
                        Err(_) => self.refuse(
                            &Json::Null,
                            &WireError::new(ErrorCode::Parse, "request line is not UTF-8"),
                        ),
                    };
                    if stream.write_all(handled.response.as_bytes()).is_err()
                        || stream.flush().is_err()
                    {
                        return; // peer went away mid-response
                    }
                    if handled.close {
                        return;
                    }
                }
                Ok(LineEvent::Oversized) => {
                    let handled = self.refuse(
                        &Json::Null,
                        &WireError::new(
                            ErrorCode::Oversized,
                            format!(
                                "request line exceeds {} bytes; closing connection",
                                self.config.max_line_bytes
                            ),
                        ),
                    );
                    let _ = stream.write_all(handled.response.as_bytes());
                    let _ = stream.flush();
                    return;
                }
                Ok(LineEvent::Eof) => return,
                Ok(LineEvent::Idle) => {
                    if self.stopping() {
                        return; // drain idle keep-alive connections
                    }
                }
                Err(_) => return,
            }
        }
    }
}

/// How often blocked reads and the accept loop re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Object-safe connection stream.
trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

enum LineEvent {
    /// One complete line (newline stripped).
    Line(Vec<u8>),
    /// The line under construction exceeded the cap.
    Oversized,
    /// Clean end of stream.
    Eof,
    /// A read timeout elapsed with no data (re-check the stop flag).
    Idle,
}

/// Incremental line splitter over a raw `Read` with a size cap.
struct LineReader {
    buf: Vec<u8>,
    scanned: usize,
    max: usize,
}

impl LineReader {
    fn new(max: usize) -> LineReader {
        LineReader {
            buf: Vec::new(),
            scanned: 0,
            max,
        }
    }

    fn next_line(&mut self, stream: &mut dyn Conn) -> io::Result<LineEvent> {
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let pos = self.scanned + pos;
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                return Ok(LineEvent::Line(line));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.max {
                return Ok(LineEvent::Oversized);
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(LineEvent::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(LineEvent::Idle)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Maps an engine error onto the wire: budget exhaustion is `budget`
/// (the verdict stays `unknown`), everything else is `engine`.
fn engine_error(e: EprError) -> WireError {
    match e {
        EprError::Inconclusive(reason) => WireError::new(
            ErrorCode::Budget,
            format!("inconclusive: {reason} [stop:{}]", reason.tag()),
        ),
        other => WireError::new(ErrorCode::Engine, other.to_string()),
    }
}

/// The invariant to check: the request's conjectures, or the model's
/// safety properties.
fn conjectures(program: &Program, req: &Request) -> Result<Vec<Conjecture>, WireError> {
    Ok(conjectures_opt(req)?.unwrap_or_else(|| Conjecture::safety(program)))
}

fn conjectures_opt(req: &Request) -> Result<Option<Vec<Conjecture>>, WireError> {
    let Some(named) = &req.invariant else {
        return Ok(None);
    };
    let mut out = Vec::with_capacity(named.len());
    for (name, text) in named {
        let formula = parse_formula(text)
            .map_err(|e| WireError::new(ErrorCode::Model, format!("invariant `{name}`: {e}")))?;
        out.push(Conjecture::new(name.clone(), formula));
    }
    Ok(Some(out))
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("engine panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("engine panicked: {s}")
    } else {
        "engine panicked".to_string()
    }
}
