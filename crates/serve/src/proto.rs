//! Wire protocol types: requests, responses, and error codes.
//!
//! One request per line, one response per line, both JSON objects — the
//! full schema (fields, verdicts, error codes) is specified in
//! `docs/serve-protocol.md`. This module is transport-agnostic: it turns
//! a request line into a [`Request`] (or a [`WireError`]) and a handler
//! outcome back into a response line. Anything that can go wrong before
//! the engines run — unparseable JSON, an unknown command, a missing
//! model — is reported as a well-formed error response, never a dropped
//! connection or a wedged worker.

use crate::json::Json;

/// Machine-readable error classes, stable across releases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON (or not an object).
    Parse,
    /// The request was valid JSON but violated the protocol: unknown
    /// command, missing or ill-typed field.
    Protocol,
    /// The request line exceeded the server's size cap. The connection is
    /// closed after this response (the stream cannot be resynchronized).
    Oversized,
    /// The server is saturated: all workers busy and the admission queue
    /// full. Retry later; nothing was executed.
    Busy,
    /// The model (or invariant) failed to parse or validate.
    Model,
    /// The request exhausted its resource budget; `stop` names the
    /// exhausted resource. The verdict is `unknown`, never wrong.
    Budget,
    /// The engine rejected the query (e.g. outside the supported
    /// fragment).
    Engine,
    /// The server is shutting down and no longer accepts work.
    Shutdown,
    /// An internal invariant failed (a bug worth reporting).
    Internal,
}

impl ErrorCode {
    /// The stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Busy => "busy",
            ErrorCode::Model => "model",
            ErrorCode::Budget => "budget",
            ErrorCode::Engine => "engine",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A protocol-level failure: an error code plus a human-readable message.
#[derive(Clone, Debug)]
pub struct WireError {
    /// The error class.
    pub code: ErrorCode,
    /// Details for humans; the code is the contract.
    pub message: String,
}

impl WireError {
    /// Constructs an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

/// The verbs a server understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Check an inductive invariant (CLI `prove`).
    Verify,
    /// Bounded model checking of the safety properties.
    Bmc,
    /// Houdini invariant inference.
    Houdini,
    /// Automatic invariant synthesis from the safety properties alone.
    Infer,
    /// Find a minimal CTI and auto-generalize it.
    Generalize,
    /// Server health and counters.
    Status,
    /// Stop accepting work and exit after in-flight requests drain.
    Shutdown,
}

impl Command {
    /// The command's `cmd` tag on the wire.
    pub fn tag(self) -> &'static str {
        match self {
            Command::Verify => "verify",
            Command::Bmc => "bmc",
            Command::Houdini => "houdini",
            Command::Infer => "infer",
            Command::Generalize => "generalize",
            Command::Status => "status",
            Command::Shutdown => "shutdown",
        }
    }

    fn from_tag(tag: &str) -> Option<Command> {
        use Command::*;
        [Verify, Bmc, Houdini, Infer, Generalize, Status, Shutdown]
            .into_iter()
            .find(|c| c.tag() == tag)
    }

    /// True when the command runs solver work (and therefore passes
    /// admission control); `status`/`shutdown` are always admitted.
    pub fn is_query(self) -> bool {
        !matches!(self, Command::Status | Command::Shutdown)
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Json,
    /// The verb.
    pub cmd: Command,
    /// Inline RML model source (`model`), if given.
    pub model: Option<String>,
    /// Server-side model path (`model_path`), if given.
    pub model_path: Option<String>,
    /// Named conjectures (`invariant`), if given; otherwise the model's
    /// safety properties are used.
    pub invariant: Option<Vec<(String, String)>>,
    /// BMC depth / generalization bound (`depth`).
    pub depth: Option<usize>,
    /// Houdini template: quantified variables per candidate (`vars`).
    pub vars: Option<usize>,
    /// Houdini template: literals per candidate (`lits`).
    pub lits: Option<usize>,
    /// Per-request wall-clock budget in milliseconds (`timeout_ms`),
    /// covering queue time and execution.
    pub timeout_ms: Option<u64>,
    /// Per-request cap on ground instances (`max_instances`).
    pub max_instances: Option<u64>,
    /// Instantiation depth bound (`bound`): admits non-EPR models via
    /// bounded instantiation. UNSAT-backed verdicts remain verdicts; a
    /// result that leaned on the bound is `unknown` with a `budget`
    /// error, never wrong.
    pub bound: Option<usize>,
}

fn field_usize(obj: &Json, key: &str) -> Result<Option<usize>, WireError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) if n <= usize::MAX as u64 => Ok(Some(n as usize)),
            _ => Err(WireError::new(
                ErrorCode::Protocol,
                format!("field `{key}` must be a non-negative integer"),
            )),
        },
    }
}

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            WireError::new(
                ErrorCode::Protocol,
                format!("field `{key}` must be a non-negative integer"),
            )
        }),
    }
}

fn field_str(obj: &Json, key: &str) -> Result<Option<String>, WireError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
            WireError::new(
                ErrorCode::Protocol,
                format!("field `{key}` must be a string"),
            )
        }),
    }
}

/// Splits text in the `.inv` file format into `(name, formula)` pairs:
/// one `name: formula` per line, blank lines and `#` comments skipped.
/// The error names the first line without a `:`.
pub fn parse_inv_lines(text: &str) -> Result<Vec<(String, String)>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(lineno, line)| {
            let (name, formula) = line
                .split_once(':')
                .ok_or_else(|| format!("line {lineno}: expected `name: formula`"))?;
            Ok((name.trim().to_string(), formula.trim().to_string()))
        })
        .collect()
}

/// Parses the `invariant` field: an array of `{"name", "formula"}`
/// objects, or a string in the `.inv` file format ([`parse_inv_lines`]).
fn field_invariant(obj: &Json) -> Result<Option<Vec<(String, String)>>, WireError> {
    let bad = |msg: &str| WireError::new(ErrorCode::Protocol, format!("field `invariant`: {msg}"));
    match obj.get("invariant") {
        None => Ok(None),
        Some(Json::Str(text)) => parse_inv_lines(text).map(Some).map_err(|e| bad(&e)),
        Some(Json::Arr(items)) => {
            let mut out = Vec::new();
            for item in items {
                let name = item
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("each entry needs a string `name`"))?;
                let formula = item
                    .get("formula")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("each entry needs a string `formula`"))?;
                out.push((name.to_string(), formula.to_string()));
            }
            Ok(Some(out))
        }
        Some(_) => Err(bad("must be an array of {name, formula} or a string")),
    }
}

/// Parses one request line. Everything wrong with the line itself maps to
/// [`ErrorCode::Parse`]; structurally valid JSON that violates the
/// protocol maps to [`ErrorCode::Protocol`]. Errors carry whatever `id`
/// could be recovered from the line, so even a refusal echoes it.
pub fn parse_request(line: &str) -> Result<Request, (Json, WireError)> {
    let value =
        Json::parse(line.trim()).map_err(|e| (Json::Null, WireError::new(ErrorCode::Parse, e)))?;
    if !matches!(value, Json::Obj(_)) {
        return Err((
            Json::Null,
            WireError::new(ErrorCode::Parse, "request must be a JSON object"),
        ));
    }
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    parse_request_fields(&value, id.clone()).map_err(|e| (id, e))
}

fn parse_request_fields(value: &Json, id: Json) -> Result<Request, WireError> {
    let cmd_tag = value
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(ErrorCode::Protocol, "missing string field `cmd`"))?;
    let cmd = Command::from_tag(cmd_tag).ok_or_else(|| {
        WireError::new(
            ErrorCode::Protocol,
            format!(
                "unknown command `{cmd_tag}` \
                 (expected verify|bmc|houdini|infer|generalize|status|shutdown)"
            ),
        )
    })?;
    let req = Request {
        id,
        cmd,
        model: field_str(value, "model")?,
        model_path: field_str(value, "model_path")?,
        invariant: field_invariant(value)?,
        depth: field_usize(value, "depth")?,
        vars: field_usize(value, "vars")?,
        lits: field_usize(value, "lits")?,
        timeout_ms: field_u64(value, "timeout_ms")?,
        max_instances: field_u64(value, "max_instances")?,
        bound: field_usize(value, "bound")?,
    };
    if req.cmd.is_query() && req.model.is_none() && req.model_path.is_none() {
        return Err(WireError::new(
            ErrorCode::Protocol,
            format!("command `{cmd_tag}` needs a `model` (inline source) or `model_path`"),
        ));
    }
    Ok(req)
}

/// The error response for `id`. Its `Display` is one protocol line.
pub fn error_response(id: &Json, err: &WireError) -> Json {
    Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("code", Json::str(err.code.tag())),
                ("message", Json::str(err.message.clone())),
            ]),
        ),
    ])
}

/// The success response `{"id": ..., "ok": true, "verdict": ...}` with
/// `fields` merged in. Its `Display` is one protocol line.
pub fn ok_response(
    id: &Json,
    verdict: &str,
    fields: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let mut obj = Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("verdict", Json::str(verdict)),
    ]);
    for (k, v) in fields {
        obj.insert(k, v);
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_verify_request() {
        let req =
            parse_request(r#"{"id": 7, "cmd": "verify", "model": "sort s", "timeout_ms": 500}"#)
                .unwrap();
        assert_eq!(req.cmd, Command::Verify);
        assert_eq!(req.id, Json::Num(7.0));
        assert_eq!(req.model.as_deref(), Some("sort s"));
        assert_eq!(req.timeout_ms, Some(500));
    }

    #[test]
    fn parses_the_bound_field() {
        let req = parse_request(r#"{"cmd": "verify", "model": "m", "bound": 3}"#).unwrap();
        assert_eq!(req.bound, Some(3));
        let req = parse_request(r#"{"cmd": "verify", "model": "m"}"#).unwrap();
        assert_eq!(req.bound, None);
        assert_eq!(
            parse_request(r#"{"cmd": "verify", "model": "m", "bound": "deep"}"#)
                .unwrap_err()
                .1
                .code,
            ErrorCode::Protocol
        );
    }

    #[test]
    fn invariant_accepts_both_forms() {
        let arr = parse_request(
            r#"{"cmd": "verify", "model": "m",
               "invariant": [{"name": "a", "formula": "x = x"}]}"#,
        )
        .unwrap();
        let text = parse_request(
            "{\"cmd\": \"verify\", \"model\": \"m\", \"invariant\": \"# c\\n\\n  a : x = x \\n\"}",
        )
        .unwrap();
        assert_eq!(arr.invariant, text.invariant);
        assert_eq!(
            arr.invariant.unwrap(),
            vec![("a".to_string(), "x = x".to_string())]
        );
        // A line without `:` is refused by its line number.
        let (_, err) = parse_request(
            "{\"cmd\": \"verify\", \"model\": \"m\", \"invariant\": \"# c\\n\\nx = x\"}",
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("line 3: expected"), "{}", err.message);
    }

    #[test]
    fn classifies_parse_vs_protocol_errors() {
        assert_eq!(parse_request("{oops").unwrap_err().1.code, ErrorCode::Parse);
        assert_eq!(parse_request("[1,2]").unwrap_err().1.code, ErrorCode::Parse);
        assert_eq!(
            parse_request(r#"{"cmd": "fly", "model": "m"}"#)
                .unwrap_err()
                .1
                .code,
            ErrorCode::Protocol
        );
        assert_eq!(
            parse_request(r#"{"cmd": "verify"}"#).unwrap_err().1.code,
            ErrorCode::Protocol
        );
        assert_eq!(
            parse_request(r#"{"cmd": "verify", "model": "m", "depth": -1}"#)
                .unwrap_err()
                .1
                .code,
            ErrorCode::Protocol
        );
        // status/shutdown need no model.
        assert!(parse_request(r#"{"cmd": "status"}"#).is_ok());
        assert!(parse_request(r#"{"cmd": "shutdown"}"#).is_ok());
    }

    #[test]
    fn protocol_errors_recover_the_request_id() {
        let (id, err) = parse_request(r#"{"id": 42, "cmd": "frobnicate"}"#).unwrap_err();
        assert_eq!(id, Json::Num(42.0));
        assert_eq!(err.code, ErrorCode::Protocol);
        // Unparseable lines have no id to recover.
        let (id, _) = parse_request("{oops").unwrap_err();
        assert_eq!(id, Json::Null);
    }

    #[test]
    fn responses_echo_the_id_and_stay_single_line() {
        let id = Json::str("req-1");
        let err = error_response(&id, &WireError::new(ErrorCode::Busy, "try\nlater")).to_string();
        assert!(!err.contains('\n'), "{err}");
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("req-1"));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("busy")
        );
        let ok = ok_response(&id, "inductive", [("wall_ms", Json::num(1.5))]).to_string();
        assert!(!ok.contains('\n'), "{ok}");
        let v = Json::parse(&ok).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("verdict").and_then(Json::as_str), Some("inductive"));
    }
}
