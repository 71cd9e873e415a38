//! The wire protocol: newline-delimited JSON frames over TCP.
//!
//! Every request is one JSON object on one line, carrying a `verb` key;
//! every response is one JSON object on one line, carrying `"ok": true`
//! on success or `"ok": false` plus a stable machine-readable `code`
//! on failure. Long-running verbs (`wait`) may interleave event lines —
//! objects carrying an `event` key — before the final response, so a
//! client reads lines until it sees `ok`.
//!
//! The parser is [`resim_toml::json`]: strict, dependency-free, and
//! hardened by the same corruption battery the trace container gets.
//! Malformed input of any shape — truncation, flipped bytes, oversized
//! frames, unknown verbs — produces a *typed* [`WireError`], never a
//! panic and never a hang.

use resim_toml::json::{parse_json, JsonValue};
use std::io::{self, BufRead, Read as _, Write};

/// Upper bound on one request frame, newline included. A scenario file
/// is a few KiB; anything near this limit is garbage or abuse, and the
/// bound keeps a hostile peer from growing server memory without bound.
pub const MAX_FRAME: usize = 1 << 20;

/// Protocol schema identifier, echoed by `ping` and event lines.
pub const SERVE_SCHEMA: &str = "resim.serve/1";

/// Stable machine-readable error categories of the protocol.
///
/// The names are part of the wire contract (clients match on them), so
/// the corruption battery pins each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A request line exceeded [`MAX_FRAME`] bytes.
    OversizedFrame,
    /// The frame was not a well-formed JSON object.
    BadJson,
    /// The frame was JSON but structurally wrong (missing/mistyped keys).
    BadRequest,
    /// The `verb` key named no known verb.
    UnknownVerb,
    /// A submitted scenario failed to parse or resolve.
    BadScenario,
    /// A `status`/`wait` named a job id the server never issued.
    UnknownJob,
    /// A `status`/`wait` named a job that finished and was dropped to
    /// keep the last [`FINISHED_JOBS_KEPT`](crate::jobs::FINISHED_JOBS_KEPT).
    Expired,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownVerb => "unknown-verb",
            ErrorCode::BadScenario => "bad-scenario",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::Expired => "expired",
        }
    }
}

/// A typed protocol error: the category plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail (never needed to dispatch on).
    pub message: String,
}

impl WireError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// Renders the one-line error response,
    /// `{"ok":false,"code":"…","error":"…"}`.
    pub fn render(&self) -> String {
        object(vec![
            ("ok", JsonValue::Bool(false)),
            ("code", JsonValue::Str(self.code.name().to_string())),
            ("error", JsonValue::Str(self.message.clone())),
        ])
        .render()
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for WireError {}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered immediately.
    Ping,
    /// Submit a scenario document (the TOML text, verbatim) for
    /// execution; answered with a job id.
    Submit {
        /// The scenario file text.
        scenario: String,
    },
    /// Snapshot a job's state without blocking.
    Status {
        /// Job id from `submit`.
        job: u64,
    },
    /// Block until a job finishes, streaming progress event lines.
    Wait {
        /// Job id from `submit`.
        job: u64,
    },
    /// Snapshot the server's counters.
    Metrics,
    /// Stop accepting work and shut the server down cleanly.
    Shutdown,
}

/// Parses one request frame.
///
/// # Errors
///
/// A [`WireError`] with code [`ErrorCode::BadJson`],
/// [`ErrorCode::BadRequest`] or [`ErrorCode::UnknownVerb`].
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let value = parse_json(line).map_err(|e| WireError::new(ErrorCode::BadJson, e.to_string()))?;
    let Some(_) = value.as_object() else {
        return Err(WireError::new(
            ErrorCode::BadRequest,
            "request must be a JSON object",
        ));
    };
    let verb = value
        .get("verb")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| WireError::new(ErrorCode::BadRequest, "missing string key \"verb\""))?;
    let job = |what: &str| {
        value.get("job").and_then(JsonValue::as_u64).ok_or_else(|| {
            WireError::new(
                ErrorCode::BadRequest,
                format!("{what} requires a non-negative integer key \"job\""),
            )
        })
    };
    match verb {
        "ping" => Ok(Request::Ping),
        "submit" => {
            let scenario = value
                .get("scenario")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| {
                    WireError::new(
                        ErrorCode::BadRequest,
                        "submit requires a string key \"scenario\"",
                    )
                })?;
            Ok(Request::Submit {
                scenario: scenario.to_string(),
            })
        }
        "status" => Ok(Request::Status {
            job: job("status")?,
        }),
        "wait" => Ok(Request::Wait { job: job("wait")? }),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError::new(
            ErrorCode::UnknownVerb,
            format!("unknown verb {other:?}"),
        )),
    }
}

/// Why [`read_frame`] failed to produce a line.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying transport failed (peer gone, reset, …).
    Io(io::ErrorKind),
    /// The line exceeded [`MAX_FRAME`] bytes. The stream cannot be
    /// re-framed after this; the connection must be closed.
    Oversized,
    /// The frame was not UTF-8.
    BadUtf8,
}

/// Reads one newline-terminated frame of at most [`MAX_FRAME`] bytes.
///
/// Returns `Ok(None)` on clean end-of-stream (the client closed its
/// half), `Ok(Some(line))` with the newline stripped otherwise. The
/// read is bounded, so a peer streaming garbage without a newline
/// cannot grow server memory past the frame limit.
///
/// # Errors
///
/// [`FrameError::Oversized`] past the limit, [`FrameError::BadUtf8`]
/// for non-UTF-8 bytes, [`FrameError::Io`] for transport failures.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<String>, FrameError> {
    let mut buf = Vec::new();
    let mut limited = reader.by_ref().take(MAX_FRAME as u64 + 1);
    let n = limited
        .read_until(b'\n', &mut buf)
        .map_err(|e| FrameError::Io(e.kind()))?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if n > MAX_FRAME {
        return Err(FrameError::Oversized);
    }
    // A final unterminated line (EOF without newline) within the limit
    // is accepted: it is what a one-shot client piping a request sends.
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| FrameError::BadUtf8)
}

/// Writes one frame: `line` and its terminating `'\n'` as a single
/// buffer in a single `write_all`, the mirror of [`read_frame`].
///
/// One write per frame matters on a TCP stream: a trailing one-byte
/// `"\n"` sent as a second segment is exactly what Nagle's algorithm
/// holds back until the peer's delayed ACK fires (about 40 ms). The
/// server and client also set `TCP_NODELAY`, so a frame leaves as soon
/// as it is written.
///
/// # Errors
///
/// The transport's write or flush error.
pub fn write_frame(writer: &mut impl Write, line: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

/// Builds a JSON object from `(key, value)` pairs, insertion-ordered.
pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders a success response: `{"ok":true, …fields}`.
pub fn ok_response(fields: Vec<(&str, JsonValue)>) -> String {
    let mut all = vec![("ok", JsonValue::Bool(true))];
    all.extend(fields);
    object(all).render()
}

/// Renders a fingerprint the way the protocol spells them: 16 hex
/// digits, zero-padded, `0x`-free — the same spelling the on-disk
/// cache uses for entry file names.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse() {
        assert_eq!(parse_request(r#"{"verb":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse_request(r#"{"verb":"metrics"}"#), Ok(Request::Metrics));
        assert_eq!(
            parse_request(r#"{"verb":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        assert_eq!(
            parse_request(r#"{"verb":"status","job":3}"#),
            Ok(Request::Status { job: 3 })
        );
        assert_eq!(
            parse_request(r#"{"verb":"wait","job":0}"#),
            Ok(Request::Wait { job: 0 })
        );
        assert_eq!(
            parse_request(r#"{"verb":"submit","scenario":"[workload]\nseed = 1\n"}"#),
            Ok(Request::Submit {
                scenario: "[workload]\nseed = 1\n".to_string()
            })
        );
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for (input, code) in [
            ("", ErrorCode::BadJson),
            ("{", ErrorCode::BadJson),
            ("nonsense", ErrorCode::BadJson),
            (r#"{"verb":"ping"} trailing"#, ErrorCode::BadJson),
            ("42", ErrorCode::BadRequest),
            (r#"["verb","ping"]"#, ErrorCode::BadRequest),
            (r#"{"noun":"ping"}"#, ErrorCode::BadRequest),
            (r#"{"verb":7}"#, ErrorCode::BadRequest),
            (r#"{"verb":"submit"}"#, ErrorCode::BadRequest),
            (r#"{"verb":"submit","scenario":5}"#, ErrorCode::BadRequest),
            (r#"{"verb":"status"}"#, ErrorCode::BadRequest),
            (r#"{"verb":"status","job":-1}"#, ErrorCode::BadRequest),
            (r#"{"verb":"status","job":"three"}"#, ErrorCode::BadRequest),
            (r#"{"verb":"launch"}"#, ErrorCode::UnknownVerb),
        ] {
            let err = parse_request(input).expect_err(input);
            assert_eq!(err.code, code, "{input:?} → {err}");
        }
    }

    #[test]
    fn error_rendering_is_machine_readable() {
        let err = WireError::new(ErrorCode::UnknownVerb, "unknown verb \"x\"");
        let line = err.render();
        let parsed = parse_json(&line).unwrap();
        assert_eq!(parsed.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            parsed.get("code").and_then(JsonValue::as_str),
            Some("unknown-verb")
        );
        assert!(parsed.get("error").is_some());
    }

    #[test]
    fn code_names_are_stable() {
        // Wire contract: clients dispatch on these spellings.
        let all = [
            (ErrorCode::OversizedFrame, "oversized-frame"),
            (ErrorCode::BadJson, "bad-json"),
            (ErrorCode::BadRequest, "bad-request"),
            (ErrorCode::UnknownVerb, "unknown-verb"),
            (ErrorCode::BadScenario, "bad-scenario"),
            (ErrorCode::UnknownJob, "unknown-job"),
            (ErrorCode::Expired, "expired"),
        ];
        for (code, name) in all {
            assert_eq!(code.name(), name);
        }
    }

    #[test]
    fn frames_are_bounded_and_newline_delimited() {
        let mut two = io::Cursor::new(b"{\"verb\":\"ping\"}\n{\"verb\":\"metrics\"}\n".to_vec());
        assert_eq!(
            read_frame(&mut two).unwrap().as_deref(),
            Some("{\"verb\":\"ping\"}")
        );
        assert_eq!(
            read_frame(&mut two).unwrap().as_deref(),
            Some("{\"verb\":\"metrics\"}")
        );
        assert_eq!(read_frame(&mut two).unwrap(), None, "clean EOF");

        // Unterminated final line within the limit is accepted.
        let mut tail = io::Cursor::new(b"{\"verb\":\"ping\"}".to_vec());
        assert_eq!(
            read_frame(&mut tail).unwrap().as_deref(),
            Some("{\"verb\":\"ping\"}")
        );

        // Oversized frame is a typed error, not memory growth.
        let mut huge = io::Cursor::new(vec![b'x'; MAX_FRAME + 10]);
        assert_eq!(read_frame(&mut huge), Err(FrameError::Oversized));

        // Exactly at the limit (newline included) still frames.
        let mut at_limit = vec![b'y'; MAX_FRAME - 1];
        at_limit.push(b'\n');
        let mut at_limit = io::Cursor::new(at_limit);
        assert_eq!(
            read_frame(&mut at_limit).unwrap().unwrap().len(),
            MAX_FRAME - 1
        );

        // Non-UTF-8 is a typed error.
        let mut bad = io::Cursor::new(b"\xFF\xFE\n".to_vec());
        assert_eq!(read_frame(&mut bad), Err(FrameError::BadUtf8));
    }

    #[test]
    fn response_builders_render_compact_json() {
        let line = ok_response(vec![
            ("job", JsonValue::Int(4)),
            ("fingerprint", JsonValue::Str(fingerprint_hex(0xAB))),
        ]);
        assert_eq!(
            line,
            r#"{"ok":true,"job":4,"fingerprint":"00000000000000ab"}"#
        );
    }

    #[test]
    fn a_written_frame_is_one_write_that_reads_back() {
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes::default();
        write_frame(&mut w, r#"{"ok":true}"#).unwrap();
        assert_eq!(
            w.0,
            vec![b"{\"ok\":true}\n".to_vec()],
            "line and newline in one write"
        );
        let mut r = io::Cursor::new(w.0.concat());
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(r#"{"ok":true}"#)
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }
}
