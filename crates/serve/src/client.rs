//! A small blocking client — what `resim submit` and the test battery
//! drive the server with.

use crate::protocol::{object, write_frame};
use resim_toml::json::{parse_json, JsonValue};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Transport failure (connect, read or write).
    Io(io::ErrorKind),
    /// The server's bytes were not a valid response line.
    Protocol(String),
    /// The server answered with a typed error.
    Server {
        /// The machine-readable code (`"bad-scenario"`, …).
        code: String,
        /// The human-readable message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(kind) => write!(f, "i/o error: {kind}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e.kind())
    }
}

/// One blocking connection to a `resim-serve` instance.
///
/// Requests are serialized through [`JsonValue::render`], so scenario
/// text with quotes, newlines or any other JSON-hostile content is
/// escaped correctly by construction.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { reader, writer })
    }

    /// Sends one request object and reads lines until the response,
    /// passing any interleaved event lines to `on_event`.
    fn roundtrip(
        &mut self,
        request: JsonValue,
        mut on_event: impl FnMut(&JsonValue),
    ) -> Result<JsonValue, ClientError> {
        write_frame(&mut self.writer, &request.render())?;
        loop {
            let buf = self.read_line()?;
            let value = parse_json(&buf).map_err(|e| ClientError::Protocol(e.to_string()))?;
            if value.get("event").is_some() {
                on_event(&value);
                continue;
            }
            return match value.get("ok").and_then(JsonValue::as_bool) {
                Some(true) => Ok(value),
                Some(false) => Err(ClientError::Server {
                    code: value
                        .get("code")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                    message: value
                        .get("error")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                }),
                None => Err(ClientError::Protocol(format!(
                    "response line carries neither \"ok\" nor \"event\": {buf:?}"
                ))),
            };
        }
    }

    /// `ping` — liveness probe.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn ping(&mut self) -> Result<JsonValue, ClientError> {
        self.roundtrip(verb("ping", vec![]), |_| {})
    }

    /// `submit` — enqueue a scenario document (its TOML text).
    /// The response carries `job`, `cells` and `fingerprint`.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; a rejected scenario is
    /// [`ClientError::Server`] with code `bad-scenario`.
    pub fn submit(&mut self, scenario: &str) -> Result<JsonValue, ClientError> {
        self.roundtrip(
            verb(
                "submit",
                vec![("scenario", JsonValue::Str(scenario.to_string()))],
            ),
            |_| {},
        )
    }

    /// `status` — non-blocking job snapshot.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; an unissued id is code `unknown-job`, and a
    /// finished job the server has since dropped is code `expired`.
    pub fn status(&mut self, job: u64) -> Result<JsonValue, ClientError> {
        self.roundtrip(
            verb("status", vec![("job", JsonValue::Int(job as i64))]),
            |_| {},
        )
    }

    /// `wait` — block until the job finishes; every streamed progress
    /// line goes to `on_event` before the final response returns.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; codes `unknown-job` and `expired` as for
    /// [`Client::status`].
    pub fn wait(
        &mut self,
        job: u64,
        on_event: impl FnMut(&JsonValue),
    ) -> Result<JsonValue, ClientError> {
        self.roundtrip(
            verb("wait", vec![("job", JsonValue::Int(job as i64))]),
            on_event,
        )
    }

    /// `submit` then `wait`: the whole submission as one call,
    /// returning the terminal status (carrying the `csv` report).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn submit_and_wait(
        &mut self,
        scenario: &str,
        on_event: impl FnMut(&JsonValue),
    ) -> Result<JsonValue, ClientError> {
        let accepted = self.submit(scenario)?;
        let job = accepted
            .get("job")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ClientError::Protocol("submit response lacks a job id".to_string()))?;
        self.wait(job, on_event)
    }

    /// `metrics` — the server's counter snapshot.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn metrics(&mut self) -> Result<JsonValue, ClientError> {
        self.roundtrip(verb("metrics", vec![]), |_| {})
    }

    /// `shutdown` — ask the server to stop cleanly.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn shutdown(&mut self) -> Result<JsonValue, ClientError> {
        self.roundtrip(verb("shutdown", vec![]), |_| {})
    }

    /// Sends raw bytes (no framing, no escaping) and reads one
    /// response line — the corruption battery's way of putting
    /// arbitrary garbage on the wire.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ClientError::Protocol`] when the
    /// connection closes without a line.
    pub fn raw(&mut self, bytes: &[u8]) -> Result<String, ClientError> {
        // Deliberately not `write_frame`: the bytes go out exactly as
        // given, in one write, framed or not.
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        self.read_line()
    }

    /// Reads one response line, newline stripped.
    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut buf = String::new();
        if self.reader.read_line(&mut buf)? == 0 {
            return Err(ClientError::Protocol(
                "connection closed before a response arrived".to_string(),
            ));
        }
        if buf.ends_with('\n') {
            buf.pop();
        }
        Ok(buf)
    }
}

fn verb(name: &str, mut fields: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut all = vec![("verb", JsonValue::Str(name.to_string()))];
    all.append(&mut fields);
    object(all)
}
