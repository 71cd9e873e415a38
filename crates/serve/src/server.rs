//! The TCP server: connection handlers, the serial executor, and the
//! cache-aware job execution they share.

use crate::cache::{CachedCell, Lookup, ResultCache};
use crate::jobs::{JobOutcome, JobStatus, JobTable, Missing, FINISHED_JOBS_KEPT};
use crate::protocol::{
    fingerprint_hex, object, ok_response, parse_request, read_frame, write_frame, ErrorCode,
    FrameError, Request, WireError, SERVE_SCHEMA,
};
use crate::recover;
use resim_obs::{Counter, MetricsRecorder};
use resim_sweep::{stable_csv_header, ScenarioDoc, SweepRunner};
use resim_toml::json::JsonValue;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The version string `ping` reports.
pub const SERVER_VERSION: &str = env!("CARGO_PKG_VERSION");

/// A bound `resim-serve` instance.
///
/// [`Server::bind`] reserves the address (port 0 picks a free one —
/// read it back with [`Server::local_addr`]); [`Server::run`] blocks
/// serving connections until a `shutdown` verb arrives, then joins
/// every handler and the executor before returning, so "run returned"
/// means "every cache entry is on disk".
///
/// ```no_run
/// use resim_serve::{ResultCache, Server};
///
/// let server = Server::bind("127.0.0.1:0", ResultCache::in_memory(), 1).unwrap();
/// println!("listening on {}", server.local_addr());
/// server.run().unwrap();
/// ```
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    jobs: JobTable,
    cache: ResultCache,
    runner: SweepRunner,
    metrics: Mutex<MetricsRecorder>,
    stop: AtomicBool,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`). `threads` is the sweep
    /// runner's worker-pool size per job (0 = all cores); job
    /// *execution* is always serial (see [`JobTable`]).
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn bind(addr: &str, cache: ResultCache, threads: usize) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            addr,
            jobs: JobTable::new(),
            cache,
            runner: SweepRunner::new(threads),
            metrics: Mutex::new(MetricsRecorder::new()),
            stop: AtomicBool::new(false),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The result cache (exposed for tests asserting hit/miss counts).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Current value of one serve counter.
    pub fn counter(&self, c: Counter) -> u64 {
        recover(self.metrics.lock()).counter_value(c)
    }

    /// Serves until a `shutdown` verb arrives; every connection gets
    /// its own handler thread, all joined before this returns.
    ///
    /// # Errors
    ///
    /// Accept-loop errors (per-connection I/O failures only end that
    /// connection).
    pub fn run(&self) -> io::Result<()> {
        std::thread::scope(|scope| {
            scope.spawn(|| self.executor());
            for stream in self.listener.incoming() {
                if self.stop.load(Ordering::Acquire) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        scope.spawn(move || self.handle(stream));
                    }
                    Err(_) => continue,
                }
            }
            self.jobs.close();
        });
        Ok(())
    }

    fn bump(&self, c: Counter, by: u64) {
        recover(self.metrics.lock()).add(c, by);
    }

    /// The serial executor: pops jobs in submission order, runs each
    /// against the cache, publishes the outcome. A job that panics
    /// fails alone ([`catch_job_panic`]); the executor keeps serving.
    fn executor(&self) {
        while let Some((id, doc, text)) = self.jobs.take_next() {
            let result = catch_job_panic(|| self.run_job(id, &doc, &text));
            // Count the job before publishing it, so a client that sees
            // the terminal status also sees the counter.
            self.bump(Counter::ServeJobsCompleted, 1);
            self.jobs.finish(id, result);
        }
    }

    /// Executes one submission: look every cell up in the result
    /// cache, simulate only the misses (through the shared runner, so
    /// results are bit-identical to a local `resim sweep`), store the
    /// fresh cells (a disk-backed cache spills each as a session of
    /// `text`, the submission `doc` was parsed from), and assemble the
    /// deterministic CSV in scenario order.
    fn run_job(&self, id: u64, doc: &ScenarioDoc, text: &str) -> Result<JobOutcome, String> {
        let scenario = doc.to_scenario().map_err(|e| e.to_string())?;
        let fingerprint = doc.fingerprint().map_err(|e| e.to_string())?;
        let cells = scenario.cells();
        let fps: Vec<u64> = cells.iter().map(|c| scenario.cell_fingerprint(c)).collect();

        let mut resolved: Vec<Option<CachedCell>> = vec![None; cells.len()];
        let mut misses: Vec<usize> = Vec::new();
        let (mut mem, mut disk, mut rejected) = (0u64, 0u64, 0u64);
        for (i, &fp) in fps.iter().enumerate() {
            match self.cache.lookup(fp) {
                Lookup::Memory(c) => {
                    mem += 1;
                    resolved[i] = Some(c);
                }
                Lookup::Disk(c) => {
                    disk += 1;
                    resolved[i] = Some(c);
                }
                Lookup::Miss => misses.push(i),
                Lookup::Rejected(_) => {
                    // A damaged entry is a miss with a counter: the cell
                    // re-simulates honestly and overwrites the entry.
                    rejected += 1;
                    misses.push(i);
                }
            }
        }
        self.bump(Counter::ServeCellsMemHits, mem);
        self.bump(Counter::ServeCellsDiskHits, disk);
        self.bump(Counter::ServeCacheRejected, rejected);

        if !misses.is_empty() {
            let report = self
                .runner
                .run_subset(&scenario, &misses, |p| {
                    self.jobs
                        .set_progress(id, p.phase.label(), p.done as u64, p.total as u64);
                })
                .map_err(|e| e.to_string())?;
            for (&slot, result) in misses.iter().zip(report.cells.iter()) {
                let cached = CachedCell::from_result(&scenario, &cells[slot], result);
                // Disk spill is best-effort: the in-memory insert makes
                // the result servable either way.
                let _ = self.cache.insert(cached.clone(), text, slot);
                resolved[slot] = Some(cached);
            }
            self.bump(Counter::ServeCellsSimulated, misses.len() as u64);
        }

        let mut csv = String::from(stable_csv_header());
        for (i, cell) in cells.iter().enumerate() {
            let name = &scenario.configs()[cell.config].name;
            let cached = resolved[i].as_ref().expect("every cell resolved");
            csv.push_str(&cached.stable_csv_row(name));
        }
        Ok(JobOutcome {
            fingerprint,
            cells: cells.len() as u64,
            simulated: misses.len() as u64,
            served_mem: mem,
            served_disk: disk,
            rejected,
            csv,
        })
    }

    /// One connection: frames in, responses out, until EOF or an
    /// unframeable error.
    fn handle(&self, stream: TcpStream) {
        // Without this, a response written while the previous one is
        // still unacknowledged waits out the peer's delayed ACK: a
        // 40 ms floor under every round trip after the first.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        loop {
            match read_frame(&mut reader) {
                Ok(None) => break,
                Ok(Some(line)) => {
                    self.bump(Counter::ServeRequests, 1);
                    let keep_going = match parse_request(&line) {
                        Ok(request) => self.respond(request, &mut writer),
                        Err(e) => {
                            self.bump(Counter::ServeErrors, 1);
                            send(&mut writer, &e.render())
                        }
                    };
                    if !keep_going {
                        break;
                    }
                }
                Err(FrameError::Oversized) => {
                    // The stream cannot be re-framed; answer and close.
                    self.bump(Counter::ServeRequests, 1);
                    self.bump(Counter::ServeErrors, 1);
                    let e = WireError::new(
                        ErrorCode::OversizedFrame,
                        format!("frame exceeds {} bytes", crate::protocol::MAX_FRAME),
                    );
                    let _ = send(&mut writer, &e.render());
                    break;
                }
                Err(FrameError::BadUtf8) => {
                    self.bump(Counter::ServeRequests, 1);
                    self.bump(Counter::ServeErrors, 1);
                    let e = WireError::new(ErrorCode::BadJson, "frame is not UTF-8");
                    if !send(&mut writer, &e.render()) {
                        break;
                    }
                }
                Err(FrameError::Io(_)) => break,
            }
        }
    }

    /// Answers one request; `false` ends the connection (shutdown, or
    /// the peer is gone).
    fn respond(&self, request: Request, writer: &mut TcpStream) -> bool {
        match request {
            Request::Ping => send(
                writer,
                &ok_response(vec![
                    ("schema", JsonValue::Str(SERVE_SCHEMA.to_string())),
                    ("service", JsonValue::Str("resim-serve".to_string())),
                    ("version", JsonValue::Str(SERVER_VERSION.to_string())),
                ]),
            ),
            Request::Submit { scenario } => {
                let parsed = ScenarioDoc::parse_str(&scenario)
                    .and_then(|doc| doc.fingerprint().map(|fp| (doc, fp)));
                match parsed {
                    Ok((doc, fp)) => {
                        let cells = doc
                            .to_scenario()
                            .map(|s| s.len())
                            .expect("fingerprint() already resolved the scenario");
                        let id = self.jobs.submit(doc, scenario);
                        self.bump(Counter::ServeJobsSubmitted, 1);
                        send(
                            writer,
                            &ok_response(vec![
                                ("job", JsonValue::Int(id as i64)),
                                ("cells", JsonValue::Int(cells as i64)),
                                ("fingerprint", JsonValue::Str(fingerprint_hex(fp))),
                            ]),
                        )
                    }
                    Err(e) => {
                        self.bump(Counter::ServeErrors, 1);
                        let e = WireError::new(ErrorCode::BadScenario, e.to_string());
                        send(writer, &e.render())
                    }
                }
            }
            Request::Status { job } => match self.jobs.status(job) {
                Ok(status) => send(writer, &status_response(&status)),
                Err(missing) => {
                    self.bump(Counter::ServeErrors, 1);
                    send(writer, &missing_job(job, missing).render())
                }
            },
            Request::Wait { job } => {
                let mut seen = 0;
                loop {
                    let status = match self.jobs.wait_change(job, seen) {
                        Ok(status) => status,
                        Err(missing) => {
                            self.bump(Counter::ServeErrors, 1);
                            return send(writer, &missing_job(job, missing).render());
                        }
                    };
                    if status.terminal() {
                        return send(writer, &status_response(&status));
                    }
                    seen = status.version;
                    if !send(writer, &progress_event(&status)) {
                        return false;
                    }
                }
            }
            Request::Metrics => {
                // The bag is a whole recorder; only its serve counters
                // ever move.
                let counters: Vec<(&str, JsonValue)> = {
                    let m = recover(self.metrics.lock());
                    Counter::ALL
                        .iter()
                        .filter(|c| c.name().starts_with("serve_"))
                        .map(|&c| (c.name(), JsonValue::Int(m.counter_value(c) as i64)))
                        .collect()
                };
                send(
                    writer,
                    &ok_response(vec![
                        ("schema", JsonValue::Str(SERVE_SCHEMA.to_string())),
                        ("counters", object(counters)),
                        ("cached_cells", JsonValue::Int(self.cache.len() as i64)),
                    ]),
                )
            }
            Request::Shutdown => {
                let _ = send(
                    writer,
                    &ok_response(vec![("stopping", JsonValue::Bool(true))]),
                );
                self.stop.store(true, Ordering::Release);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(self.addr);
                false
            }
        }
    }
}

/// The typed error for a `status`/`wait` on a job with no snapshot.
fn missing_job(job: u64, missing: Missing) -> WireError {
    match missing {
        Missing::Unknown => WireError::new(ErrorCode::UnknownJob, format!("no job {job}")),
        Missing::Expired => WireError::new(
            ErrorCode::Expired,
            format!(
                "job {job} finished and was dropped: the server keeps the last \
                 {FINISHED_JOBS_KEPT} finished jobs"
            ),
        ),
    }
}

/// Renders a job snapshot as the final response line of `status`/`wait`.
fn status_response(s: &JobStatus) -> String {
    let mut fields = vec![
        ("job", JsonValue::Int(s.id as i64)),
        ("state", JsonValue::Str(s.state.to_string())),
    ];
    if let Some(phase) = s.phase {
        fields.push(("phase", JsonValue::Str(phase.to_string())));
        fields.push(("done", JsonValue::Int(s.done as i64)));
        fields.push(("total", JsonValue::Int(s.total as i64)));
    }
    if let Some(o) = &s.outcome {
        fields.push((
            "fingerprint",
            JsonValue::Str(fingerprint_hex(o.fingerprint)),
        ));
        fields.push(("cells", JsonValue::Int(o.cells as i64)));
        fields.push(("simulated", JsonValue::Int(o.simulated as i64)));
        fields.push(("served_mem", JsonValue::Int(o.served_mem as i64)));
        fields.push(("served_disk", JsonValue::Int(o.served_disk as i64)));
        fields.push(("rejected", JsonValue::Int(o.rejected as i64)));
        fields.push(("csv", JsonValue::Str(o.csv.clone())));
    }
    if let Some(e) = &s.error {
        fields.push(("job_error", JsonValue::Str(e.clone())));
    }
    ok_response(fields)
}

/// Renders one streamed progress line of a `wait` — the serving-layer
/// echo of a [`SweepProgress`](resim_sweep::SweepProgress) sample.
fn progress_event(s: &JobStatus) -> String {
    object(vec![
        ("event", JsonValue::Str("progress".to_string())),
        ("schema", JsonValue::Str(SERVE_SCHEMA.to_string())),
        ("job", JsonValue::Int(s.id as i64)),
        ("state", JsonValue::Str(s.state.to_string())),
        (
            "phase",
            match s.phase {
                Some(p) => JsonValue::Str(p.to_string()),
                None => JsonValue::Null,
            },
        ),
        ("done", JsonValue::Int(s.done as i64)),
        ("total", JsonValue::Int(s.total as i64)),
    ])
    .render()
}

/// Writes one response line; `false` when the peer is gone.
fn send(writer: &mut TcpStream, line: &str) -> bool {
    write_frame(writer, line).is_ok()
}

/// Runs one job, turning a panic inside it into a failed job with a
/// `job panicked: …` message instead of a dead executor.
///
/// Asserting unwind safety is sound here: every lock the job touches is
/// taken through [`recover`], whose critical sections leave their data
/// consistent, and the job's own state is dropped with the panic.
fn catch_job_panic<T>(job: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        Err(format!("job panicked: {message}"))
    })
}

#[cfg(test)]
mod tests {
    use super::catch_job_panic;

    #[test]
    fn a_panicking_job_becomes_a_failed_job() {
        let cycle = 200_001;
        let formatted: Result<(), String> =
            catch_job_panic(|| panic!("engine deadlock: no commit since cycle {cycle}"));
        assert_eq!(
            formatted.unwrap_err(),
            "job panicked: engine deadlock: no commit since cycle 200001"
        );
        let literal: Result<(), String> = catch_job_panic(|| panic!("static message"));
        assert_eq!(literal.unwrap_err(), "job panicked: static message");
        let opaque: Result<(), String> = catch_job_panic(|| std::panic::panic_any(7u32));
        assert_eq!(
            opaque.unwrap_err(),
            "job panicked: non-string panic payload"
        );
    }

    #[test]
    fn a_job_that_returns_passes_through() {
        assert_eq!(catch_job_panic(|| Ok::<_, String>(3)), Ok(3));
        assert_eq!(
            catch_job_panic(|| Err::<u8, _>("bad-scenario".to_string())),
            Err("bad-scenario".to_string())
        );
    }
}
