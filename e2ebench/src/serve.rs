//! `serve`: an in-process `resim-serve` with an on-disk result cache and
//! one worker, driven by one client in a closed loop. Each round submits
//! the fixed grid (a result-cache hit after the first round) and one
//! fresh grid (a miss).

use crate::check;
use crate::scenarios::{serve_grid, serve_miss};
use crate::spans::Tracer;
use crate::sweeps::sweep_probe;
use crate::workload::{IterOut, Workload};
use resim_cli::ScenarioDoc;
use resim_serve::{Client, ResultCache, Server};
use resim_sweep::SweepRunner;
use resim_toml::json::JsonValue;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Cache-hit submissions per round; each round ends with one miss. One
/// to one, as in the CI serve smoke: a grid that simulates, then one
/// answered wholly from memory.
const HITS_PER_ROUND: usize = 1;

/// The serve workload's server, client and request log.
pub struct ServeWorkload {
    seed: u64,
    cache_dir: PathBuf,
    hit_text: String,
    server: Option<Arc<Server>>,
    running: Option<JoinHandle<std::io::Result<()>>>,
    client: Option<Client>,
    next_miss: u64,
    /// Every miss submission and the CSV it returned, for [`Workload::verify`].
    misses: Vec<(String, String)>,
    /// The round artifact every round must reproduce.
    reference: Option<String>,
    hit_requests: u64,
    /// Host latencies (ms) of untraced cache-hit and miss submissions.
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
}

impl ServeWorkload {
    /// A server whose cache spills under `dir`.
    pub fn new(seed: u64, dir: &std::path::Path) -> Self {
        Self {
            seed,
            cache_dir: dir.join("cache"),
            hit_text: serve_grid(seed),
            server: None,
            running: None,
            client: None,
            next_miss: 0,
            misses: Vec::new(),
            reference: None,
            hit_requests: 0,
            hit_ms: Vec::new(),
            miss_ms: Vec::new(),
        }
    }

    fn bind(&self) -> Result<Server, String> {
        let cache = ResultCache::with_dir(&self.cache_dir).map_err(|e| e.to_string())?;
        Server::bind("127.0.0.1:0", cache, 1).map_err(|e| e.to_string())
    }

    /// Starts serving on the bound server and connects the client.
    fn client(&mut self) -> Result<&mut Client, String> {
        if self.client.is_none() {
            let server = Arc::clone(self.server.as_ref().ok_or("serve set-up has not run")?);
            let addr = server.local_addr().to_string();
            self.running = Some(std::thread::spawn(move || server.run()));
            self.client = Some(Client::connect(&addr).map_err(|e| e.to_string())?);
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    /// One round: `HITS_PER_ROUND` cache-hit submissions, then one
    /// fresh grid. `submit` performs one submission and returns its CSV.
    fn round(
        &mut self,
        mut submit: impl FnMut(&mut Client, &str, bool) -> Result<String, String>,
    ) -> Result<IterOut, String> {
        let hit_text = self.hit_text.clone();
        let miss_text = serve_miss(self.seed, self.next_miss);
        self.next_miss += 1;
        let client = self.client()?;
        let mut artifact = String::new();
        for _ in 0..HITS_PER_ROUND {
            artifact.push_str(&submit(client, &hit_text, true)?);
        }
        let miss_csv = submit(client, &miss_text, false)?;
        let committed = check::csv_rows(&miss_csv)?
            .iter()
            .map(|r| r.committed)
            .sum();
        self.misses.push((miss_text, miss_csv));
        self.hit_requests += HITS_PER_ROUND as u64;
        self.reference.get_or_insert_with(|| artifact.clone());
        Ok(IterOut {
            artifact,
            ops: HITS_PER_ROUND as u64 + 1,
            committed,
        })
    }
}

/// The CSV of a terminal job status, or the job's error.
fn csv_of(status: &JsonValue) -> Result<String, String> {
    if let Some(e) = status.get("job_error").and_then(JsonValue::as_str) {
        return Err(format!("job failed on the server: {e}"));
    }
    status
        .get("csv")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| "terminal job status carries no csv".to_string())
}

fn job_id(accepted: &JsonValue) -> Result<u64, String> {
    accepted
        .get("job")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| "submit response lacks a job id".to_string())
}

/// A local one-thread sweep of `text`'s stable CSV.
fn local_csv(text: &str) -> Result<String, String> {
    let doc = ScenarioDoc::parse_str(text).map_err(|e| e.to_string())?;
    let scenario = doc.to_scenario().map_err(|e| e.to_string())?;
    let report = SweepRunner::new(1)
        .run(&scenario)
        .map_err(|e| e.to_string())?;
    Ok(report.to_csv_stable())
}

fn parse_both(hit: &str, miss: &str) -> Result<(), String> {
    for text in [hit, miss] {
        let doc = ScenarioDoc::parse_str(text).map_err(|e| e.to_string())?;
        doc.to_scenario().map_err(|e| e.to_string())?;
    }
    Ok(())
}

impl Workload for ServeWorkload {
    fn setup(&mut self) -> Result<(), String> {
        parse_both(&self.hit_text, &serve_miss(self.seed, 0))?;
        std::fs::create_dir_all(&self.cache_dir).map_err(|e| e.to_string())?;
        self.server = Some(Arc::new(self.bind()?));
        Ok(())
    }

    fn setup_traced(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let miss = serve_miss(self.seed, 0);
        tr.span("toml.parse", |_| parse_both(&self.hit_text, &miss))?;
        // A second listener, dropped at once: the untraced set-up's
        // server is the one that serves.
        tr.span("serve.bind", |_| self.bind()).map(drop)
    }

    fn iterate(&mut self) -> Result<IterOut, String> {
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        let out = self.round(|client, text, hit| {
            let t0 = Instant::now();
            let status = client
                .submit_and_wait(text, |_| {})
                .map_err(|e| e.to_string())?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if hit {
                hits.push(ms)
            } else {
                misses.push(ms)
            }
            csv_of(&status)
        })?;
        self.hit_ms.extend(hits);
        self.miss_ms.extend(misses);
        Ok(out)
    }

    fn iterate_traced(&mut self, tr: &mut Tracer) -> Result<IterOut, String> {
        self.round(|client, text, hit| {
            tr.span(if hit { "serve.hit" } else { "serve.miss" }, |tr| {
                let accepted = tr.span("serve.submit", |_| client.submit(text));
                let job = job_id(&accepted.map_err(|e| e.to_string())?)?;
                let status = tr.span("serve.wait", |_| client.wait(job, |_| {}));
                csv_of(&status.map_err(|e| e.to_string())?)
            })
        })
    }

    fn verify(&mut self) -> Result<(u64, Vec<String>), String> {
        let mut failed = 0;
        let mut problems = Vec::new();
        let hit_local = local_csv(&self.hit_text)?.repeat(HITS_PER_ROUND);
        if self.reference.as_ref().is_some_and(|r| *r != hit_local) {
            failed += self.hit_requests;
            problems.push("cache-hit CSV differs from a local SweepRunner sweep".to_string());
        }
        for (text, csv) in &self.misses {
            if *csv != local_csv(text)? {
                failed += 1;
                problems.push(format!("miss CSV differs from a local sweep of:\n{text}"));
            }
        }
        Ok((failed, problems))
    }

    fn layer_probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let client = self.client()?;
        for _ in 0..10 {
            tr.span("serve.ping", |_| client.ping())
                .map_err(|e| e.to_string())?;
        }
        let metrics = client.metrics().map_err(|e| e.to_string())?;
        let counter = |name: &str| {
            metrics
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0) as f64
        };
        let hits = counter("serve_cells_served_mem") + counter("serve_cells_served_disk");
        let all = hits + counter("serve_cells_simulated");
        if all > 0.0 {
            tr.note("serve.cache_hit_ratio", hits / all);
        }
        let doc = ScenarioDoc::parse_str(&self.hit_text).map_err(|e| e.to_string())?;
        let scenario = doc.to_scenario().map_err(|e| e.to_string())?;
        sweep_probe(tr, &scenario).map(drop)
    }

    fn finish(&mut self) -> Result<(), String> {
        if let Some(mut client) = self.client.take() {
            client.shutdown().map_err(|e| e.to_string())?;
        }
        if let Some(running) = self.running.take() {
            running
                .join()
                .map_err(|_| "the server thread panicked".to_string())?
                .map_err(|e| e.to_string())?;
        }
        self.server = None;
        Ok(())
    }

    /// Hit and miss latencies. These are not end-to-end metrics, because
    /// every workload must report every end-to-end metric; the traced
    /// run reports them per layer.
    fn summary(&self) -> Option<String> {
        use crate::clock::{median, quantile};
        Some(format!(
            "submit+wait latency: hit p50 {:.3} ms, p90 {:.3} ms (n={}); miss p50 {:.3} ms (n={})",
            median(&self.hit_ms),
            quantile(&self.hit_ms, 0.9),
            self.hit_ms.len(),
            median(&self.miss_ms),
            self.miss_ms.len(),
        ))
    }
}
