//! The exactly-once guarantee under a client storm: N threads submit
//! the *same* grid concurrently, every client gets a bit-identical
//! deterministic CSV — equal to a local sweep of the same scenario —
//! and the server simulates each cell exactly once, no matter how the
//! submissions interleave.

use resim_obs::Counter;
use resim_serve::{Client, ResultCache, Server};
use resim_sweep::ScenarioDoc;
use resim_toml::json::JsonValue;
use std::sync::Arc;
use std::thread;

const CLIENTS: usize = 8;

/// 2 configs x 2 seeds = 4 cells, small enough for a fast storm.
const SCENARIO: &str = r#"
[engine]
preset = "paper-4wide"

[workload]
name = "gzip"
seed = 1
budget = 2000

[sweep]
workloads = ["gzip"]
budgets = [2000]
seeds = [1, 2]
threads = 1

[sweep.grid]
rb_sizes = [16, 32]
"#;

fn field(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("terminal status lacks {key:?}: {}", v.render()))
}

#[test]
fn n_concurrent_identical_submissions_simulate_each_cell_exactly_once() {
    let server = Arc::new(Server::bind("127.0.0.1:0", ResultCache::in_memory(), 2).expect("bind"));
    let addr = server.local_addr().to_string();
    let run = {
        let server = server.clone();
        thread::spawn(move || server.run().expect("serve loop"))
    };

    // The ground truth: a local single-threaded sweep of the same
    // scenario, rendered through the deterministic CSV.
    let doc = ScenarioDoc::parse_str(SCENARIO).expect("scenario parses");
    let scenario = doc.to_scenario().expect("scenario resolves");
    let cells = scenario.len() as u64;
    let local_csv = resim_sweep::SweepRunner::new(1)
        .run(&scenario)
        .expect("local sweep")
        .to_csv_stable();

    let statuses: Vec<JsonValue> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    Client::connect(&addr)
                        .expect("connect")
                        .submit_and_wait(SCENARIO, |_| {})
                        .expect("submit and wait")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let mut total_simulated = 0;
    for (i, status) in statuses.iter().enumerate() {
        let csv = status
            .get("csv")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("client {i}: no csv in {}", status.render()));
        assert_eq!(
            csv, local_csv,
            "client {i}: served CSV differs from the local sweep"
        );
        assert_eq!(field(status, "cells"), cells, "client {i}");
        let simulated = field(status, "simulated");
        let served = field(status, "served_mem") + field(status, "served_disk");
        assert_eq!(
            simulated + served,
            cells,
            "client {i}: every cell is either simulated or served"
        );
        total_simulated += simulated;
    }

    // The heart of the test: across all N jobs the grid was simulated
    // exactly once — the job-level ledger and the server's counter
    // must both say so.
    assert_eq!(
        total_simulated, cells,
        "the storm must simulate each cell exactly once in total"
    );
    assert_eq!(
        server.counter(Counter::ServeCellsSimulated),
        cells,
        "counter: each cell simulated exactly once"
    );
    assert_eq!(
        server.counter(Counter::ServeCellsMemHits),
        (CLIENTS as u64 - 1) * cells,
        "counter: every other submission was served from memory"
    );
    assert_eq!(server.counter(Counter::ServeJobsCompleted), CLIENTS as u64);

    Client::connect(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    run.join().expect("server thread");
}
