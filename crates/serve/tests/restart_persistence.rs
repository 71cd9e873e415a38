//! The result cache across process lifetimes: a restarted server on
//! the same cache directory answers a resubmission with bit-identical
//! statistics and *zero* re-simulation — and a tampered entry fails
//! its checksum and is re-simulated honestly, never served corrupt.

use resim_obs::Counter;
use resim_serve::{Client, ResultCache, Server};
use resim_toml::json::JsonValue;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

/// 2 configs x 1 seed = 2 cells.
const SCENARIO: &str = r#"
[engine]
preset = "paper-4wide"

[workload]
name = "gzip"
seed = 7
budget = 2000

[sweep]
workloads = ["gzip"]
budgets = [2000]
seeds = [7]
threads = 1

[sweep.grid]
rb_sizes = [16, 32]
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resim-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn field(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("terminal status lacks {key:?}: {}", v.render()))
}

fn csv_of(v: &JsonValue) -> String {
    v.get("csv")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("terminal status lacks csv: {}", v.render()))
        .to_string()
}

/// One server lifetime on `dir`: submit the scenario, return the
/// terminal status and the server's counter snapshot, shut down
/// cleanly (so "returned" means "cache flushed to disk").
fn one_lifetime(dir: &Path) -> (JsonValue, [u64; 3]) {
    let cache = ResultCache::with_dir(dir).expect("cache dir");
    let server = Arc::new(Server::bind("127.0.0.1:0", cache, 1).expect("bind"));
    let addr = server.local_addr().to_string();
    let run = {
        let server = server.clone();
        thread::spawn(move || server.run().expect("serve loop"))
    };
    let status = Client::connect(&addr)
        .expect("connect")
        .submit_and_wait(SCENARIO, |_| {})
        .expect("submit and wait");
    let counters = [
        server.counter(Counter::ServeCellsSimulated),
        server.counter(Counter::ServeCellsDiskHits),
        server.counter(Counter::ServeCacheRejected),
    ];
    Client::connect(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    run.join().expect("server thread");
    (status, counters)
}

#[test]
fn restart_serves_from_disk_with_zero_resimulation() {
    let dir = temp_dir("clean");

    // Lifetime 1: a cold cache — every cell simulates, then spills.
    let (first, [simulated, disk, rejected]) = one_lifetime(&dir);
    let cells = field(&first, "cells");
    assert_eq!(simulated, cells, "cold cache: every cell simulates");
    assert_eq!((disk, rejected), (0, 0));
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rssn"))
        .collect();
    assert_eq!(entries.len() as u64, cells, "one RSSN file per cell");

    // Lifetime 2: a brand-new process-equivalent on the same dir —
    // identical stats, zero re-simulation, counter-asserted.
    let (second, [simulated, disk, rejected]) = one_lifetime(&dir);
    assert_eq!(csv_of(&second), csv_of(&first), "restart changed the stats");
    assert_eq!(simulated, 0, "restart must not re-simulate anything");
    assert_eq!(disk, cells, "every cell comes off disk");
    assert_eq!(rejected, 0);
    assert_eq!(field(&second, "simulated"), 0);
    assert_eq!(field(&second, "served_disk"), cells);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_and_truncated_entries_are_rejected_and_resimulated() {
    let dir = temp_dir("tamper");
    let (first, _) = one_lifetime(&dir);
    let cells = field(&first, "cells");
    assert!(cells >= 2, "the scenario must give two entries to damage");

    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rssn"))
        .collect();
    entries.sort();
    // Entry 0: one flipped byte in the middle (breaks the checksum).
    let bytes = std::fs::read(&entries[0]).expect("read entry");
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x80;
    std::fs::write(&entries[0], &bad).expect("tamper");
    // Entry 1: truncated to half (fails before any field is believed).
    let bytes = std::fs::read(&entries[1]).expect("read entry");
    std::fs::write(&entries[1], &bytes[..bytes.len() / 2]).expect("truncate");

    // Lifetime 3: both damaged entries must be rejected, re-simulated
    // honestly, and the answer still bit-identical.
    let (third, [simulated, _disk, rejected]) = one_lifetime(&dir);
    assert_eq!(
        csv_of(&third),
        csv_of(&first),
        "corruption leaked into the stats"
    );
    assert_eq!(rejected, 2, "both damaged entries are rejected");
    assert_eq!(simulated, 2, "both damaged cells re-simulate");
    assert_eq!(field(&third, "rejected"), 2);

    // The honest re-simulation also rewrote the entries: a fourth
    // lifetime is clean again.
    let (fourth, [simulated, disk, rejected]) = one_lifetime(&dir);
    assert_eq!(csv_of(&fourth), csv_of(&first));
    assert_eq!((simulated, rejected), (0, 0));
    assert_eq!(disk, cells);

    let _ = std::fs::remove_dir_all(&dir);
}
