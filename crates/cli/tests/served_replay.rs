//! Every result-cache entry `resim-serve` spills is a session: each
//! `*.rssn` file in the cache directory must replay through
//! `resim replay` with every statistics field bit-identical — full
//! cells, sampled cells, cells served from another cell's engine run,
//! and the single cell of a submission without `[sweep]`.

use resim_cli::run_for_test;
use resim_serve::{Client, ResultCache, Server};
use resim_sweep::{ScenarioDoc, SweepRunner};
use std::fs;
use std::sync::Arc;
use std::thread;

/// RB 48/64/96 on the paper's 4-wide machine: its 8-entry LSQ binds
/// first, so the RB-96 run never fills its RB and also serves the
/// smaller sizes. Both modes, so sampled cells share runs too.
const GRID: &str = r#"
[sweep]
workloads = ["gzip"]
budgets = [6000]
seeds = [2009]
modes = ["full", "sampled"]

[sweep.sample]
interval = 1000
detailed = 200
period = 2

[sweep.grid]
rb_sizes = [48, 64, 96]
"#;

const PLAIN: &str = "[workload]\nname = \"vpr\"\nseed = 3\nbudget = 3000\n";

const PLAIN_SAMPLED: &str = "[workload]\nname = \"parser\"\nseed = 4\nbudget = 4000\n\n\
                             [sample]\ninterval = 1000\ndetailed = 250\n";

#[test]
fn every_spilled_entry_replays_bit_identically() {
    let grid = ScenarioDoc::parse_str(GRID).unwrap().to_scenario().unwrap();
    let runner = SweepRunner::new(1);
    runner.run(&grid).unwrap();
    assert!(
        runner.engine_runs() < grid.len() as u64 / 2,
        "the grid must serve some cells from another cell's run ({} runs for {} cells)",
        runner.engine_runs(),
        grid.len()
    );

    let dir = std::env::temp_dir().join(format!("resim-served-replay-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let server =
        Arc::new(Server::bind("127.0.0.1:0", ResultCache::with_dir(&dir).unwrap(), 1).unwrap());
    let addr = server.local_addr().to_string();
    let run = {
        let server = server.clone();
        thread::spawn(move || server.run().expect("serve loop"))
    };
    let mut client = Client::connect(&addr).unwrap();
    for text in [GRID, PLAIN, PLAIN_SAMPLED] {
        let status = client.submit_and_wait(text, |_| {}).unwrap();
        assert!(
            status.get("csv").is_some(),
            "job failed: {}",
            status.render()
        );
    }
    client.shutdown().unwrap();
    run.join().unwrap();

    let mut entries: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rssn"))
        .collect();
    entries.sort();
    assert_eq!(
        entries.len(),
        grid.len() + 2,
        "one entry per cell: {entries:?}"
    );
    for entry in &entries {
        let path = entry.to_str().unwrap();
        let (code, out, err) = run_for_test(&["replay", "-s", path]);
        assert_eq!(
            code, 0,
            "{path}: replay failed\nstdout: {out}\nstderr: {err}"
        );
        assert!(out.contains("42/42 fields match"), "{path}:\n{out}");
    }
    let _ = fs::remove_dir_all(&dir);
}
