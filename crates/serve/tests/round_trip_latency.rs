//! Round trips on one connection cost protocol work, not a TCP timer.
//!
//! A response that leaves the server as two small segments, or on a
//! socket with Nagle's algorithm on, waits for the client's delayed
//! ACK before its tail is sent: about 40 ms per round trip after the
//! first, so the 50 pings below would take more than 2 s. Without the
//! stall each takes well under a millisecond on loopback, so the 1 s
//! bounds leave room for a loaded host while still catching the
//! stall.

use resim_serve::{Client, ResultCache, Server};
use resim_toml::json::JsonValue;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// 2 configs x 2 seeds = 4 small cells.
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

const BOUND: Duration = Duration::from_secs(1);

fn simulated(status: &JsonValue) -> u64 {
    status
        .get("simulated")
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("terminal status lacks \"simulated\": {}", status.render()))
}

#[test]
fn sequential_round_trips_on_one_connection_do_not_stall() {
    let server = Arc::new(Server::bind("127.0.0.1:0", ResultCache::in_memory(), 1).expect("bind"));
    let addr = server.local_addr().to_string();
    let run = {
        let server = server.clone();
        thread::spawn(move || server.run().expect("serve loop"))
    };
    let mut client = Client::connect(&addr).expect("connect");

    // Untimed warm-up: the first submission simulates and fills the
    // cache, so every timed submission below is a hit.
    let first = client
        .submit_and_wait(SCENARIO, |_| {})
        .expect("first submit");
    assert_eq!(simulated(&first), 4);

    let start = Instant::now();
    for _ in 0..50 {
        client.ping().expect("ping");
    }
    let pings = start.elapsed();
    assert!(pings < BOUND, "50 sequential pings took {pings:?}");

    // A ping right after a wait is the case the streamed progress
    // events used to stall.
    let start = Instant::now();
    for _ in 0..20 {
        let status = client
            .submit_and_wait(SCENARIO, |_| {})
            .expect("cached submit");
        assert_eq!(
            simulated(&status),
            0,
            "every timed submission is a cache hit"
        );
        client.ping().expect("ping after wait");
    }
    let hits = start.elapsed();
    assert!(
        hits < BOUND,
        "20 cache-hit submissions, each with a ping, took {hits:?}"
    );

    client.shutdown().expect("shutdown");
    run.join().expect("server thread");
}
