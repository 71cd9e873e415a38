//! The `metrics` reply lists the server's own counters and nothing
//! else: the eight `serve_*` counters, in export order, plus
//! `cached_cells`. The engine counters of `resim.metrics/1` never move
//! in a server, so they are not part of the reply.

use resim_serve::{Client, ResultCache, Server};
use resim_toml::json::JsonValue;
use std::sync::Arc;
use std::thread;

fn keys(v: &JsonValue) -> Vec<&str> {
    v.as_object()
        .unwrap_or_else(|| panic!("not an object: {}", v.render()))
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn metrics_reply_lists_exactly_the_serve_counters() {
    let server = Arc::new(Server::bind("127.0.0.1:0", ResultCache::in_memory(), 1).expect("bind"));
    let addr = server.local_addr().to_string();
    let run = {
        let server = server.clone();
        thread::spawn(move || server.run().expect("serve loop"))
    };
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");
    let reply = client.metrics().expect("metrics");
    assert_eq!(
        keys(&reply),
        ["ok", "schema", "counters", "cached_cells"],
        "{}",
        reply.render()
    );
    let counters = reply.get("counters").expect("counters");
    assert_eq!(
        keys(counters),
        [
            "serve_requests",
            "serve_errors",
            "serve_jobs_submitted",
            "serve_jobs_completed",
            "serve_cells_simulated",
            "serve_cells_served_mem",
            "serve_cells_served_disk",
            "serve_cache_rejected",
        ]
    );
    assert!(
        counters.get("serve_requests").and_then(JsonValue::as_u64) >= Some(1),
        "the ping counts: {}",
        reply.render()
    );
    client.shutdown().expect("shutdown");
    run.join().expect("server thread");
}
