//! A server keeps the outcomes of its last `FINISHED_JOBS_KEPT` finished
//! jobs, not of every job it has run. Past that, a `status` or `wait` on
//! an evicted id answers the typed `expired` code, while an id the server
//! never issued still answers `unknown-job`.

use resim_serve::{Client, ClientError, ResultCache, Server, FINISHED_JOBS_KEPT};
use resim_toml::json::JsonValue;
use std::sync::Arc;
use std::thread;

/// One small cell: the first job simulates it, every later one is a
/// cache hit.
const SCENARIO: &str = r#"
[engine]
preset = "paper-4wide"

[workload]
name = "gzip"
seed = 1
budget = 2000
"#;

fn code_of(result: Result<JsonValue, ClientError>) -> String {
    match result {
        Err(ClientError::Server { code, .. }) => code,
        other => panic!("expected a typed server error, got {other:?}"),
    }
}

#[test]
fn evicted_jobs_answer_expired_and_unissued_ones_unknown_job() {
    let server = Arc::new(Server::bind("127.0.0.1:0", ResultCache::in_memory(), 1).expect("bind"));
    let addr = server.local_addr().to_string();
    let run = {
        let server = server.clone();
        thread::spawn(move || server.run().expect("serve loop"))
    };
    let mut client = Client::connect(&addr).expect("connect");
    let mut last = 0;
    for _ in 0..=FINISHED_JOBS_KEPT {
        let accepted = client.submit(SCENARIO).expect("submit");
        last = accepted
            .get("job")
            .and_then(JsonValue::as_u64)
            .expect("a job id");
        let status = client.wait(last, |_| {}).expect("wait");
        assert_eq!(
            status.get("state").and_then(JsonValue::as_str),
            Some("done"),
            "{}",
            status.render()
        );
    }
    assert_eq!(last, FINISHED_JOBS_KEPT as u64 + 1, "ids start at 1");

    // Job 1 is the one past the bound.
    assert_eq!(code_of(client.status(1)), "expired");
    assert_eq!(code_of(client.wait(1, |_| {})), "expired");
    for kept in [2, last] {
        let status = client.status(kept).expect("a kept job");
        assert_eq!(
            status.get("state").and_then(JsonValue::as_str),
            Some("done"),
            "job {kept}: {}",
            status.render()
        );
    }
    assert_eq!(code_of(client.status(last + 1)), "unknown-job");
    assert_eq!(code_of(client.wait(last + 1, |_| {})), "unknown-job");
    // The connection keeps working after the typed errors.
    client.ping().expect("ping");
    client.shutdown().expect("shutdown");
    run.join().expect("server thread");
}
