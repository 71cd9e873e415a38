//! Adversarial wire inputs against a *live* server: every single-byte
//! corruption and every truncation of a well-formed request must come
//! back as a typed error line (or a different-but-valid request's
//! response) — never a panic, never a hang, and never a wedged server.
//!
//! The same contract the trace-container battery pins for on-disk
//! bytes (`crates/trace/tests/container_corruption.rs`), applied to
//! the serve protocol; the on-disk cache-entry half of the story lives
//! in `resim_serve::cache`'s unit battery and in
//! `tests/restart_persistence.rs`.

use resim_obs::Counter;
use resim_serve::{Client, ClientError, ResultCache, Server, MAX_FRAME};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

/// Binds a fresh in-memory server and returns it with its address and
/// the thread running its accept loop.
fn start_server() -> (Arc<Server>, String, thread::JoinHandle<()>) {
    let server = Arc::new(Server::bind("127.0.0.1:0", ResultCache::in_memory(), 1).expect("bind"));
    let addr = server.local_addr().to_string();
    let handle = {
        let server = server.clone();
        thread::spawn(move || server.run().expect("serve loop"))
    };
    (server, addr, handle)
}

fn stop_server(addr: &str, handle: thread::JoinHandle<()>) {
    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown verb");
    handle.join().expect("server thread");
}

/// A response line is acceptable iff it is one JSON object carrying
/// `"ok"` — a typed error or a legitimate answer; anything else means
/// the framing or the dispatcher leaked something unstructured.
fn assert_response_shape(case: &str, line: &str) {
    let value = resim_toml::json::parse_json(line)
        .unwrap_or_else(|e| panic!("{case}: response is not JSON ({e}): {line:?}"));
    assert!(
        value.get("ok").is_some(),
        "{case}: response carries no \"ok\": {line:?}"
    );
}

#[test]
fn every_single_byte_flip_gets_a_structured_answer() {
    let (_server, addr, handle) = start_server();
    let good = b"{\"verb\":\"status\",\"job\":1}\n";
    // The trailing newline is the frame delimiter: flipping it away is
    // the unterminated-frame case, covered separately below with a
    // half-closed socket (over a kept-open socket the server is
    // *supposed* to keep waiting for the rest of the line).
    for pos in 0..good.len() - 1 {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = good.to_vec();
            bad[pos] ^= mask;
            let case = format!("flip {mask:#04x} at {pos}");
            let mut client = Client::connect(&addr).expect("connect");
            match client.raw(&bad) {
                Ok(line) => assert_response_shape(&case, &line),
                // A flip that forges an early newline can split the
                // frame; the first response still must arrive, so the
                // only acceptable error is none at all.
                Err(e) => panic!("{case}: no response line: {e}"),
            }
        }
    }
    stop_server(&addr, handle);
}

#[test]
fn every_truncation_gets_a_structured_answer() {
    let (_server, addr, handle) = start_server();
    let good = b"{\"verb\":\"status\",\"job\":1}";
    // Newline-terminated truncations: a complete frame of garbage.
    for len in 0..good.len() {
        let mut bad = good[..len].to_vec();
        bad.push(b'\n');
        let case = format!("terminated cut at {len}");
        let mut client = Client::connect(&addr).expect("connect");
        let line = client.raw(&bad).expect("a response line");
        assert_response_shape(&case, &line);
        assert!(
            line.contains("\"ok\":false"),
            "{case}: a strict parser cannot accept a prefix: {line:?}"
        );
    }
    // Unterminated truncations: the connection half-closes mid-frame.
    // The server must answer the partial line (it is a complete —
    // malformed — frame once EOF arrives) and then close, not hang.
    for len in 1..good.len() {
        let case = format!("unterminated cut at {len}");
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(&good[..len]).expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("read until close");
        let line = response
            .lines()
            .next()
            .unwrap_or_else(|| panic!("{case}: connection closed without a response"));
        assert_response_shape(&case, line);
    }
    stop_server(&addr, handle);
}

#[test]
fn protocol_abuse_is_typed_and_never_wedges_the_server() {
    let (server, addr, handle) = start_server();
    let cases: &[(&str, &[u8], &str)] = &[
        ("unknown verb", b"{\"verb\":\"launch\"}\n", "unknown-verb"),
        ("non-object json", b"[1,2,3]\n", "bad-request"),
        ("bare scalar", b"42\n", "bad-request"),
        ("missing verb", b"{\"job\":1}\n", "bad-request"),
        (
            "submit without scenario",
            b"{\"verb\":\"submit\"}\n",
            "bad-request",
        ),
        (
            "submit with non-string scenario",
            b"{\"verb\":\"submit\",\"scenario\":7}\n",
            "bad-request",
        ),
        (
            "status without job",
            b"{\"verb\":\"status\"}\n",
            "bad-request",
        ),
        (
            "wait with string job",
            b"{\"verb\":\"wait\",\"job\":\"x\"}\n",
            "bad-request",
        ),
        ("empty frame", b"\n", "bad-json"),
        ("binary garbage", b"\x00\xfe\x01RSSN\x9c\n", "bad-json"),
        (
            "invalid utf-8",
            b"{\"verb\":\"ping\"\xff\xfe}\n",
            "bad-json",
        ),
        (
            "submit with an invalid scenario",
            b"{\"verb\":\"submit\",\"scenario\":\"[engine]\\npreset = \\\"no-such\\\"\"}\n",
            "bad-scenario",
        ),
        (
            "status for a job never issued",
            b"{\"verb\":\"status\",\"job\":999}\n",
            "unknown-job",
        ),
    ];
    for (case, bytes, code) in cases {
        let mut client = Client::connect(&addr).expect("connect");
        let line = client.raw(bytes).expect("a response line");
        assert_response_shape(case, &line);
        assert!(
            line.contains(&format!("\"code\":\"{code}\"")),
            "{case}: expected code {code:?}, got {line:?}"
        );
        // The *same connection* keeps working after a typed error.
        let line = client
            .raw(b"{\"verb\":\"ping\"}\n")
            .expect("ping after error");
        assert!(
            line.contains("\"ok\":true"),
            "{case}: connection wedged after the error: {line:?}"
        );
    }

    // An oversized frame cannot be re-framed: one typed error, then the
    // connection closes — and the server itself stays healthy.
    let mut client = Client::connect(&addr).expect("connect");
    let mut huge = vec![b'a'; MAX_FRAME + 2];
    huge.push(b'\n');
    let line = client.raw(&huge).expect("oversized-frame response");
    assert!(
        line.contains("\"code\":\"oversized-frame\""),
        "oversized frame: {line:?}"
    );
    assert!(
        client.raw(b"{\"verb\":\"ping\"}\n").is_err(),
        "the unframeable connection must be closed"
    );

    let errors = server.counter(Counter::ServeErrors);
    assert!(
        errors > cases.len() as u64,
        "every abuse case plus the oversized frame must count as a serve error (saw {errors})"
    );
    let mut client = Client::connect(&addr).expect("fresh connect");
    client.ping().expect("server is still serving");
    // `run()` joins every handler, and a handler lives as long as its
    // connection: close ours before asking the server to drain.
    drop(client);
    stop_server(&addr, handle);
}

#[test]
fn an_unrunnable_fu_roster_is_a_bad_scenario_and_the_next_job_completes() {
    let (_server, addr, handle) = start_server();
    let sweep = "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [2000]\nseeds = [1]\n\
                 [sweep.grid]\nrb_sizes = [16]\n";
    let mut client = Client::connect(&addr).expect("connect");
    for roster in ["divs = 0", "mults = 0"] {
        let bad = format!("{sweep}[sweep.grid.base.fu]\n{roster}\n");
        match client.submit(&bad) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, "bad-scenario", "{roster}: {message}");
                assert!(message.contains("at least one"), "{roster}: {message}");
            }
            other => panic!("{roster}: expected bad-scenario, got {other:?}"),
        }
    }
    let done = client
        .submit_and_wait(sweep, |_| {})
        .expect("the next job runs");
    assert_eq!(done.get("state").and_then(|s| s.as_str()), Some("done"));
    drop(client);
    stop_server(&addr, handle);
}

#[test]
fn oversized_sizes_and_removed_keys_are_bad_scenarios_and_the_next_job_completes() {
    let (_server, addr, handle) = start_server();
    let sweep = "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [2000]\nseeds = [1]\n\
                 [sweep.grid]\nrb_sizes = [16]\n";
    let mut client = Client::connect(&addr).expect("connect");
    // An unbounded rb_size would abort the whole server out of memory,
    // and an unbounded penalty would wedge its executor (the deadlock
    // watchdog, or hours of stalled cycles); `stats` is not a [sweep] key.
    let oversized = format!("{sweep}[sweep.grid.base]\nrb_size = 1099511627776\n");
    let penalty = format!("{sweep}[sweep.grid.base]\nmispredict_penalty = 1000000\n");
    let miss = format!(
        "{sweep}[sweep.grid.base.memory]\nkind = \"split\"\n\
         [sweep.grid.base.memory.l1d]\nmiss_penalty = 4294967295\n"
    );
    let removed = sweep.replace("[sweep]\n", "[sweep]\nstats = \"lite\"\n");
    let cases = [
        (oversized, "exceeds the maximum"),
        (
            penalty,
            "mispredict_penalty of 1000000 cycles exceeds the maximum of 16384",
        ),
        (
            miss,
            "l1d.miss_penalty of 4294967295 cycles exceeds the maximum",
        ),
        (removed, "unknown key \"stats\""),
    ];
    for (bad, expected) in &cases {
        match client.submit(bad) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, "bad-scenario", "{message}");
                assert!(message.contains(expected), "{message}");
            }
            other => panic!("expected bad-scenario for {bad:?}, got {other:?}"),
        }
    }
    let done = client
        .submit_and_wait(sweep, |_| {})
        .expect("the next job runs");
    assert_eq!(done.get("state").and_then(|s| s.as_str()), Some("done"));
    drop(client);
    stop_server(&addr, handle);
}
