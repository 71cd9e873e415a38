//! # resim-serve
//!
//! A persistent simulation service for the ReSim reproduction: the
//! paper's host/simulator split (§V.B) taken one step further, from
//! "a host tool drives one run" to "a long-running server answers
//! scenario submissions, caching every result it ever computed".
//!
//! ## Protocol
//!
//! Line-delimited JSON over TCP (see [`protocol`]): each request is
//! one object with a `verb` — `ping`, `submit`, `status`, `wait`,
//! `metrics`, `shutdown` — and each response is one object carrying
//! `ok`. Failures are *typed*: a stable machine-readable `code`
//! (`bad-json`, `bad-scenario`, `unknown-job`, …) plus a message, and
//! malformed input of any shape — truncated frames, flipped bytes,
//! oversized lines — is answered with such an error, never a panic or
//! a hang (the corruption battery pins this).
//!
//! Each side writes a frame, line and newline, as one buffer in one
//! write ([`protocol::write_frame`]), and both set `TCP_NODELAY`, so a
//! response leaves as soon as it is written. Under Nagle's algorithm,
//! a segment written while the previous one is unacknowledged (the
//! second half of a split write, or the next streamed progress event)
//! waits for the client's delayed ACK, about 40 ms: far longer than
//! the protocol work itself.
//!
//! ## The result cache
//!
//! Results are **content-addressed** (see [`cache`]): the unit is one
//! simulated grid cell, keyed by a platform-stable FNV-1a fingerprint
//! over everything that determines its statistics — engine and
//! trace-generator fingerprints, workload name, seed, budget,
//! execution mode — and nothing that doesn't (config display names,
//! trace file paths). Entries live in memory and spill to one
//! checksummed RSSN session record each ([`resim_session`]), so an
//! identical cell submitted again is answered without simulation
//! across requests *and* across server restarts; a tampered entry
//! fails its checksum and is re-simulated honestly. Because an entry
//! is a session of its cell, `resim replay` re-executes any cached
//! cell and diffs its statistics field by field.
//!
//! ## Exactly-once execution
//!
//! Jobs execute serially on one executor thread ([`jobs`]), so N
//! concurrent submissions of the same grid simulate each cell exactly
//! once — the first job populates the cache, the rest hit it. The
//! parallelism lives inside a job: cells fan out across the sweep
//! runner's deterministic worker pool, so served results are
//! bit-identical to a local `resim sweep` of the same scenario.
//!
//! The CLI wires this up as `resim serve` (the daemon) and
//! `resim submit` (the client); `docs/guide.md` has the wire-level
//! reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod jobs;
pub mod protocol;
mod server;

pub use cache::{CachedCell, Lookup, Rejection, ResultCache};
pub use client::{Client, ClientError};
pub use jobs::{JobOutcome, JobStatus, JobTable, Missing, FINISHED_JOBS_KEPT};
pub use protocol::{ErrorCode, Request, WireError, MAX_FRAME, SERVE_SCHEMA};
pub use server::{Server, SERVER_VERSION};

use std::sync::{LockResult, PoisonError};

/// Takes the guard out of a lock or condvar-wait result, poisoned or
/// not. A thread that panicked while holding one of this crate's locks
/// fails alone: every critical section here is a short map insert or
/// lookup, queue step or counter update, so the data behind a poisoned
/// lock is still consistent, and refusing it would turn one failed job
/// into a server whose every later request panics.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Poisons `mutex` the way a failing job would: a thread panics while
/// holding it.
#[cfg(test)]
pub(crate) fn poison<T: Send>(mutex: &std::sync::Mutex<T>) {
    std::thread::scope(|s| {
        let panicked = s
            .spawn(|| {
                let _guard = mutex.lock();
                panic!("poisoning the lock on purpose");
            })
            .join();
        assert!(panicked.is_err());
    });
    assert!(mutex.is_poisoned());
}
