//! The job table: submitted scenarios, their queue, states and
//! progress, shared between connection handlers and the executor.
//!
//! The table is a single mutex-guarded map plus one condition variable.
//! A monotonically increasing `version` per job lets a `wait` handler
//! stream every progress change without polling: it sleeps on the
//! condvar and wakes exactly when *something* changed, re-snapshotting
//! its job.
//!
//! The table forgets finished jobs oldest first: it keeps the last
//! [`FINISHED_JOBS_KEPT`] outcomes (each carries its CSV report), so a
//! long-lived server's memory does not grow with the jobs it has run. A
//! lookup of an evicted id answers [`Missing::Expired`], one of an id
//! never issued [`Missing::Unknown`].
//!
//! Execution itself is **serial**: one executor thread pops jobs in
//! submission order ([`JobTable::take_next`]). That is the exactly-once
//! guarantee under concurrent identical submissions — by the time the
//! second copy of a scenario reaches the executor, the first has
//! already populated the result cache, so the second simulates nothing.
//! Parallelism lives *inside* a job (the sweep runner's worker pool),
//! where it is deterministic.

use crate::recover;
use resim_sweep::ScenarioDoc;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// How many finished (done or failed) jobs the table keeps: when one
/// more finishes, the oldest is dropped, outcome and CSV included.
pub const FINISHED_JOBS_KEPT: usize = 256;

/// Why a job id has no snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Missing {
    /// The table never issued the id.
    Unknown,
    /// The job finished and was dropped to keep the last
    /// [`FINISHED_JOBS_KEPT`].
    Expired,
}

/// What a finished job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The submission's [`ScenarioDoc::fingerprint`].
    pub fingerprint: u64,
    /// Grid cells in the submission.
    pub cells: u64,
    /// Cells actually simulated (result-cache misses).
    pub simulated: u64,
    /// Cells answered from the in-memory cache.
    pub served_mem: u64,
    /// Cells answered from validated on-disk entries.
    pub served_disk: u64,
    /// On-disk entries rejected as corrupt (each was re-simulated).
    pub rejected: u64,
    /// The deterministic CSV report, bit-identical to
    /// [`SweepReport::to_csv_stable`](resim_sweep::SweepReport::to_csv_stable)
    /// of a local run of the same scenario.
    pub csv: String,
}

#[derive(Debug)]
enum State {
    Queued,
    Running,
    Done(JobOutcome),
    Failed(String),
}

impl State {
    fn name(&self) -> &'static str {
        match self {
            State::Queued => "queued",
            State::Running => "running",
            State::Done(_) => "done",
            State::Failed(_) => "failed",
        }
    }

    fn terminal(&self) -> bool {
        matches!(self, State::Done(_) | State::Failed(_))
    }
}

#[derive(Debug)]
struct JobEntry {
    /// The parsed submission and its text, until the executor takes
    /// them; a finished job keeps neither.
    doc: ScenarioDoc,
    text: String,
    state: State,
    phase: Option<&'static str>,
    done: u64,
    total: u64,
    version: u64,
}

/// A point-in-time snapshot of one job, safe to render after the lock
/// is dropped.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// `"queued"`, `"running"`, `"done"` or `"failed"`.
    pub state: &'static str,
    /// Current phase label (`"tracegen"` / `"simulate"`) while running.
    pub phase: Option<&'static str>,
    /// Units of the current phase completed.
    pub done: u64,
    /// Units in the current phase.
    pub total: u64,
    /// Change counter; grows on every state or progress update.
    pub version: u64,
    /// The outcome, once done.
    pub outcome: Option<JobOutcome>,
    /// The failure message, once failed.
    pub error: Option<String>,
}

impl JobStatus {
    /// Whether the job has reached a terminal state.
    pub fn terminal(&self) -> bool {
        self.outcome.is_some() || self.error.is_some()
    }
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    /// Finished job ids, oldest first; at most [`FINISHED_JOBS_KEPT`].
    finished: VecDeque<u64>,
    closed: bool,
}

impl Inner {
    /// The entry for `id`, or why there is none.
    fn entry(&self, id: u64) -> Result<&JobEntry, Missing> {
        match self.jobs.get(&id) {
            Some(entry) => Ok(entry),
            // Ids are issued in order from 1 and only eviction removes
            // an entry.
            None if (1..=self.next_id).contains(&id) => Err(Missing::Expired),
            None => Err(Missing::Unknown),
        }
    }
}

/// The shared job table (see the module docs for the concurrency
/// story).
#[derive(Debug, Default)]
pub struct JobTable {
    inner: Mutex<Inner>,
    changed: Condvar,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a parsed submission and the text it was parsed from;
    /// returns its job id (ids start at 1 so 0 is never a valid handle).
    pub fn submit(&self, doc: ScenarioDoc, text: String) -> u64 {
        let mut inner = self.lock();
        inner.next_id += 1;
        let id = inner.next_id;
        inner.jobs.insert(
            id,
            JobEntry {
                doc,
                text,
                state: State::Queued,
                phase: None,
                done: 0,
                total: 0,
                version: 0,
            },
        );
        inner.queue.push_back(id);
        self.changed.notify_all();
        id
    }

    /// Blocks until a job is queued (returning it marked running, with
    /// its submission and text moved out) or the table is closed
    /// (returning `None`). The executor's loop condition.
    pub fn take_next(&self) -> Option<(u64, ScenarioDoc, String)> {
        let mut inner = self.lock();
        loop {
            if let Some(id) = inner.queue.pop_front() {
                let entry = inner.jobs.get_mut(&id).expect("queued ids exist");
                entry.state = State::Running;
                entry.version += 1;
                let doc = std::mem::take(&mut entry.doc);
                let text = std::mem::take(&mut entry.text);
                self.changed.notify_all();
                return Some((id, doc, text));
            }
            if inner.closed {
                return None;
            }
            inner = recover(self.changed.wait(inner));
        }
    }

    /// Records a progress sample for a running job.
    pub fn set_progress(&self, id: u64, phase: &'static str, done: u64, total: u64) {
        let mut inner = self.lock();
        if let Some(entry) = inner.jobs.get_mut(&id) {
            entry.phase = Some(phase);
            entry.done = done;
            entry.total = total;
            entry.version += 1;
        }
        self.changed.notify_all();
    }

    /// Moves a job to its terminal state, dropping the oldest finished
    /// job if more than [`FINISHED_JOBS_KEPT`] now are.
    pub fn finish(&self, id: u64, result: Result<JobOutcome, String>) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if let Some(entry) = inner.jobs.get_mut(&id) {
            inner.finished.push_back(id);
            entry.state = match result {
                Ok(outcome) => State::Done(outcome),
                Err(message) => State::Failed(message),
            };
            entry.version += 1;
        }
        if inner.finished.len() > FINISHED_JOBS_KEPT {
            let oldest = inner.finished.pop_front().expect("more than none");
            inner.jobs.remove(&oldest);
        }
        self.changed.notify_all();
    }

    /// Snapshots a job, or says why there is none.
    pub fn status(&self, id: u64) -> Result<JobStatus, Missing> {
        let inner = self.lock();
        inner.entry(id).map(|e| status_of(id, e))
    }

    /// Blocks until job `id` changes past `seen_version` (or is already
    /// terminal), returning the fresh snapshot, or why there is none.
    /// The building block of streamed `wait` responses: call with the
    /// last snapshot's version, emit, repeat until terminal.
    pub fn wait_change(&self, id: u64, seen_version: u64) -> Result<JobStatus, Missing> {
        let mut inner = self.lock();
        loop {
            let entry = inner.entry(id)?;
            if entry.version > seen_version || entry.state.terminal() {
                return Ok(status_of(id, entry));
            }
            inner = recover(self.changed.wait(inner));
        }
    }

    /// Closes the queue: [`JobTable::take_next`] returns `None` once
    /// drained, letting the executor exit. Already-queued jobs are
    /// abandoned (the server is going down).
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.queue.clear();
        self.changed.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        recover(self.inner.lock())
    }
}

fn status_of(id: u64, e: &JobEntry) -> JobStatus {
    let (outcome, error) = match &e.state {
        State::Done(o) => (Some(o.clone()), None),
        State::Failed(m) => (None, Some(m.clone())),
        _ => (None, None),
    };
    JobStatus {
        id,
        state: e.state.name(),
        phase: e.phase,
        done: e.done,
        total: e.total,
        version: e.version,
        outcome,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> JobOutcome {
        JobOutcome {
            fingerprint: 1,
            cells: 2,
            simulated: 2,
            served_mem: 0,
            served_disk: 0,
            rejected: 0,
            csv: "hdr\n".to_string(),
        }
    }

    #[test]
    fn jobs_move_through_their_states_in_submission_order() {
        let table = JobTable::new();
        let a = table.submit(ScenarioDoc::default(), String::new());
        let b = table.submit(ScenarioDoc::default(), String::new());
        assert_eq!((a, b), (1, 2));
        assert_eq!(table.status(a).unwrap().state, "queued");
        assert_eq!(table.status(99).unwrap_err(), Missing::Unknown);

        let (first, ..) = table.take_next().unwrap();
        assert_eq!(first, a, "FIFO");
        assert_eq!(table.status(a).unwrap().state, "running");
        table.set_progress(a, "simulate", 1, 2);
        let s = table.status(a).unwrap();
        assert_eq!((s.phase, s.done, s.total), (Some("simulate"), 1, 2));
        table.finish(a, Ok(outcome()));
        let s = table.status(a).unwrap();
        assert_eq!(s.state, "done");
        assert!(s.terminal());
        assert_eq!(s.outcome.unwrap().cells, 2);

        let (second, ..) = table.take_next().unwrap();
        table.finish(second, Err("boom".to_string()));
        let s = table.status(b).unwrap();
        assert_eq!(s.state, "failed");
        assert_eq!(s.error.as_deref(), Some("boom"));

        table.close();
        assert!(table.take_next().is_none());
    }

    #[test]
    fn wait_change_sees_every_update_in_order() {
        // Single-threaded: each mutation bumps the version, so
        // wait_change returns immediately with the fresh snapshot —
        // exactly the loop a `wait` handler runs.
        let table = JobTable::new();
        let id = table.submit(ScenarioDoc::default(), String::new());
        let (got, ..) = table.take_next().unwrap();
        assert_eq!(got, id);
        let s = table.wait_change(id, 0).unwrap();
        assert_eq!(s.state, "running");
        table.set_progress(id, "simulate", 1, 2);
        let s = table.wait_change(id, s.version).unwrap();
        assert_eq!((s.phase, s.done, s.total), (Some("simulate"), 1, 2));
        table.finish(id, Ok(outcome()));
        let s = table.wait_change(id, s.version).unwrap();
        assert_eq!(s.state, "done");
        // Waiting on an already-terminal job returns immediately even
        // with nothing newer than `seen`.
        assert!(table.wait_change(id, u64::MAX).unwrap().terminal());
        assert_eq!(table.wait_change(404, 0).unwrap_err(), Missing::Unknown);
    }

    #[test]
    fn finished_jobs_past_the_bound_expire_oldest_first() {
        let table = JobTable::new();
        // A job still queued is never dropped, however many finish.
        let parked = table.submit(ScenarioDoc::default(), String::new());
        let (running, ..) = table.take_next().unwrap();
        assert_eq!(running, parked);
        let ids: Vec<u64> = (0..FINISHED_JOBS_KEPT + 2)
            .map(|_| table.submit(ScenarioDoc::default(), String::new()))
            .collect();
        for (n, &id) in ids.iter().enumerate() {
            let (got, ..) = table.take_next().unwrap();
            assert_eq!(got, id);
            if n % 2 == 0 {
                table.finish(id, Ok(outcome()));
            } else {
                table.finish(id, Err("boom".to_string()));
            }
        }
        for &gone in &ids[..2] {
            assert_eq!(table.status(gone).unwrap_err(), Missing::Expired);
            assert_eq!(table.wait_change(gone, 0).unwrap_err(), Missing::Expired);
        }
        for &kept in &ids[2..] {
            assert!(table.status(kept).unwrap().terminal(), "job {kept}");
        }
        assert_eq!(table.lock().finished.len(), FINISHED_JOBS_KEPT);
        assert_eq!(table.status(parked).unwrap().state, "running");
        let never = ids.last().unwrap() + 1;
        assert_eq!(table.status(never).unwrap_err(), Missing::Unknown);
        assert_eq!(table.status(0).unwrap_err(), Missing::Unknown);
        // The running job finishing drops the oldest kept one.
        table.finish(parked, Ok(outcome()));
        assert_eq!(table.status(ids[2]).unwrap_err(), Missing::Expired);
        assert!(table.status(parked).unwrap().terminal());
    }

    #[test]
    fn wait_change_blocks_until_woken() {
        let table = std::sync::Arc::new(JobTable::new());
        let id = table.submit(ScenarioDoc::default(), String::new());
        let (got, ..) = table.take_next().unwrap();
        assert_eq!(got, id);
        let seen = table.status(id).unwrap().version;
        let waiter = {
            let table = table.clone();
            std::thread::spawn(move || table.wait_change(id, seen).unwrap())
        };
        // The waiter sleeps on the condvar until this terminal update.
        table.finish(id, Ok(outcome()));
        let s = waiter.join().unwrap();
        assert!(s.terminal());
    }

    #[test]
    fn a_poisoned_table_keeps_serving() {
        let table = std::sync::Arc::new(JobTable::new());
        let id = table.submit(ScenarioDoc::default(), String::new());
        crate::poison(&table.inner);

        let (got, ..) = table.take_next().unwrap();
        assert_eq!(got, id);
        assert_eq!(table.status(id).unwrap().state, "running");
        let second = table.submit(ScenarioDoc::default(), String::new());
        assert_eq!(table.status(second).unwrap().state, "queued");
        // A waiter parked on the condvar wakes through the poisoned
        // mutex too.
        let seen = table.status(id).unwrap().version;
        let waiter = {
            let table = table.clone();
            std::thread::spawn(move || table.wait_change(id, seen).unwrap())
        };
        table.finish(id, Ok(outcome()));
        assert!(waiter.join().unwrap().terminal());
        table.close();
        assert!(table.take_next().is_none());
    }
}
