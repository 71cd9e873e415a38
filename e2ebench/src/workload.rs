//! What every workload offers the run loop, plus helpers they share.

use crate::spans::Tracer;
use resim_bpred::DirectionConfig;
use resim_core::{EngineConfig, SimStats};

/// What one iteration produced.
#[derive(Debug)]
pub struct IterOut {
    /// The stable artifact (a stable CSV, or `replay`'s stable text):
    /// identical for every iteration of one run, and between the traced
    /// and untraced paths.
    pub artifact: String,
    /// Operations attempted (grid cells, CLI runs or server requests).
    pub ops: u64,
    /// Committed correct-path instructions simulated.
    pub committed: u64,
}

/// One benchmark workload. The untraced methods drive the system only
/// through `resim_cli::run_cli` or the server's client; the traced ones
/// make the same calls through the public crate APIs, one span per call.
pub trait Workload {
    /// Set-up: parse and validate the scenario, write the trace container
    /// a workload replays, bind what must be bound. The scenario file the
    /// CLI reads is written once, when the workload is made. Repeatable;
    /// the run loop times each repetition.
    fn setup(&mut self) -> Result<(), String>;
    /// The same set-up decomposed into spanned public calls. Runs after
    /// [`Workload::setup`] and must reproduce its outputs exactly.
    fn setup_traced(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// One untraced iteration, from TOML text to the stable artifact.
    fn iterate(&mut self) -> Result<IterOut, String>;
    /// One traced iteration.
    fn iterate_traced(&mut self, tr: &mut Tracer) -> Result<IterOut, String>;
    /// Checks that need the whole run; returns the failed-operation count
    /// and a message per problem.
    fn verify(&mut self) -> Result<(u64, Vec<String>), String> {
        Ok((0, Vec::new()))
    }
    /// Layer probes on the workload's own inputs, outside the timed
    /// iterations (traced runs only).
    fn layer_probes(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Stops whatever the workload started.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Workload-specific figures worth printing after an untraced run.
    fn summary(&self) -> Option<String> {
        None
    }
}

/// Runs the CLI in-process; returns its standard output, or its exit
/// code and standard error.
pub fn cli(args: &[&str]) -> Result<String, String> {
    let (code, out, err) = resim_cli::run_for_test(args);
    if code == 0 {
        Ok(out)
    } else {
        Err(format!(
            "`resim {}` exited {code}: {}",
            args.join(" "),
            err.trim()
        ))
    }
}

/// Records the simulated-machine observations of one engine run: cycles
/// and commits (IPC, host ns per cycle), conditional-branch mispredicts
/// where a real predictor is modelled, and L1-D misses where caches are.
pub fn note_sim(tr: &mut Tracer, engine: &EngineConfig, stats: &SimStats) {
    tr.note("core.cycles", stats.cycles as f64);
    tr.note("core.committed", stats.committed as f64);
    if engine.predictor.direction != DirectionConfig::Perfect {
        tr.note("bpred.cond_branches", stats.predictor.cond_branches as f64);
        tr.note(
            "bpred.dir_mispredicts",
            stats.predictor.dir_mispredicts as f64,
        );
    }
    if stats.memory.l1d.accesses() > 0 {
        tr.note("mem.dl1_accesses", stats.memory.l1d.accesses() as f64);
        tr.note("mem.dl1_misses", stats.memory.l1d.misses() as f64);
    }
}
