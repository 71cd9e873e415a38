//! The scenario texts the benchmark hands to the program under test.
//!
//! Every input is generated here from the benchmark seed; the program
//! sees only these TOML documents and the trace files written from them.
//!
//! The seed drives the trace generator's wrong-path synthesis
//! (`[tracegen] seed`); the workload models keep their calibrated stream
//! seed. A model's control-flow graph is drawn from its stream seed, and
//! that alone moves a trace's length, and so the work of an iteration,
//! by up to 40 % (vpr's wrong-path expansion spans 1.02-1.41 over seeds
//! 11-20), while the wrong-path seed changes records but not their count.

/// The default benchmark seed (the paper's year, as elsewhere in the repo).
pub const DEFAULT_SEED: u64 = 2009;
/// The workload models' stream seed.
const STREAM_SEED: u64 = 2009;

/// Correct-path instructions per `table1` cell (the paper's Table 1 grid).
pub const TABLE1_BUDGET: usize = 200_000;
/// Correct-path instructions per `grid-deep` cell.
pub const GRID_DEEP_BUDGET: usize = 100_000;
/// Correct-path instructions of the `replay` container.
pub const REPLAY_BUDGET: usize = 1_000_000;
/// Correct-path instructions per `serve` cell.
pub const SERVE_BUDGET: usize = 20_000;

/// `table1`: the five SPECINT models on both Table 1 machines. The two
/// presets use different predictors, so every cell generates its own
/// trace; the cached preset exercises the memory model.
pub fn table1(seed: u64, budget: usize) -> String {
    format!(
        "# Table 1: five SPECINT models on both paper machines.\n\
         [sweep]\n\
         workloads = [\"gzip\", \"bzip2\", \"parser\", \"vortex\", \"vpr\"]\n\
         budgets = [{budget}]\n\
         seeds = [{STREAM_SEED}]\n\
         threads = 1\n\
         \n\
         [[sweep.config]]\n\
         name = \"paper-4wide\"\n\
         \n\
         [sweep.config.engine]\n\
         preset = \"paper-4wide\"\n\
         \n\
         [sweep.config.tracegen]\n\
         seed = {seed}\n\
         \n\
         [[sweep.config]]\n\
         name = \"paper-2wide-cached\"\n\
         \n\
         [sweep.config.engine]\n\
         preset = \"paper-2wide-cached\"\n\
         \n\
         [sweep.config.tracegen]\n\
         seed = {seed}\n"
    )
}

/// `grid-deep`: one gzip trace replayed by 8 RB sizes x 3 pipeline
/// organizations on the perfect-memory 4-wide machine.
pub fn grid_deep(seed: u64) -> String {
    format!(
        "# One trace, 24 engine design points.\n\
         [sweep]\n\
         workloads = [\"gzip\"]\n\
         budgets = [{GRID_DEEP_BUDGET}]\n\
         seeds = [{STREAM_SEED}]\n\
         threads = 1\n\
         \n\
         [sweep.grid]\n\
         rb_sizes = [8, 12, 16, 24, 32, 48, 64, 96]\n\
         pipelines = [\"simple\", \"optimized\", \"improved\"]\n\
         \n\
         [sweep.grid.tracegen]\n\
         seed = {seed}\n"
    )
}

/// A single-run document replaying the container at `trace_path`, with
/// a 5 %-detailed SMARTS plan (functional warmup between windows).
pub fn replay(seed: u64, budget: usize, trace_path: &str) -> String {
    format!(
        "# Replay a layout-v2 vpr container; full run and 5 % sampled run.\n\
         [engine]\n\
         preset = \"paper-4wide\"\n\
         \n\
         [tracegen]\n\
         seed = {seed}\n\
         \n\
         [workload]\n\
         name = \"vpr\"\n\
         seed = {STREAM_SEED}\n\
         budget = {budget}\n\
         \n\
         [trace]\n\
         file = \"{trace_path}\"\n\
         \n\
         [sample]\n\
         interval = 10000\n\
         detailed = 500\n\
         period = 1\n"
    )
}

/// The `k`-th fresh grid `serve` submits: a new trace-generator seed, so
/// every cell misses the result cache, simulates and spills a cache file.
pub fn serve_miss(seed: u64, k: u64) -> String {
    serve_grid(seed.wrapping_add(1 + k))
}

/// The grid `serve` submits once per round under the benchmark seed
/// (answered from the result cache after the first submission): the
/// sweep of `examples/scenarios/ci-smoke.toml`, which the CI serve smoke
/// submits, gzip and vpr x RB sizes 16 and 32, 20 k instructions per
/// cell. Every cell generates its trace.
pub fn serve_grid(seed: u64) -> String {
    format!(
        "[sweep]\n\
         workloads = [\"gzip\", \"vpr\"]\n\
         budgets = [{SERVE_BUDGET}]\n\
         seeds = [{STREAM_SEED}]\n\
         \n\
         [sweep.grid]\n\
         rb_sizes = [16, 32]\n\
         \n\
         [sweep.grid.tracegen]\n\
         seed = {seed}\n"
    )
}
