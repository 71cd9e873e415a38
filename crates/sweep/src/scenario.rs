//! Scenario grids: the cross product of engine configurations,
//! workloads, instruction budgets and workload seeds.

use resim_core::{ConfigError, EngineConfig};
use resim_sample::{PlanError, SamplePlan};
use resim_tracegen::{TraceGenConfig, TraceKey};
use resim_workloads::{SpecBenchmark, Workload, WorkloadProfile};
use std::error::Error;
use std::fmt;

/// How one grid cell executes its trace — the accuracy-versus-wall-clock
/// axis of a scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CellMode {
    /// Every record cycle-accurate: one [`Engine::run`](resim_core::Engine::run).
    #[default]
    Full,
    /// SMARTS-style sampled simulation under the given plan
    /// ([`resim_sample::run_sampled`]); the cell reports the merged
    /// detailed-window statistics plus the per-window confidence data.
    Sampled(SamplePlan),
}

impl CellMode {
    /// Display name, unique per distinct mode (`"full"`, or
    /// `"sampled-<plan>"`).
    pub fn name(&self) -> String {
        match self {
            CellMode::Full => "full".to_string(),
            CellMode::Sampled(plan) => format!("sampled-{}", plan.name()),
        }
    }
}

/// One engine design point plus the trace-generation configuration its
/// traces must be produced with (the generator's predictor must match the
/// engine's for the wrong-path tags to be meaningful, §V.A).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigPoint {
    /// Display name, unique within a scenario (e.g. `"w4-optimized"`).
    pub name: String,
    /// The engine configuration.
    pub engine: EngineConfig,
    /// The matching trace-generation configuration.
    pub tracegen: TraceGenConfig,
}

impl ConfigPoint {
    /// Creates a config point.
    pub fn new(name: impl Into<String>, engine: EngineConfig, tracegen: TraceGenConfig) -> Self {
        Self {
            name: name.into(),
            engine,
            tracegen,
        }
    }
}

/// A workload axis entry: a named, seedable stream constructor.
#[derive(Debug, Clone)]
pub struct WorkloadPoint {
    /// Display name, unique within a scenario (e.g. `"gzip"`).
    pub name: String,
    kind: WorkloadKind,
}

#[derive(Debug, Clone)]
enum WorkloadKind {
    Spec(SpecBenchmark),
    Profile(Box<WorkloadProfile>),
}

impl WorkloadPoint {
    /// One of the calibrated SPECINT CPU2000 models.
    pub fn spec(benchmark: SpecBenchmark) -> Self {
        Self {
            name: benchmark.name().to_string(),
            kind: WorkloadKind::Spec(benchmark),
        }
    }

    /// A custom workload profile under `name`.
    ///
    /// Distinct profiles must get distinct names: the trace cache and the
    /// report identify workloads by name.
    pub fn profile(name: impl Into<String>, profile: WorkloadProfile) -> Self {
        Self {
            name: name.into(),
            kind: WorkloadKind::Profile(Box::new(profile)),
        }
    }

    /// Instantiates the workload stream for `seed`.
    pub fn instantiate(&self, seed: u64) -> Workload {
        match &self.kind {
            WorkloadKind::Spec(b) => Workload::spec(*b, seed),
            WorkloadKind::Profile(p) => Workload::new(p, seed),
        }
    }
}

/// The full sweep grid: `configs × workloads × budgets × seeds`.
///
/// Build one with the chained methods and hand it to
/// [`SweepRunner::run`](crate::SweepRunner::run):
///
/// ```
/// use resim_core::EngineConfig;
/// use resim_sweep::{Scenario, WorkloadPoint};
/// use resim_tracegen::TraceGenConfig;
/// use resim_workloads::SpecBenchmark;
///
/// let scenario = Scenario::new()
///     .config("paper-4wide", EngineConfig::paper_4wide(), TraceGenConfig::paper())
///     .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
///     .workload(WorkloadPoint::spec(SpecBenchmark::Vpr))
///     .budgets([10_000])
///     .seeds([2009, 2010]);
/// assert_eq!(scenario.len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    configs: Vec<ConfigPoint>,
    workloads: Vec<WorkloadPoint>,
    budgets: Vec<usize>,
    seeds: Vec<u64>,
    /// Execution-mode axis; empty means the implicit `[CellMode::Full]`.
    modes: Vec<CellMode>,
    /// Human-readable notes from grid construction (e.g. a pipeline
    /// substituted because the requested one is unsatisfiable at a
    /// width) — surfaced by the CLI, never silent.
    grid_notes: Vec<String>,
}

impl Scenario {
    /// Creates an empty scenario.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one engine/tracegen configuration.
    pub fn config(
        mut self,
        name: impl Into<String>,
        engine: EngineConfig,
        tracegen: TraceGenConfig,
    ) -> Self {
        self.configs.push(ConfigPoint::new(name, engine, tracegen));
        self
    }

    /// Adds every labelled point of a [`ConfigGrid`](resim_core::ConfigGrid)
    /// build under one shared trace-generation configuration.
    pub fn config_grid(
        mut self,
        points: impl IntoIterator<Item = (String, EngineConfig)>,
        tracegen: TraceGenConfig,
    ) -> Self {
        for (name, engine) in points {
            self.configs.push(ConfigPoint::new(name, engine, tracegen));
        }
        self
    }

    /// Adds one workload.
    pub fn workload(mut self, point: WorkloadPoint) -> Self {
        self.workloads.push(point);
        self
    }

    /// Adds all five paper SPECINT models.
    pub fn all_spec_workloads(mut self) -> Self {
        for b in SpecBenchmark::ALL {
            self.workloads.push(WorkloadPoint::spec(b));
        }
        self
    }

    /// Sets the correct-path instruction budgets.
    pub fn budgets(mut self, budgets: impl IntoIterator<Item = usize>) -> Self {
        self.budgets = budgets.into_iter().collect();
        self
    }

    /// Sets the workload seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Adds one execution mode to the mode axis.
    ///
    /// Scenarios without an explicit mode run every cell [`CellMode::Full`]
    /// (the implicit single-entry axis), so existing grids are unchanged.
    /// Adding modes multiplies the grid: `.mode(CellMode::Full)
    /// .mode(CellMode::Sampled(plan))` runs every design point both ways,
    /// which is how a grid measures its own sampling error.
    pub fn mode(mut self, mode: CellMode) -> Self {
        self.modes.push(mode);
        self
    }

    /// Replaces the whole execution-mode axis.
    pub fn modes(mut self, modes: impl IntoIterator<Item = CellMode>) -> Self {
        self.modes = modes.into_iter().collect();
        self
    }

    /// Attaches grid-construction notes (see [`Scenario::grid_notes`]).
    pub fn with_grid_notes(mut self, notes: impl IntoIterator<Item = String>) -> Self {
        self.grid_notes.extend(notes);
        self
    }

    /// Notes emitted while the configuration grid was built — for
    /// example a grid point whose requested pipeline organization is
    /// unsatisfiable at its width and was substituted with an
    /// equivalent one. The CLI prints these before running so the
    /// substitution is never silent.
    pub fn grid_notes(&self) -> &[String] {
        &self.grid_notes
    }

    /// The configuration axis.
    pub fn configs(&self) -> &[ConfigPoint] {
        &self.configs
    }

    /// The workload axis.
    pub fn workloads(&self) -> &[WorkloadPoint] {
        &self.workloads
    }

    /// The budget axis.
    pub fn budget_values(&self) -> &[usize] {
        &self.budgets
    }

    /// The seed axis.
    pub fn seed_values(&self) -> &[u64] {
        &self.seeds
    }

    /// The effective execution-mode axis (the implicit `[Full]` when none
    /// was set explicitly).
    pub fn mode_values(&self) -> Vec<CellMode> {
        if self.modes.is_empty() {
            vec![CellMode::Full]
        } else {
            self.modes.clone()
        }
    }

    /// The execution mode of one cell.
    pub fn cell_mode(&self, cell: &Cell) -> CellMode {
        if self.modes.is_empty() {
            CellMode::Full
        } else {
            self.modes[cell.mode]
        }
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.configs.len()
            * self.workloads.len()
            * self.budgets.len()
            * self.seeds.len()
            * self.modes.len().max(1)
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks the grid is runnable: every axis non-empty, names unique,
    /// budgets non-zero and every engine configuration structurally valid.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.is_empty() {
            return Err(ScenarioError::EmptyAxis);
        }
        for window in 0..self.configs.len() {
            if self.configs[window + 1..]
                .iter()
                .any(|c| c.name == self.configs[window].name)
            {
                return Err(ScenarioError::DuplicateName(self.configs[window].name.clone()));
            }
        }
        for window in 0..self.workloads.len() {
            if self.workloads[window + 1..]
                .iter()
                .any(|w| w.name == self.workloads[window].name)
            {
                return Err(ScenarioError::DuplicateName(
                    self.workloads[window].name.clone(),
                ));
            }
        }
        if self.budgets.contains(&0) {
            return Err(ScenarioError::ZeroBudget);
        }
        for window in 0..self.modes.len() {
            if self.modes[window + 1..]
                .iter()
                .any(|m| m.name() == self.modes[window].name())
            {
                return Err(ScenarioError::DuplicateName(self.modes[window].name()));
            }
        }
        for m in &self.modes {
            if let CellMode::Sampled(plan) = m {
                plan.validate()
                    .map_err(|e| ScenarioError::Mode(m.name(), e))?;
            }
        }
        for c in &self.configs {
            c.engine
                .validate()
                .map_err(|e| ScenarioError::Config(c.name.clone(), e))?;
        }
        Ok(())
    }

    /// Enumerates the cells in the deterministic dispatch order:
    /// seed-major, then budget, then workload, then mode, with the
    /// configuration axis innermost — so cells sharing one generated
    /// trace (all modes and configs of a `(workload, seed, budget)`
    /// tuple) are adjacent in the queue.
    pub fn cells(&self) -> Vec<Cell> {
        let n_modes = self.modes.len().max(1);
        let mut out = Vec::with_capacity(self.len());
        for (si, &seed) in self.seeds.iter().enumerate() {
            for (bi, &budget) in self.budgets.iter().enumerate() {
                for wi in 0..self.workloads.len() {
                    for mi in 0..n_modes {
                        for ci in 0..self.configs.len() {
                            out.push(Cell {
                                index: out.len(),
                                config: ci,
                                workload: wi,
                                budget,
                                seed,
                                budget_index: bi,
                                seed_index: si,
                                mode: mi,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The content-addressed identity of one cell: FNV-1a over the
    /// engine fingerprint, tracegen fingerprint, workload name, seed,
    /// budget and execution-mode name.
    ///
    /// Everything that determines the cell's [`SimStats`] is included;
    /// everything that does not — the config's *display name*, thread
    /// counts, trace-file paths — is deliberately excluded, so two
    /// scenarios that simulate the same machine on the same input share
    /// the key. This is what `resim-serve`'s result cache stores under.
    ///
    /// [`SimStats`]: resim_core::SimStats
    pub fn cell_fingerprint(&self, cell: &Cell) -> u64 {
        let mut h = resim_core::Fnv64::new();
        h.write_u64(self.configs[cell.config].engine.fingerprint());
        h.write_u64(self.configs[cell.config].tracegen.fingerprint());
        h.write_str(&self.workloads[cell.workload].name);
        h.write_u64(cell.seed);
        h.write_u64(cell.budget as u64);
        h.write_str(&self.cell_mode(cell).name());
        h.finish()
    }

    /// The trace-cache key of one cell.
    pub fn trace_key(&self, cell: &Cell) -> TraceKey {
        TraceKey {
            workload: self.workloads[cell.workload].name.clone(),
            seed: cell.seed,
            n_correct: cell.budget,
            config: self.configs[cell.config].tracegen,
        }
    }
}

/// One point of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Position in the deterministic dispatch order.
    pub index: usize,
    /// Index into [`Scenario::configs`].
    pub config: usize,
    /// Index into [`Scenario::workloads`].
    pub workload: usize,
    /// Correct-path instruction budget of this cell.
    pub budget: usize,
    /// Workload seed of this cell.
    pub seed: u64,
    /// Index into [`Scenario::budget_values`].
    pub budget_index: usize,
    /// Index into [`Scenario::seed_values`].
    pub seed_index: usize,
    /// Index into [`Scenario::mode_values`].
    pub mode: usize,
}

/// Reasons a scenario cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// At least one axis (configs, workloads, budgets, seeds) is empty.
    EmptyAxis,
    /// Two configs or two workloads share a display name.
    DuplicateName(String),
    /// A zero instruction budget was requested.
    ZeroBudget,
    /// An engine configuration failed structural validation.
    Config(String, ConfigError),
    /// A sampled execution mode carries a degenerate plan.
    Mode(String, PlanError),
    /// A subset run named a cell index outside the grid.
    CellIndex {
        /// The offending index.
        index: usize,
        /// Number of cells in the grid.
        cells: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::EmptyAxis => {
                write!(f, "every scenario axis (configs, workloads, budgets, seeds) needs at least one entry")
            }
            ScenarioError::DuplicateName(name) => {
                write!(f, "duplicate scenario point name {name:?}")
            }
            ScenarioError::ZeroBudget => write!(f, "instruction budgets must be non-zero"),
            ScenarioError::Config(name, e) => write!(f, "config {name:?} is invalid: {e}"),
            ScenarioError::Mode(name, e) => write!(f, "mode {name:?} is invalid: {e}"),
            ScenarioError::CellIndex { index, cells } => {
                write!(f, "cell index {index} is outside the grid ({cells} cells)")
            }
        }
    }
}

impl Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> Scenario {
        Scenario::new()
            .config("a", EngineConfig::paper_4wide(), TraceGenConfig::paper())
            .config("b", EngineConfig::paper_2wide_cached(), TraceGenConfig::perfect())
            .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
            .workload(WorkloadPoint::spec(SpecBenchmark::Vpr))
            .budgets([1_000])
            .seeds([1, 2])
    }

    #[test]
    fn cell_enumeration_is_config_innermost() {
        let s = two_by_two();
        assert_eq!(s.len(), 8);
        let cells = s.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!((cells[0].config, cells[0].workload, cells[0].seed), (0, 0, 1));
        assert_eq!((cells[1].config, cells[1].workload, cells[1].seed), (1, 0, 1));
        assert_eq!((cells[2].config, cells[2].workload, cells[2].seed), (0, 1, 1));
        assert_eq!(cells[7].seed, 2);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn trace_keys_share_across_configs_with_same_tracegen() {
        let s = Scenario::new()
            .config("a", EngineConfig::paper_4wide(), TraceGenConfig::paper())
            .config(
                "b",
                EngineConfig {
                    rb_size: 32,
                    ..EngineConfig::paper_4wide()
                },
                TraceGenConfig::paper(),
            )
            .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
            .budgets([500])
            .seeds([7]);
        let cells = s.cells();
        assert_eq!(s.trace_key(&cells[0]), s.trace_key(&cells[1]));
    }

    #[test]
    fn validation_catches_problems() {
        assert_eq!(Scenario::new().validate(), Err(ScenarioError::EmptyAxis));
        let dup = two_by_two().config("a", EngineConfig::paper_4wide(), TraceGenConfig::paper());
        assert!(matches!(dup.validate(), Err(ScenarioError::DuplicateName(_))));
        let zero = two_by_two().budgets([0]);
        assert_eq!(zero.validate(), Err(ScenarioError::ZeroBudget));
        let bad = two_by_two().config(
            "bad",
            EngineConfig {
                width: 0,
                ..EngineConfig::paper_4wide()
            },
            TraceGenConfig::paper(),
        );
        assert!(matches!(bad.validate(), Err(ScenarioError::Config(_, _))));
        assert!(two_by_two().validate().is_ok());
    }

    #[test]
    fn implicit_mode_axis_is_full_only() {
        let s = two_by_two();
        assert_eq!(s.mode_values(), vec![CellMode::Full]);
        assert_eq!(s.len(), 8, "no mode multiplier without explicit modes");
        for c in s.cells() {
            assert_eq!(c.mode, 0);
            assert_eq!(s.cell_mode(&c), CellMode::Full);
        }
    }

    #[test]
    fn explicit_modes_multiply_the_grid() {
        let plan = SamplePlan::systematic(1_000, 200, 2);
        let s = two_by_two()
            .mode(CellMode::Full)
            .mode(CellMode::Sampled(plan));
        assert_eq!(s.len(), 16);
        assert!(s.validate().is_ok());
        let cells = s.cells();
        // Mode varies outside the config axis: full for both configs,
        // then sampled for both.
        assert_eq!(s.cell_mode(&cells[0]), CellMode::Full);
        assert_eq!(s.cell_mode(&cells[1]), CellMode::Full);
        assert_eq!(s.cell_mode(&cells[2]), CellMode::Sampled(plan));
        assert_eq!(s.cell_mode(&cells[3]), CellMode::Sampled(plan));
        // Same trace key across modes: sampling shares the grid's traces.
        assert_eq!(s.trace_key(&cells[0]), s.trace_key(&cells[2]));
    }

    #[test]
    fn degenerate_or_duplicate_modes_are_rejected() {
        let bad = two_by_two().mode(CellMode::Sampled(SamplePlan::systematic(10, 20, 1)));
        assert!(matches!(bad.validate(), Err(ScenarioError::Mode(_, _))));
        let dup = two_by_two().mode(CellMode::Full).mode(CellMode::Full);
        assert!(matches!(
            dup.validate(),
            Err(ScenarioError::DuplicateName(_))
        ));
    }

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(CellMode::Full.name(), "full");
        assert_eq!(
            CellMode::Sampled(SamplePlan::systematic(1000, 100, 10)).name(),
            "sampled-u1000d100k10f"
        );
        assert_eq!(CellMode::default(), CellMode::Full);
    }

    #[test]
    fn custom_profile_workloads_instantiate() {
        let p = WorkloadProfile::generic();
        let point = WorkloadPoint::profile("generic", p);
        let mut w = point.instantiate(3);
        assert_eq!(w.generate(100).len(), 100);
        assert_eq!(point.name, "generic");
    }
}
