//! Scenario grids: the cross product of engine configurations,
//! workloads, instruction budgets and workload seeds.

use resim_core::{ConfigError, EngineConfig, PipelineDescription};
use resim_sample::{PlanError, SamplePlan};
use resim_tracegen::{TraceGenConfig, TraceKey};
use resim_workloads::{SpecBenchmark, Workload, WorkloadProfile};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::hash::Hash;

/// How one grid cell executes its trace — the accuracy-versus-wall-clock
/// axis of a scenario. A cell runs through
/// [`resim_sample::simulate`] with the mode's [`CellMode::plan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CellMode {
    /// Every record cycle-accurate on one engine.
    #[default]
    Full,
    /// SMARTS-style sampled simulation under the given plan; the cell
    /// reports the merged detailed-window statistics plus the
    /// per-window confidence data.
    Sampled(SamplePlan),
}

impl From<Option<SamplePlan>> for CellMode {
    /// `Sampled` under the plan, `Full` without one.
    fn from(plan: Option<SamplePlan>) -> Self {
        plan.map_or(CellMode::Full, CellMode::Sampled)
    }
}

impl CellMode {
    /// The sample plan a `Sampled` cell runs under; `None` for `Full`.
    pub fn plan(&self) -> Option<&SamplePlan> {
        match self {
            CellMode::Full => None,
            CellMode::Sampled(plan) => Some(plan),
        }
    }

    /// Display name, unique per distinct mode (`"full"`, or
    /// `"sampled-<plan>"`).
    pub fn name(&self) -> String {
        match self {
            CellMode::Full => "full".to_string(),
            CellMode::Sampled(plan) => format!("sampled-{}", plan.name()),
        }
    }
}

/// The content-addressed key of one cell from its parts: FNV-1a over
/// the engine fingerprint, tracegen fingerprint, workload name, seed,
/// budget and execution-mode name. [`Scenario::cell_fingerprint`] is
/// this key of a grid cell; `resim-serve` recomputes it from a stored
/// session to check that an entry holds the cell its file is named for.
pub fn cell_key(
    engine_fingerprint: u64,
    tracegen_fingerprint: u64,
    workload: &str,
    seed: u64,
    budget: u64,
    mode: &CellMode,
) -> u64 {
    let mut h = resim_core::Fnv64::new();
    h.write_u64(engine_fingerprint);
    h.write_u64(tracegen_fingerprint);
    h.write_str(workload);
    h.write_u64(seed);
    h.write_u64(budget);
    h.write_str(&mode.name());
    h.finish()
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
                return Err(ScenarioError::DuplicateName(
                    self.configs[window].name.clone(),
                ));
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
    /// the key. This is what `resim-serve`'s result cache stores under
    /// ([`cell_key`] of the cell's parts).
    ///
    /// [`SimStats`]: resim_core::SimStats
    pub fn cell_fingerprint(&self, cell: &Cell) -> u64 {
        let config = &self.configs[cell.config];
        cell_key(
            config.engine.fingerprint(),
            config.tracegen.fingerprint(),
            &self.workloads[cell.workload].name,
            cell.seed,
            cell.budget as u64,
            &self.cell_mode(cell),
        )
    }

    /// Groups `cells` into engine runs: each inner vector holds the
    /// positions (into `cells`) of cells that simulate identical timing,
    /// so one run serves them all. The first position of a group is the
    /// cell whose configuration runs; groups appear in the order of
    /// their first cell.
    ///
    /// Two cells share a run when they have the same workload, seed,
    /// budget and mode, their configs have the same trace-generation
    /// configuration, and their engine configurations are equal in every
    /// field except `pipeline`. The §IV organizations simulate the same
    /// processor cycle for cycle and differ only in the engine's
    /// minor-cycle cost, which the runner charges per cell through
    /// [`SimStats::with_minor_cycle_cost`](resim_core::SimStats::with_minor_cycle_cost).
    /// Configs are compared once each pair (`configs²`), with `==` on
    /// copies whose pipeline is normalized, never by fingerprint.
    pub fn timing_groups(&self, cells: &[Cell]) -> Vec<Vec<usize>> {
        let normal = PipelineDescription::optimized();
        let class = self.config_classes(|engine| EngineConfig {
            pipeline: normal.clone(),
            ..engine.clone()
        });
        group_by_key(
            cells
                .iter()
                .map(|c| (class[c.config], c.workload, c.seed, c.budget, c.mode)),
        )
    }

    /// Groups the [`Scenario::timing_groups`] of `cells` into queue
    /// families: each inner vector holds indices into `groups` whose
    /// runs differ at most in the three queue sizes. Members are in
    /// descending `(rb_size, lsq_size, ifq_size)` order of the
    /// configuration each group runs; families appear in the order of
    /// their first group.
    ///
    /// Two groups are in one family when their first cells have the same
    /// workload, seed, budget and mode, their configs have the same
    /// trace-generation configuration, and their engine configurations
    /// are equal in every field except `pipeline`, `ifq_size`, `rb_size`
    /// and `lsq_size`. A queue that never filled in one member's run is
    /// invisible at any size above its largest occupancy
    /// ([`SimStats::covers`](resim_core::SimStats::covers)), so the
    /// runner runs the largest queues first and serves smaller members
    /// from those runs where the rule allows. Configs are compared as in
    /// [`Scenario::timing_groups`].
    pub fn queue_families(&self, cells: &[Cell], groups: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let normal = PipelineDescription::optimized();
        let class = self.config_classes(|engine| EngineConfig {
            pipeline: normal.clone(),
            ifq_size: 0,
            rb_size: 0,
            lsq_size: 0,
            ..engine.clone()
        });
        let first = |g: &Vec<usize>| &cells[g[0]];
        let mut families = group_by_key(
            groups
                .iter()
                .map(first)
                .map(|c| (class[c.config], c.workload, c.seed, c.budget, c.mode)),
        );
        for family in &mut families {
            family.sort_by_key(|&g| {
                let e = &self.configs[first(&groups[g]).config].engine;
                Reverse((e.rb_size, e.lsq_size, e.ifq_size))
            });
        }
        families
    }

    /// For every config, the index of the first config whose engine
    /// configuration after `normalize`, and whose trace-generation
    /// configuration, are `==` to its own.
    fn config_classes(&self, normalize: impl Fn(&EngineConfig) -> EngineConfig) -> Vec<usize> {
        let normalized: Vec<(EngineConfig, TraceGenConfig)> = self
            .configs
            .iter()
            .map(|c| (normalize(&c.engine), c.tracegen))
            .collect();
        (0..normalized.len())
            .map(|i| {
                (0..i)
                    .find(|&j| normalized[j] == normalized[i])
                    .unwrap_or(i)
            })
            .collect()
    }

    /// Groups the distinct trace keys of `cells` by the stream they tag:
    /// each inner vector holds, for one `(workload, seed, budget)` point,
    /// the position (into `cells`) of the first cell of every distinct
    /// trace-generation configuration. Groups and their members appear
    /// in the order of their first cell.
    ///
    /// Every trace of a group has the same correct path — the first
    /// `budget` records of the workload's stream — and differs only in
    /// the predictor and block length that tag it, so phase 1 of
    /// [`SweepRunner`](crate::SweepRunner) walks the workload once per
    /// group and re-tags that trace's correct path for the rest.
    pub fn stream_groups(&self, cells: &[Cell]) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of = HashMap::new();
        let mut seen = HashSet::new();
        for (position, c) in cells.iter().enumerate() {
            let stream = (c.workload, c.seed, c.budget);
            if !seen.insert((stream, self.configs[c.config].tracegen)) {
                continue;
            }
            let group = *group_of.entry(stream).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[group].push(position);
        }
        groups
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

/// Positions `0..` of `keys` grouped by equal key, groups in the order
/// of their first member.
fn group_by_key<K: Hash + Eq>(keys: impl Iterator<Item = K>) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = HashMap::new();
    for (position, key) in keys.enumerate() {
        let group = *group_of.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[group].push(position);
    }
    groups
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

/// The largest correct-path instruction budget a scenario may request,
/// through `[workload] budget`, `[sweep] budgets` or `resim trace
/// --budget`.
///
/// A budget is materialized: the whole trace, wrong-path records
/// included, is generated into memory before the engine runs it. Peak
/// resident memory grows by about 22 bytes per budgeted instruction
/// for `resim run` and `resim sweep`, and 28 for `resim trace`, which
/// also holds the encoded copy (measured on gzip between budgets of 1 M
/// and 4 M). The bound therefore caps one trace at about 0.7–0.9 GB.
/// The largest budget any committed scenario, example or benchmark
/// uses is 1,000,000.
pub const MAX_BUDGET: usize = 32_000_000;

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
            .config(
                "b",
                EngineConfig::paper_2wide_cached(),
                TraceGenConfig::perfect(),
            )
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
        assert_eq!(
            (cells[0].config, cells[0].workload, cells[0].seed),
            (0, 0, 1)
        );
        assert_eq!(
            (cells[1].config, cells[1].workload, cells[1].seed),
            (1, 0, 1)
        );
        assert_eq!(
            (cells[2].config, cells[2].workload, cells[2].seed),
            (0, 1, 1)
        );
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
    fn stream_groups_hold_one_cell_per_trace_key() {
        // Configs a and c share a trace; b tags with another predictor.
        let s = two_by_two()
            .config(
                "c",
                EngineConfig::paper_2wide_cached(),
                TraceGenConfig::paper(),
            )
            .budgets([1_000, 2_000]);
        let cells = s.cells();
        let groups = s.stream_groups(&cells);
        assert_eq!(groups.len(), 2 * 2 * 2, "workloads x seeds x budgets");
        let mut keys = HashSet::new();
        for group in &groups {
            assert_eq!(group.len(), 2, "two distinct tracegen configs");
            let first = &cells[group[0]];
            for &p in group {
                let c = &cells[p];
                let stream = |c: &Cell| (c.workload, c.seed, c.budget);
                assert_eq!(stream(c), stream(first));
                assert!(keys.insert(s.trace_key(c)), "a key appears once");
            }
        }
        let all: HashSet<_> = cells.iter().map(|c| s.trace_key(c)).collect();
        assert_eq!(keys, all, "every key is in some group");
        let firsts: Vec<usize> = groups.iter().map(|g| g[0]).collect();
        assert!(
            firsts.windows(2).all(|w| w[0] < w[1]),
            "groups in first-cell order"
        );
    }

    #[test]
    fn validation_catches_problems() {
        assert_eq!(Scenario::new().validate(), Err(ScenarioError::EmptyAxis));
        let dup = two_by_two().config("a", EngineConfig::paper_4wide(), TraceGenConfig::paper());
        assert!(matches!(
            dup.validate(),
            Err(ScenarioError::DuplicateName(_))
        ));
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
    fn modes_convert_to_and_from_plans() {
        let plan = SamplePlan::systematic(1000, 100, 10);
        assert_eq!(CellMode::Full.plan(), None);
        assert_eq!(CellMode::Sampled(plan).plan(), Some(&plan));
        for mode in [CellMode::Full, CellMode::Sampled(plan)] {
            assert_eq!(CellMode::from(mode.plan().copied()), mode);
        }
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
