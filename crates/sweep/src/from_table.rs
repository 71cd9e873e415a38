//! TOML scenario-file construction of sweep scenarios.
//!
//! Maps the `[sweep]` table of a `resim` scenario file onto
//! [`Scenario`] — the entry point of the declarative bulk-simulation
//! path (`resim sweep`). See `docs/guide.md` for the key reference.

use crate::scenario::{CellMode, Scenario, WorkloadPoint};
use resim_core::{ConfigGrid, EngineConfig, PipelineDescription};
use resim_sample::SamplePlan;
use resim_toml::{Error, Table};
use resim_tracegen::TraceGenConfig;
use resim_workloads::{SpecBenchmark, WorkloadProfile};

impl WorkloadPoint {
    /// Looks a workload up by scenario-file name: one of the five
    /// calibrated SPECINT models (`"gzip"`, `"bzip2"`, `"parser"`,
    /// `"vortex"`, `"vpr"`) or `"generic"`
    /// ([`WorkloadProfile::generic`]). Custom profiles stay
    /// library-only ([`WorkloadPoint::profile`]).
    ///
    /// ```
    /// use resim_sweep::WorkloadPoint;
    ///
    /// assert_eq!(WorkloadPoint::named("bzip2").unwrap().name, "bzip2");
    /// assert!(WorkloadPoint::named("mcf").is_none());
    /// ```
    pub fn named(name: &str) -> Option<Self> {
        if name == "generic" {
            return Some(WorkloadPoint::profile("generic", WorkloadProfile::generic()));
        }
        SpecBenchmark::by_name(name).map(WorkloadPoint::spec)
    }

    /// The names [`WorkloadPoint::named`] accepts, rendered for
    /// diagnostics (`"gzip, bzip2, parser, vortex, vpr or generic"`) —
    /// derived from [`SpecBenchmark::ALL`] so error messages track new
    /// benchmarks automatically.
    pub fn valid_names() -> String {
        let spec: Vec<&str> = SpecBenchmark::ALL.iter().map(|b| b.name()).collect();
        format!("{} or generic", spec.join(", "))
    }
}

/// Resolves a `[tracegen]`-shaped table against an engine
/// configuration, defaulting the generator's predictor to the
/// engine's when no predictor is given — the wrong-path tags are only
/// meaningful when the two match (§V.A).
///
/// This is THE inheritance rule for scenario files: the sweep grid
/// (config entries and the grid base) and the CLI's single-run
/// commands all resolve through it, so a scenario means the same
/// thing on every path.
///
/// ```
/// use resim_core::EngineConfig;
/// use resim_sweep::resolve_tracegen;
///
/// let engine = EngineConfig::paper_2wide_cached(); // perfect predictor
/// let tg = resolve_tracegen(&engine, None).unwrap();
/// assert_eq!(tg.predictor, engine.predictor);
/// ```
///
/// # Errors
///
/// Whatever [`TraceGenConfig::from_table`] rejects.
pub fn resolve_tracegen(
    engine: &EngineConfig,
    table: Option<&Table>,
) -> Result<TraceGenConfig, Error> {
    match table {
        Some(g) => {
            let mut tg = TraceGenConfig::from_table(g)?;
            if g.opt_table("predictor")?.is_none() {
                tg.predictor = engine.predictor;
            }
            Ok(tg)
        }
        None => Ok(TraceGenConfig {
            predictor: engine.predictor,
            ..TraceGenConfig::paper()
        }),
    }
}

/// The keys a `[sweep]` table may carry.
pub(crate) const SWEEP_KEYS: &[&str] = &[
    "workloads",
    "budgets",
    "seeds",
    "modes",
    "sample",
    "config",
    "grid",
    "threads",
    "trace_files",
];

impl Scenario {
    /// Builds a sweep scenario from a `[sweep]` table.
    ///
    /// Axes:
    ///
    /// * `workloads` — array of workload names
    ///   ([`WorkloadPoint::named`]), required;
    /// * `budgets`, `seeds` — integer arrays, required;
    /// * `modes` — optional array of `"full"` / `"sampled"`;
    ///   `"sampled"` reads its plan from the `[sweep.sample]` sub-table
    ///   ([`SamplePlan::from_table`]);
    /// * configurations — any number of `[[sweep.config]]` entries
    ///   (`name`, optional `engine` and `tracegen` sub-tables), and/or
    ///   one `[sweep.grid]` (axis keys per
    ///   [`ConfigGrid::from_table`], an optional `base` engine table
    ///   and an optional shared `tracegen` table). At least one
    ///   configuration must result.
    ///
    /// A config entry without a `tracegen` table — or with one that
    /// omits `predictor` — generates its traces with the **engine's**
    /// predictor, keeping the wrong-path tags meaningful (§V.A).
    ///
    /// The keys `threads` and `trace_files` are permitted but ignored
    /// here: they steer the CLI driver, not the grid itself.
    ///
    /// The result is validated ([`Scenario::validate`]), so a table
    /// that parses is a grid
    /// [`SweepRunner::run`](crate::SweepRunner::run) accepts.
    ///
    /// ```
    /// use resim_sweep::Scenario;
    ///
    /// let doc = resim_toml::parse(r#"
    /// [sweep]
    /// workloads = ["gzip", "vpr"]
    /// budgets = [5000]
    /// seeds = [2009, 2010]
    ///
    /// [sweep.grid]
    /// rb_sizes = [16, 32]
    /// "#).unwrap();
    /// let sweep = doc.opt_table("sweep").unwrap().unwrap();
    /// let scenario = Scenario::from_table(sweep).unwrap();
    /// assert_eq!(scenario.len(), 2 * 2 * 2, "configs x workloads x seeds");
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for unknown keys or workload names,
    /// missing required axes, sub-table problems, or a grid failing
    /// [`Scenario::validate`] (duplicate names, zero budgets, invalid
    /// configurations).
    pub fn from_table(t: &Table) -> Result<Self, Error> {
        Self::from_table_with(t, None)
    }

    /// [`Scenario::from_table`] with a scenario-level custom
    /// [`PipelineDescription`] in scope (a top-level `[pipeline]`
    /// table, parsed by the caller). When given, the description is
    /// the default pipeline of every `[[sweep.config]]` engine and of
    /// the `[sweep.grid]` base, and its name is resolvable on the
    /// grid's `pipelines` axis alongside the built-ins.
    ///
    /// # Errors
    ///
    /// As [`Scenario::from_table`].
    pub fn from_table_with(
        t: &Table,
        custom: Option<&PipelineDescription>,
    ) -> Result<Self, Error> {
        t.ensure_only(SWEEP_KEYS)?;
        let mut scenario = Scenario::new();

        for entry in t.table_array("config")? {
            entry.ensure_only(&["name", "engine", "tracegen"])?;
            let name = entry.req_str("name")?;
            let engine = match entry.opt_table("engine")? {
                Some(e) => EngineConfig::from_table_with(e, custom)?,
                None => match custom {
                    Some(p) => EngineConfig {
                        pipeline: p.clone(),
                        ..EngineConfig::paper_4wide()
                    },
                    None => EngineConfig::paper_4wide(),
                },
            };
            let tracegen = resolve_tracegen(&engine, entry.opt_table("tracegen")?)?;
            scenario = scenario.config(name, engine, tracegen);
        }
        if let Some(g) = t.opt_table("grid")? {
            let base = grid_base(g, custom)?;
            let tracegen = resolve_tracegen(&base, g.opt_table("tracegen")?)?;
            let grid = ConfigGrid::from_table_with(base, g, custom)?;
            let (points, notes) = grid
                .try_build_with_notes()
                .map_err(|(name, e)| g.error(format!("grid point {name:?}: {e}")))?;
            scenario = scenario.config_grid(points, tracegen).with_grid_notes(notes);
        }
        if scenario.configs().is_empty() {
            return Err(t.error(
                "a sweep needs at least one configuration: [[sweep.config]] entries \
                 and/or a [sweep.grid]",
            ));
        }

        let Some(workloads) = t.opt_str_array("workloads")? else {
            return Err(t.error("missing required array key \"workloads\""));
        };
        for w in &workloads {
            let point = WorkloadPoint::named(&w.value).ok_or_else(|| {
                w.error(format!(
                    "unknown workload {:?} (expected {})",
                    w.value,
                    WorkloadPoint::valid_names()
                ))
            })?;
            scenario = scenario.workload(point);
        }
        let Some(budgets) = t.opt_usize_array("budgets")? else {
            return Err(t.error("missing required array key \"budgets\""));
        };
        let Some(seeds) = t.opt_u64_array("seeds")? else {
            return Err(t.error("missing required array key \"seeds\""));
        };
        scenario = scenario.budgets(budgets).seeds(seeds);

        if let Some(modes) = t.opt_str_array("modes")? {
            for m in &modes {
                scenario = match m.value.as_str() {
                    "full" => scenario.mode(CellMode::Full),
                    "sampled" => {
                        let sub = t.opt_table("sample")?.ok_or_else(|| {
                            m.error("mode \"sampled\" requires a [sweep.sample] table")
                        })?;
                        scenario.mode(CellMode::Sampled(SamplePlan::from_table(sub)?))
                    }
                    other => {
                        return Err(m.error(format!(
                            "unknown mode {other:?} (expected full or sampled)"
                        )))
                    }
                };
            }
        }

        scenario
            .validate()
            .map_err(|e| t.error(format!("invalid scenario: {e}")))?;
        Ok(scenario)
    }
}

/// The base point of a `[sweep.grid]` table: its `[sweep.grid.base]`
/// engine, or `paper-4wide` (with the document's custom pipeline, if
/// any) when the table has none.
pub(crate) fn grid_base(
    grid: &Table,
    custom: Option<&PipelineDescription>,
) -> Result<EngineConfig, Error> {
    Ok(match grid.opt_table("base")? {
        Some(b) => EngineConfig::from_table_with(b, custom)?,
        None => match custom {
            Some(p) => EngineConfig {
                pipeline: p.clone(),
                ..EngineConfig::paper_4wide()
            },
            None => EngineConfig::paper_4wide(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_bpred::PredictorConfig;

    fn parse(s: &str) -> Result<Scenario, Error> {
        let doc = resim_toml::parse(s).unwrap();
        let sweep = doc.opt_table("sweep").unwrap().expect("[sweep] present");
        Scenario::from_table(sweep)
    }

    const MINIMAL: &str = r#"
[sweep]
workloads = ["gzip"]
budgets = [1000]
seeds = [1]
[[sweep.config]]
name = "base"
"#;

    #[test]
    fn minimal_scenario() {
        let s = parse(MINIMAL).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.configs()[0].name, "base");
        assert_eq!(s.configs()[0].engine, EngineConfig::paper_4wide());
        assert_eq!(
            s.configs()[0].tracegen,
            TraceGenConfig::paper(),
            "default engine predictor == paper tracegen predictor"
        );
    }

    #[test]
    fn config_entries_and_grid_combine() {
        let s = parse(
            r#"
[sweep]
workloads = ["gzip", "vpr"]
budgets = [1000, 2000]
seeds = [1]
[[sweep.config]]
name = "cached"
[sweep.config.engine]
preset = "paper-2wide-cached"
[sweep.grid]
rb_sizes = [16, 32]
"#,
        )
        .unwrap();
        assert_eq!(s.configs().len(), 3, "1 explicit + 2 grid points");
        assert_eq!(s.configs()[1].name, "rb16");
        assert_eq!(s.len(), 3 * 2 * 2);
    }

    #[test]
    fn tracegen_predictor_follows_the_engine() {
        let s = parse(
            r#"
[sweep]
workloads = ["gzip"]
budgets = [1000]
seeds = [1]
[[sweep.config]]
name = "perf"
[sweep.config.engine.predictor]
kind = "perfect"
"#,
        )
        .unwrap();
        assert_eq!(
            s.configs()[0].tracegen.predictor,
            PredictorConfig::perfect(),
            "no [tracegen] table: generator inherits the engine predictor"
        );
    }

    #[test]
    fn explicit_tracegen_predictor_wins() {
        let s = parse(
            r#"
[sweep]
workloads = ["gzip"]
budgets = [1000]
seeds = [1]
[[sweep.config]]
name = "mixed"
[sweep.config.engine.predictor]
kind = "perfect"
[sweep.config.tracegen]
seed = 9
[sweep.config.tracegen.predictor]
kind = "two-level"
"#,
        )
        .unwrap();
        assert_eq!(s.configs()[0].tracegen.seed, 9);
        assert_eq!(
            s.configs()[0].tracegen.predictor,
            PredictorConfig::paper_two_level()
        );
    }

    #[test]
    fn modes_axis_with_sample_plan() {
        let s = parse(
            r#"
[sweep]
workloads = ["gzip"]
budgets = [10000]
seeds = [1]
modes = ["full", "sampled"]
[sweep.sample]
interval = 1000
detailed = 200
period = 2
[[sweep.config]]
name = "base"
"#,
        )
        .unwrap();
        assert_eq!(s.mode_values().len(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn missing_axes_are_pointed_out() {
        let err = parse("[sweep]\nbudgets = [1]\nseeds = [1]\n[[sweep.config]]\nname = \"a\"")
            .unwrap_err();
        assert!(err.to_string().contains("workloads"), "{err}");
        let err = parse("[sweep]\nworkloads = [\"gzip\"]\nbudgets = [1]\nseeds = [1]").unwrap_err();
        assert!(err.to_string().contains("at least one configuration"), "{err}");
        let err = parse(
            "[sweep]\nworkloads = [\"gzip\"]\nseeds = [1]\n[[sweep.config]]\nname = \"a\"",
        )
        .unwrap_err();
        assert!(err.to_string().contains("budgets"), "{err}");
    }

    #[test]
    fn bad_workload_and_mode_names_carry_lines() {
        let err = parse(
            "[sweep]\nworkloads = [\"gzip\",\n  \"mcf\"]\nbudgets = [1]\nseeds = [1]\n[[sweep.config]]\nname = \"a\"",
        )
        .unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("mcf"));
        let err = parse(
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [1]\nseeds = [1]\nmodes = [\"exact\"]\n[[sweep.config]]\nname = \"a\"",
        )
        .unwrap_err();
        assert!(err.to_string().contains("exact"));
        let err = parse(
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [1]\nseeds = [1]\nmodes = [\"sampled\"]\n[[sweep.config]]\nname = \"a\"",
        )
        .unwrap_err();
        assert!(err.to_string().contains("[sweep.sample]"));
    }

    #[test]
    fn scenario_validation_runs() {
        let err = parse(
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [0]\nseeds = [1]\n[[sweep.config]]\nname = \"a\"",
        )
        .unwrap_err();
        assert!(err.to_string().contains("non-zero"), "{err}");
        let err = parse(
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [1]\nseeds = [1]\n[[sweep.config]]\nname = \"a\"\n[[sweep.config]]\nname = \"a\"",
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn impossible_grid_combination_is_a_line_diagnostic() {
        let err = parse(
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [1]\nseeds = [1]\n[sweep.grid]\nrb_sizes = [2]",
        )
        .unwrap_err();
        assert_eq!(err.line(), 5, "anchored at the [sweep.grid] header");
        assert!(err.to_string().contains("grid point \"rb2\""), "{err}");
    }

    #[test]
    fn generic_workload_is_available() {
        let s = parse(
            "[sweep]\nworkloads = [\"generic\"]\nbudgets = [100]\nseeds = [1]\n[[sweep.config]]\nname = \"a\"",
        )
        .unwrap();
        assert_eq!(s.workloads()[0].name, "generic");
    }

    #[test]
    fn custom_pipeline_is_the_default_and_axis_resolvable() {
        let custom = PipelineDescription::new(
            "skewed",
            true,
            false,
            vec![
                resim_core::StageRow::per_way("fetch", "F", "2*i".parse().unwrap()),
                resim_core::StageRow::per_way("commit", "C", "2*i+1".parse().unwrap()),
            ],
        );
        let doc = resim_toml::parse(
            r#"
[sweep]
workloads = ["gzip"]
budgets = [1000]
seeds = [1]
[[sweep.config]]
name = "plain"
[sweep.grid]
pipelines = ["improved", "skewed"]
"#,
        )
        .unwrap();
        let sweep = doc.opt_table("sweep").unwrap().unwrap();
        let s = Scenario::from_table_with(sweep, Some(&custom)).unwrap();
        assert_eq!(
            s.configs()[0].engine.pipeline, custom,
            "a config entry without [engine] inherits the scenario pipeline"
        );
        assert_eq!(s.configs()[2].name, "skewed");
        assert_eq!(s.configs()[2].engine.pipeline, custom);
    }

    #[test]
    fn grid_substitution_notes_reach_the_scenario() {
        let s = parse(
            r#"
[sweep]
workloads = ["gzip"]
budgets = [1000]
seeds = [1]
[sweep.grid]
widths = [1, 2]
pipelines = ["optimized"]
[sweep.grid.base]
mem_read_ports = 1
"#,
        )
        .unwrap();
        assert_eq!(s.configs().len(), 2);
        assert_eq!(s.grid_notes().len(), 1, "{:?}", s.grid_notes());
        assert!(s.grid_notes()[0].contains("unsatisfiable"), "{:?}", s.grid_notes());
    }

    #[test]
    fn cli_owned_keys_are_tolerated() {
        let s = parse(
            "[sweep]\nthreads = 2\ntrace_files = [\"t.trace\"]\nworkloads = [\"gzip\"]\nbudgets = [1]\nseeds = [1]\n[[sweep.config]]\nname = \"a\"",
        );
        assert!(s.is_ok());
    }
}
