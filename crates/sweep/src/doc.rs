//! The resolved scenario document driving every subcommand — and, since
//! the serving layer exists, every submission to `resim-serve`.
//!
//! A scenario file is one TOML document with up to seven sections —
//! `[engine]`, `[tracegen]`, `[workload]`, `[trace]`, `[sample]`,
//! `[sweep]` and `[pipeline]` (a custom engine organization) — each
//! mapped onto the simulator's types through the
//! `from_table` constructors of the respective crates, so every
//! mistake is a line-numbered diagnostic. `docs/guide.md` documents
//! every key with examples.
//!
//! [`ScenarioDoc`] lives in `resim-sweep` (not the CLI) because it is
//! the unit of *identity*: [`ScenarioDoc::fingerprint`] is the
//! content-addressed cache key of the result cache, and
//! [`ScenarioDoc::to_scenario`] turns any document — single run,
//! sampled run, or sweep grid — into the one executable shape
//! ([`Scenario`]) the runner and the server share.

use crate::from_table::SWEEP_KEYS;
use crate::scenario::{CellMode, Scenario, WorkloadPoint, MAX_BUDGET};
use resim_core::{EngineConfig, Fnv64, PipelineDescription};
use resim_sample::SamplePlan;
use resim_toml::{Error, Key, Kind, Table};
use resim_trace::Trace;
use resim_tracegen::{generate_trace, TraceGenConfig};

/// The sections of a scenario document.
pub const SECTION_KEYS: &[Key] = &[
    Key("engine", Kind::Table),
    Key("tracegen", Kind::Table),
    Key("workload", Kind::Table),
    Key("trace", Kind::Table),
    Key("sample", Kind::Table),
    Key("sweep", Kind::Table),
    Key("pipeline", Kind::Table),
];

/// Keys of a `[workload]` table.
pub const WORKLOAD_KEYS: &[Key] = &[
    Key("name", Kind::Str),
    Key("seed", Kind::U64),
    Key("budget", Kind::Int(1, MAX_BUDGET as u64)),
];

/// Keys of a `[trace]` table.
pub const TRACE_KEYS: &[Key] = &[Key("file", Kind::Str)];

/// The `[workload]` section: which stream feeds trace generation.
///
/// ```
/// use resim_sweep::ScenarioDoc;
///
/// let doc = ScenarioDoc::parse_str(r#"
/// [workload]
/// name = "vpr"
/// seed = 7
/// budget = 2000
/// "#).unwrap();
/// assert_eq!(doc.workload.name, "vpr");
/// assert_eq!(doc.workload.seed, 7);
/// let trace = doc.generate();
/// assert_eq!(trace.correct_path_len(), 2000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Workload name ([`WorkloadPoint::named`]): one of the five
    /// SPECINT models or `"generic"`.
    pub name: String,
    /// Stream seed.
    pub seed: u64,
    /// Correct-path instruction budget.
    pub budget: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            name: "gzip".to_string(),
            seed: 2009,
            budget: 100_000,
        }
    }
}

/// A parsed, resolved scenario file.
///
/// Sections a file omits resolve to the paper's reference settings:
/// the 4-wide Table 1 machine, its matching trace generator, and a
/// 100k-instruction gzip workload seeded 2009.
///
/// ```
/// use resim_sweep::ScenarioDoc;
///
/// let doc = ScenarioDoc::parse_str(r#"
/// [engine]
/// rb_size = 32
/// [engine.predictor]
/// kind = "perfect"
/// "#).unwrap();
/// assert_eq!(doc.engine.rb_size, 32);
/// // The generator inherits the engine's predictor so wrong-path tags
/// // stay meaningful.
/// assert_eq!(doc.tracegen.predictor, doc.engine.predictor);
/// assert!(doc.sample.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioDoc {
    /// Resolved `[engine]` configuration.
    pub engine: EngineConfig,
    /// Resolved `[tracegen]` configuration (predictor defaulted to the
    /// engine's when not given explicitly).
    pub tracegen: TraceGenConfig,
    /// Resolved `[workload]` section.
    pub workload: WorkloadSpec,
    /// Whether the document spelled out a `[workload]` section (as
    /// opposed to inheriting the defaults) — replay commands only
    /// cross-check a trace file's header against an *explicit*
    /// workload.
    pub workload_explicit: bool,
    /// The `[trace]` section's `file` key, if present: where `resim
    /// trace` writes and what `resim run` / `resim sample` replay.
    pub trace_file: Option<String>,
    /// Resolved `[sample]` plan, if the section is present.
    pub sample: Option<SamplePlan>,
    /// The document's custom `[pipeline]` description, if present —
    /// already the `engine.pipeline` (unless `[engine]` overrode it by
    /// name) and in scope for the sweep grid's `pipelines` axis.
    pub pipeline: Option<PipelineDescription>,
    /// The raw `[sweep]` table, resolved on demand by
    /// [`ScenarioDoc::sweep_scenario`].
    sweep: Option<Table>,
    /// Whether the document spelled out an `[engine]` section; only
    /// then can a sweep grid silently disagree with it.
    engine_explicit: bool,
}

impl ScenarioDoc {
    /// Parses and resolves a scenario document.
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for syntax problems, unknown sections
    /// or keys, or any section failing its `from_table` constructor.
    pub fn parse_str(input: &str) -> Result<Self, Error> {
        let doc = resim_toml::parse(input)?;
        doc.check(SECTION_KEYS)?;

        // A top-level [pipeline] defines a custom organization: it
        // becomes the engine's pipeline (unless [engine] picks another
        // by name) and is name-resolvable in the sweep grid.
        let pipeline = match doc.opt_table("pipeline")? {
            Some(t) => Some(PipelineDescription::from_table(t)?),
            None => None,
        };

        let engine_table = doc.opt_table("engine")?;
        let engine = crate::from_table::engine_from(engine_table, pipeline.as_ref())?;
        // The single inheritance rule shared with the sweep grid: the
        // generator predictor follows the engine's unless given.
        let tracegen = crate::resolve_tracegen(&engine, doc.opt_table("tracegen")?)?;

        let mut workload = WorkloadSpec::default();
        let workload_table = doc.opt_table("workload")?;
        let workload_explicit = workload_table.is_some();
        if let Some(t) = workload_table {
            t.check(WORKLOAD_KEYS)?;
            if let Some(name) = t.opt_str("name")? {
                WorkloadPoint::named(name).ok_or_else(|| {
                    Error::new(
                        t.key_line("name"),
                        format!(
                            "unknown workload {name:?} (expected {})",
                            WorkloadPoint::valid_names()
                        ),
                    )
                })?;
                workload.name = name.to_string();
            }
            workload.seed = t.opt_u64("seed")?.unwrap_or(workload.seed);
            workload.budget = t.opt_usize("budget")?.unwrap_or(workload.budget);
        }

        let trace_file = match doc.opt_table("trace")? {
            Some(t) => {
                t.check(TRACE_KEYS)?;
                t.opt_str("file")?.map(str::to_string)
            }
            None => None,
        };

        let sample = match doc.opt_table("sample")? {
            Some(t) => Some(SamplePlan::from_table(t)?),
            None => None,
        };

        // The sweep grid is resolved lazily: `resim trace|run|sample`
        // on a scenario that also carries a [sweep] section must not
        // pay (or fail) for it. Its own keys are checked here (names,
        // types and ranges), so a misspelt or removed key fails every
        // command alike.
        let sweep = doc.opt_table("sweep")?.cloned();
        if let Some(t) = &sweep {
            t.check(SWEEP_KEYS)?;
        }

        Ok(Self {
            engine,
            tracegen,
            workload,
            workload_explicit,
            trace_file,
            sample,
            pipeline,
            sweep,
            engine_explicit: engine_table.is_some(),
        })
    }

    /// Instantiates the workload stream.
    pub fn workload_stream(&self) -> impl Iterator<Item = resim_trace::TraceRecord> {
        WorkloadPoint::named(&self.workload.name)
            .expect("name validated at parse time")
            .instantiate(self.workload.seed)
    }

    /// Generates the scenario's trace in memory (workload → tagged
    /// records, per `[tracegen]`).
    pub fn generate(&self) -> Trace {
        generate_trace(self.workload_stream(), self.workload.budget, &self.tracegen)
    }

    /// Whether the document has a `[sweep]` section.
    pub fn has_sweep(&self) -> bool {
        self.sweep.is_some()
    }

    /// Resolves the `[sweep]` section into a runnable [`Scenario`].
    ///
    /// A sweep grid starts from `[sweep.grid.base]`, never from the
    /// document's `[engine]`. When the document has an `[engine]`
    /// table that simulates a different machine
    /// ([`EngineConfig::fingerprint`]), the scenario carries a
    /// [`Scenario::grid_notes`] line saying so.
    ///
    /// ```
    /// use resim_sweep::ScenarioDoc;
    ///
    /// let sweep = "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [500]\nseeds = [1]\n\
    ///              [sweep.grid]\nrb_sizes = [16]\n";
    /// let doc = ScenarioDoc::parse_str(&format!("[engine]\nrb_size = 32\n{sweep}")).unwrap();
    /// assert!(doc.sweep_scenario().unwrap().grid_notes()[0].contains("[sweep.grid.base]"));
    /// let doc = ScenarioDoc::parse_str(&format!("[engine]\nrb_size = 16\n{sweep}")).unwrap();
    /// assert!(doc.sweep_scenario().unwrap().grid_notes().is_empty());
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error`] when the section is missing, or whatever
    /// [`Scenario::from_table`] rejects.
    pub fn sweep_scenario(&self) -> Result<Scenario, Error> {
        let t = self
            .sweep
            .as_ref()
            .ok_or_else(|| Error::new(0, "this command needs a [sweep] section"))?;
        let scenario = Scenario::from_table(t, self.pipeline.as_ref())?;
        let Some(grid) = t.opt_table("grid")?.filter(|_| self.engine_explicit) else {
            return Ok(scenario);
        };
        let base = crate::from_table::engine_from(grid.opt_table("base")?, self.pipeline.as_ref())?;
        if base.fingerprint() == self.engine.fingerprint() {
            return Ok(scenario);
        }
        Ok(scenario.with_grid_notes([
            "[engine] differs from the sweep grid's base; grid cells use \
             [sweep.grid.base] (default paper-4wide), not [engine]"
                .to_string(),
        ]))
    }

    /// Resolves the whole document into the one executable shape: the
    /// `[sweep]` grid when present, otherwise a single-cell grid of the
    /// document's engine, workload, budget and seed — sampled under the
    /// `[sample]` plan when one is given, full-detail otherwise.
    ///
    /// This is what makes single runs, sampled runs and sweeps one case
    /// for the runner and the result cache: every submission is a
    /// [`Scenario`], every unit of work is a [`Cell`](crate::Cell).
    ///
    /// ```
    /// use resim_sweep::ScenarioDoc;
    ///
    /// let single = ScenarioDoc::parse_str("[workload]\nbudget = 500").unwrap();
    /// assert_eq!(single.to_scenario().unwrap().len(), 1);
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error`] when a `[sweep]` section fails to resolve, or the
    /// single-cell grid fails validation (e.g. a degenerate `[sample]`
    /// plan).
    pub fn to_scenario(&self) -> Result<Scenario, Error> {
        if self.has_sweep() {
            return self.sweep_scenario();
        }
        let s = Scenario::new()
            .config("single", self.engine.clone(), self.tracegen)
            .workload(
                WorkloadPoint::named(&self.workload.name).expect("name validated at parse time"),
            )
            .budgets([self.workload.budget])
            .seeds([self.workload.seed])
            .modes(self.sample.map(CellMode::Sampled));
        s.validate()
            .map_err(|e| Error::new(0, format!("invalid scenario: {e}")))?;
        Ok(s)
    }

    /// The content-addressed identity of the whole document: FNV-1a
    /// ([`Fnv64`]) over the cell count and the
    /// [`Scenario::cell_fingerprint`] of every cell of
    /// [`ScenarioDoc::to_scenario`], in dispatch order.
    ///
    /// Platform-stable, and deliberately *content*-addressed: two
    /// documents that simulate the same machines on the same inputs
    /// share a fingerprint even when their config display names or
    /// `[trace]` file paths differ. This is the cache key of
    /// `resim-serve`'s result cache — the golden test over
    /// `tests/corpus/` pins these values because an accidental change
    /// silently invalidates every deployed cache.
    ///
    /// ```
    /// use resim_sweep::ScenarioDoc;
    ///
    /// let a = ScenarioDoc::parse_str("[workload]\nseed = 1").unwrap();
    /// let b = ScenarioDoc::parse_str("[workload]\nseed = 2").unwrap();
    /// assert_ne!(a.fingerprint().unwrap(), b.fingerprint().unwrap());
    /// ```
    ///
    /// # Errors
    ///
    /// Whatever [`ScenarioDoc::to_scenario`] rejects.
    pub fn fingerprint(&self) -> Result<u64, Error> {
        let scenario = self.to_scenario()?;
        let mut h = Fnv64::new();
        let cells = scenario.cells();
        h.write_u64(cells.len() as u64);
        for cell in &cells {
            h.write_u64(scenario.cell_fingerprint(cell));
        }
        Ok(h.finish())
    }

    /// The `[sweep]` table's `threads` key (0 = all cores) — the
    /// default `resim sweep --threads` value.
    ///
    /// # Errors
    ///
    /// [`Error`] if the key is present but not a non-negative integer.
    pub fn sweep_threads(&self) -> Result<usize, Error> {
        match &self.sweep {
            Some(t) => Ok(t.opt_usize("threads")?.unwrap_or(0)),
            None => Ok(0),
        }
    }

    /// The `[sweep]` table's `trace_files` key: containers to preload
    /// into the sweep's trace cache.
    ///
    /// # Errors
    ///
    /// [`Error`] if the key is present but not an array of strings.
    pub fn sweep_trace_files(&self) -> Result<Vec<String>, Error> {
        match &self.sweep {
            Some(t) => Ok(t
                .opt_str_array("trace_files")?
                .unwrap_or_default()
                .into_iter()
                .map(|s| s.value)
                .collect()),
            None => Ok(Vec::new()),
        }
    }

    /// The effective trace-file path: `override_path` (a `--trace` /
    /// `--out` flag), else the `[trace]` section's `file` key.
    pub fn trace_path<'a>(&'a self, override_path: Option<&'a str>) -> Option<&'a str> {
        override_path.or(self.trace_file.as_deref())
    }
}

impl Default for ScenarioDoc {
    /// The empty document: every section at its reference default.
    fn default() -> Self {
        Self::parse_str("").expect("empty scenario resolves")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_document_resolves_to_paper_defaults() {
        let doc = ScenarioDoc::parse_str("").unwrap();
        assert_eq!(doc.engine, EngineConfig::paper_4wide());
        assert_eq!(doc.tracegen, TraceGenConfig::paper());
        assert_eq!(doc.workload, WorkloadSpec::default());
        assert!(doc.trace_file.is_none());
        assert!(doc.sample.is_none());
        assert!(!doc.has_sweep());
    }

    #[test]
    fn unknown_sections_and_keys_are_rejected() {
        assert!(ScenarioDoc::parse_str("[motor]\nx = 1")
            .unwrap_err()
            .to_string()
            .contains("motor"));
        let err = ScenarioDoc::parse_str("[workload]\nname = \"gzip\"\nseeds = 3").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(ScenarioDoc::parse_str("[workload]\nname = \"mcf\"")
            .unwrap_err()
            .to_string()
            .contains("mcf"));
        assert!(ScenarioDoc::parse_str("[workload]\nbudget = 0").is_err());
    }

    #[test]
    fn trace_and_sample_sections() {
        let doc = ScenarioDoc::parse_str(
            "[trace]\nfile = \"gzip.trace\"\n[sample]\ninterval = 100\ndetailed = 50",
        )
        .unwrap();
        assert_eq!(doc.trace_file.as_deref(), Some("gzip.trace"));
        assert_eq!(doc.trace_path(None), Some("gzip.trace"));
        assert_eq!(doc.trace_path(Some("o.trace")), Some("o.trace"));
        assert_eq!(doc.sample.unwrap(), SamplePlan::systematic(100, 50, 1));
    }

    #[test]
    fn sweep_section_resolves_lazily() {
        let doc = ScenarioDoc::parse_str(
            "[sweep]\nthreads = 3\ntrace_files = [\"a.trace\"]\nworkloads = [\"gzip\"]\n\
             budgets = [100]\nseeds = [1]\n[[sweep.config]]\nname = \"base\"",
        )
        .unwrap();
        assert!(doc.has_sweep());
        assert_eq!(doc.sweep_threads().unwrap(), 3);
        assert_eq!(doc.sweep_trace_files().unwrap(), vec!["a.trace"]);
        assert_eq!(doc.sweep_scenario().unwrap().len(), 1);
        // A broken sweep section surfaces at resolution, not parse.
        let doc = ScenarioDoc::parse_str("[sweep]\nworkloads = [\"gzip\"]").unwrap();
        assert!(doc.sweep_scenario().is_err());
        // No sweep at all is its own message.
        let doc = ScenarioDoc::parse_str("").unwrap();
        assert!(doc
            .sweep_scenario()
            .unwrap_err()
            .to_string()
            .contains("[sweep]"));
    }

    #[test]
    fn pipeline_section_becomes_the_engine_pipeline() {
        let doc = ScenarioDoc::parse_str(
            r#"
[pipeline]
name = "compact"
pipelined = true
[[pipeline.stage]]
name = "fetch"
slots = "2*i"
[[pipeline.stage]]
name = "commit"
slots = "2*i+1"
"#,
        )
        .unwrap();
        let p = doc.pipeline.as_ref().expect("custom pipeline parsed");
        assert_eq!(p.name(), "compact");
        assert_eq!(doc.engine.pipeline, *p);
        // And the sweep grid can reference it by name.
        let doc = ScenarioDoc::parse_str(
            r#"
[pipeline]
name = "compact"
pipelined = true
[[pipeline.stage]]
name = "fetch"
slots = "2*i"
[[pipeline.stage]]
name = "commit"
slots = "2*i+1"
[sweep]
workloads = ["gzip"]
budgets = [100]
seeds = [1]
[sweep.grid]
pipelines = ["improved", "compact"]
"#,
        )
        .unwrap();
        let s = doc.sweep_scenario().unwrap();
        assert_eq!(s.configs().len(), 2);
        assert_eq!(s.configs()[1].name, "compact");
        assert_eq!(s.configs()[1].engine.pipeline.name(), "compact");
    }

    #[test]
    fn engine_can_override_the_custom_pipeline_by_name() {
        let doc = ScenarioDoc::parse_str(
            r#"
[pipeline]
name = "compact"
pipelined = true
[[pipeline.stage]]
name = "fetch"
slots = "2*i"
[[pipeline.stage]]
name = "commit"
slots = "2*i+1"
[engine]
pipeline = "improved"
"#,
        )
        .unwrap();
        assert_eq!(doc.engine.pipeline.name(), "improved");
        assert_eq!(doc.pipeline.unwrap().name(), "compact");
    }

    #[test]
    fn broken_pipeline_section_is_a_line_diagnostic() {
        let err =
            ScenarioDoc::parse_str("[pipeline]\nname = \"bad\"\npipelined = true\n").unwrap_err();
        assert!(err.to_string().contains("stage"), "{err}");
    }

    #[test]
    fn workload_budget_is_bounded() {
        let at = format!("[workload]\nname = \"gzip\"\nbudget = {MAX_BUDGET}");
        assert_eq!(
            ScenarioDoc::parse_str(&at).unwrap().workload.budget,
            MAX_BUDGET
        );
        let over = format!("[workload]\nname = \"gzip\"\nbudget = {}", MAX_BUDGET + 1);
        let err = ScenarioDoc::parse_str(&over).unwrap_err();
        assert_eq!(err.line(), 3, "{err}");
        assert!(err.to_string().contains("exceeds the maximum"), "{err}");
    }

    #[test]
    fn generated_trace_respects_budget_and_seeding() {
        let doc = ScenarioDoc::parse_str("[workload]\nname = \"gzip\"\nbudget = 500").unwrap();
        let a = doc.generate();
        let b = doc.generate();
        assert_eq!(a, b, "generation is deterministic");
        assert_eq!(a.correct_path_len(), 500);
    }

    #[test]
    fn single_run_documents_resolve_to_one_cell() {
        let doc = ScenarioDoc::parse_str("[workload]\nname = \"vpr\"\nbudget = 700").unwrap();
        let s = doc.to_scenario().unwrap();
        assert_eq!(s.len(), 1);
        let cell = s.cells()[0];
        assert_eq!(cell.budget, 700);
        assert_eq!(s.workloads()[0].name, "vpr");
        assert_eq!(s.cell_mode(&cell), CellMode::Full);
        // A [sample] section makes the single cell sampled.
        let doc = ScenarioDoc::parse_str(
            "[workload]\nbudget = 10000\n[sample]\ninterval = 1000\ndetailed = 200",
        )
        .unwrap();
        let s = doc.to_scenario().unwrap();
        assert_eq!(s.len(), 1);
        assert!(matches!(s.cell_mode(&s.cells()[0]), CellMode::Sampled(_)));
        // And a sweep document resolves to its grid.
        let doc = ScenarioDoc::parse_str(
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [100, 200]\nseeds = [1]\n\
             [[sweep.config]]\nname = \"a\"",
        )
        .unwrap();
        assert_eq!(doc.to_scenario().unwrap().len(), 2);
    }

    #[test]
    fn fingerprints_are_content_addressed() {
        let base = ScenarioDoc::parse_str("").unwrap().fingerprint().unwrap();
        // Stable across parses.
        assert_eq!(
            ScenarioDoc::parse_str("").unwrap().fingerprint().unwrap(),
            base
        );
        // Every identity input moves the fingerprint…
        for (label, text) in [
            ("engine", "[engine]\nrb_size = 32"),
            ("tracegen", "[tracegen]\nwrong_path_len = 9"),
            ("workload", "[workload]\nname = \"vpr\""),
            ("seed", "[workload]\nseed = 1"),
            ("budget", "[workload]\nbudget = 1"),
            ("sample", "[sample]\ninterval = 10000\ndetailed = 2000"),
        ] {
            let fp = ScenarioDoc::parse_str(text).unwrap().fingerprint().unwrap();
            assert_ne!(fp, base, "{label} must be part of the identity");
        }
        // …but presentation does not: a [trace] file path is a
        // transport detail, not content.
        let with_path = ScenarioDoc::parse_str("[trace]\nfile = \"x.trace\"").unwrap();
        assert_eq!(with_path.fingerprint().unwrap(), base);
    }

    #[test]
    fn sweep_fingerprint_ignores_display_names() {
        let a = ScenarioDoc::parse_str(
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [100]\nseeds = [1]\n\
             [[sweep.config]]\nname = \"alpha\"",
        )
        .unwrap();
        let b = ScenarioDoc::parse_str(
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [100]\nseeds = [1]\n\
             [[sweep.config]]\nname = \"beta\"",
        )
        .unwrap();
        assert_eq!(
            a.fingerprint().unwrap(),
            b.fingerprint().unwrap(),
            "config display names are presentation, not content"
        );
        let c = ScenarioDoc::parse_str(
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [100]\nseeds = [1]\n\
             [[sweep.config]]\nname = \"beta\"\n[sweep.config.engine]\nrb_size = 32",
        )
        .unwrap();
        assert_ne!(a.fingerprint().unwrap(), c.fingerprint().unwrap());
    }
}
