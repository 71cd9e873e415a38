//! TOML scenario-file construction of engine configurations and grids.
//!
//! Maps the `[engine]` table of a `resim` scenario file onto
//! [`EngineConfig`] (with `[engine.fu]`, `[engine.predictor]` and
//! `[engine.memory]` sub-tables handled by the respective crates), and a
//! `[sweep.grid]` table onto a [`ConfigGrid`]. Every schema or
//! structural problem is a line-numbered [`resim_toml::Error`] instead
//! of a panic or a compile error — the point of driving the simulator
//! from declarative files. See `docs/guide.md` for the key reference.

use crate::config::{EngineConfig, FuConfig};
use crate::description::{PipelineDescription, SlotExpr, SlotSpec, StageRow};
use crate::grid::ConfigGrid;
use resim_bpred::PredictorConfig;
use resim_mem::MemorySystemConfig;
use resim_toml::{Error, Key, Kind, Table, Value};

/// Keys of an `[engine]` table (and of `[sweep.config.engine]` and
/// `[sweep.grid.base]`). The sizes, penalties and unit counts are
/// bounded by [`EngineConfig::validate`], not here.
pub const ENGINE_KEYS: &[Key] = &[
    Key("preset", Kind::Str),
    Key("width", Kind::U64),
    Key("ifq_size", Kind::U64),
    Key("rb_size", Kind::U64),
    Key("lsq_size", Kind::U64),
    Key("mem_read_ports", Kind::U64),
    Key("mem_write_ports", Kind::U64),
    Key("misfetch_penalty", Kind::U64),
    Key("mispredict_penalty", Kind::U64),
    Key("pipeline", Kind::Str),
    Key("fu", Kind::Table),
    Key("predictor", Kind::Table),
    Key("memory", Kind::Table),
];

/// Keys of an `[engine.fu]` table, bounded by [`EngineConfig::validate`].
pub const FU_KEYS: &[Key] = &[
    Key("alus", Kind::U64),
    Key("mults", Kind::U64),
    Key("divs", Kind::U64),
    Key("alu_latency", Kind::U64),
    Key("mult_latency", Kind::U64),
    Key("div_latency", Kind::U64),
    Key("div_pipelined", Kind::Bool),
];

/// Keys of a `[sweep.grid]` table. `base` and `tracegen` belong to the
/// caller (`Scenario::from_table` reads them from the same table).
pub const GRID_KEYS: &[Key] = &[
    Key("widths", Kind::Ints(u64::MAX)),
    Key("rb_sizes", Kind::Ints(u64::MAX)),
    Key("lsq_sizes", Kind::Ints(u64::MAX)),
    Key("pipelines", Kind::Strs),
    Key("base", Kind::Table),
    Key("tracegen", Kind::Table),
];

/// Keys of a `[pipeline]` table.
pub const PIPELINE_KEYS: &[Key] = &[
    Key("name", Kind::Str),
    Key("pipelined", Kind::Bool),
    Key("restrict_first_slot_loads", Kind::Bool),
    Key("stage", Kind::Tables),
];

/// Keys of a `[[pipeline.stage]]` entry; `slots` and `ways` take a
/// formula string or an integer (array) and are checked by their parser.
pub const STAGE_KEYS: &[Key] = &[
    Key("name", Kind::Str),
    Key("label", Kind::Str),
    Key("slots", Kind::Any),
    Key("ways", Kind::Any),
    Key("first_way", Kind::U64),
    Key("area", Kind::Str),
];

/// Resolves a pipeline name as used in scenario files: the scenario's
/// own `[pipeline]` description (when its name matches), or one of
/// [`PipelineDescription::builtins`].
fn pipeline_by_name(
    name: &str,
    line: u32,
    custom: Option<&PipelineDescription>,
) -> Result<PipelineDescription, Error> {
    if let Some(c) = custom {
        if c.name() == name {
            return Ok(c.clone());
        }
    }
    PipelineDescription::builtin(name).ok_or_else(|| {
        let mut names: Vec<String> = PipelineDescription::builtins()
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        if let Some(c) = custom {
            names.push(format!("the scenario's {:?}", c.name()));
        }
        let last = names.pop().expect("there are built-ins");
        Error::new(
            line,
            format!(
                "unknown pipeline {name:?} (expected {} or {last})",
                names.join(", ")
            ),
        )
    })
}

impl PipelineDescription {
    /// Builds a pipeline description from a `[pipeline]` table — the
    /// declarative form of the paper's Figures 2–4, open to new
    /// organizations.
    ///
    /// Keys: [`PIPELINE_KEYS`], and [`STAGE_KEYS`] for each
    /// `[[pipeline.stage]]` entry; `docs/guide.md` documents each key.
    ///
    /// The description's *shape* is validated here (non-empty roster,
    /// unique stages, known area keys) with line-numbered diagnostics;
    /// width-dependent checks (slot collisions, ordering, the §IV.B
    /// port rule) run in [`EngineConfig::validate`] once the width is
    /// known.
    ///
    /// ```
    /// use resim_core::PipelineDescription;
    ///
    /// let t = resim_toml::parse(r#"
    /// name = "tiny"
    /// [[stage]]
    /// name = "Fetch"
    /// slots = "i"
    /// [[stage]]
    /// name = "Commit"
    /// slots = "i+1"
    /// "#).unwrap();
    /// let d = PipelineDescription::from_table(&t).unwrap();
    /// assert_eq!(d.name(), "tiny");
    /// assert_eq!(d.minor_cycles_per_major(4).unwrap(), 5);
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for unknown keys, missing names, bad
    /// formulas or an invalid shape.
    pub fn from_table(t: &Table) -> Result<Self, Error> {
        t.check(PIPELINE_KEYS)?;
        let name = t.req_str("name")?;
        if PipelineDescription::builtin(name).is_some() {
            return Err(Error::new(
                t.key_line("name"),
                format!("pipeline name {name:?} is reserved for a built-in organization"),
            ));
        }
        let pipelined = t.opt_bool("pipelined")?.unwrap_or(true);
        let restrict = t.opt_bool("restrict_first_slot_loads")?.unwrap_or(false);
        let mut rows = Vec::new();
        for stage in t.table_array("stage")? {
            rows.push(stage_row_from_table(stage)?);
        }
        let d = PipelineDescription::new(name, pipelined, restrict, rows);
        d.validate_shape()
            .map_err(|e| Error::new(t.line(), format!("invalid pipeline description: {e}")))?;
        Ok(d)
    }
}

/// Parses one `[[pipeline.stage]]` entry.
fn stage_row_from_table(t: &Table) -> Result<StageRow, Error> {
    t.check(STAGE_KEYS)?;
    let name = t.req_str("name")?;
    let label = match t.opt_str("label")? {
        Some(l) => l.to_string(),
        None => name
            .chars()
            .take(1)
            .collect::<String>()
            .to_ascii_uppercase(),
    };
    let slots_value = t
        .get("slots")
        .ok_or_else(|| t.error(format!("stage {name:?} needs a `slots` formula or array")))?;
    let spec = match &slots_value.value {
        Value::Str(formula) => {
            let expr: SlotExpr = formula
                .parse()
                .map_err(|e| slots_value.error(format!("{e}")))?;
            let count = match t.get("ways") {
                None => SlotExpr::new(0, 1, 0),
                Some(v) => match &v.value {
                    Value::Str(f) => f.parse().map_err(|e| v.error(format!("{e}")))?,
                    Value::Int(k) if *k >= 0 => SlotExpr::constant(*k),
                    other => {
                        return Err(v.error(format!(
                            "expected a ways formula string or a non-negative integer, \
                             got {}",
                            other.type_name()
                        )))
                    }
                },
            };
            let first_way = t.opt_usize("first_way")?.unwrap_or(0);
            SlotSpec::PerWay {
                expr,
                count,
                first_way,
            }
        }
        Value::Array(items) => {
            for key in ["ways", "first_way"] {
                if t.get(key).is_some() {
                    return Err(Error::new(
                        t.key_line(key),
                        format!("`{key}` does not apply to an explicit slot list"),
                    ));
                }
            }
            let mut slots = Vec::with_capacity(items.len());
            for item in items {
                match item.value {
                    Value::Int(v) if v >= 0 => slots.push(v as usize),
                    _ => return Err(item.error("explicit slots must be non-negative integers")),
                }
            }
            SlotSpec::Explicit(slots)
        }
        other => {
            return Err(slots_value.error(format!(
                "expected a slot formula string (e.g. \"2*i+1\") or an explicit slot \
                 array, got {}",
                other.type_name()
            )))
        }
    };
    let area = match t.opt_str("area")? {
        Some("none") => None,
        Some(key) => {
            if !crate::description::STAGE_AREA_KEYS.contains(&key) {
                return Err(Error::new(
                    t.key_line("area"),
                    format!(
                        "unknown area key {key:?} (expected one of {}, or \"none\")",
                        crate::description::STAGE_AREA_KEYS.join(", ")
                    ),
                ));
            }
            Some(key)
        }
        None => crate::description::infer_area_key(name),
    };
    Ok(StageRow {
        stage: name.to_string(),
        label,
        slots: spec,
        area: area.map(str::to_string),
    })
}

impl FuConfig {
    /// Builds a functional-unit pool from an `[engine.fu]` table.
    ///
    /// Keys: [`FU_KEYS`]; omitted keys keep the paper's reference mix
    /// ([`FuConfig::paper`]).
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for unknown keys or non-integer values.
    pub fn from_table(t: &Table) -> Result<Self, Error> {
        t.check(FU_KEYS)?;
        let base = FuConfig::paper();
        Ok(FuConfig {
            alus: t.opt_usize("alus")?.unwrap_or(base.alus),
            mults: t.opt_usize("mults")?.unwrap_or(base.mults),
            divs: t.opt_usize("divs")?.unwrap_or(base.divs),
            alu_latency: t.opt_u32("alu_latency")?.unwrap_or(base.alu_latency),
            mult_latency: t.opt_u32("mult_latency")?.unwrap_or(base.mult_latency),
            div_latency: t.opt_u32("div_latency")?.unwrap_or(base.div_latency),
            div_pipelined: t.opt_bool("div_pipelined")?.unwrap_or(base.div_pipelined),
        })
    }
}

impl EngineConfig {
    /// Builds an engine configuration from an `[engine]` table, with the
    /// scenario's `[pipeline]` description as `custom` when it declares
    /// one.
    ///
    /// Keys: [`ENGINE_KEYS`]. `preset` picks the starting point —
    /// `"paper-4wide"` (default) or `"paper-2wide-cached"`, the paper's
    /// two Table 1 machines — and every other key overrides one field;
    /// the sub-tables are [`FuConfig::from_table`],
    /// [`PredictorConfig::from_table`] and
    /// [`MemorySystemConfig::from_table`].
    ///
    /// A `custom` description becomes the configuration's pipeline
    /// (that is what declaring a `[pipeline]` section *means*), unless
    /// a `pipeline = "..."` key explicitly picks a built-in; the key
    /// also resolves the custom description by its own name.
    ///
    /// The result is structurally validated ([`EngineConfig::validate`]),
    /// so a table that parses is a configuration the engine accepts.
    ///
    /// ```
    /// use resim_core::EngineConfig;
    ///
    /// let t = resim_toml::parse(r#"
    /// preset = "paper-4wide"
    /// rb_size = 32
    /// [predictor]
    /// kind = "perfect"
    /// "#).unwrap();
    /// let config = EngineConfig::from_table(&t, None).unwrap();
    /// assert_eq!(config.rb_size, 32);
    /// assert_eq!(config.width, 4);
    ///
    /// // Structural problems are line-numbered diagnostics.
    /// let t = resim_toml::parse("width = 0").unwrap();
    /// let err = EngineConfig::from_table(&t, None).unwrap_err();
    /// assert!(err.to_string().contains("width"));
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for unknown keys, an unknown preset or
    /// pipeline name, sub-table problems, or a configuration that fails
    /// structural validation.
    pub fn from_table(t: &Table, custom: Option<&PipelineDescription>) -> Result<Self, Error> {
        t.check(ENGINE_KEYS)?;
        let mut config = match t.opt_str("preset")? {
            None | Some("paper-4wide") => EngineConfig::paper_4wide(),
            Some("paper-2wide-cached") => EngineConfig::paper_2wide_cached(),
            Some(other) => {
                return Err(Error::new(
                    t.key_line("preset"),
                    format!(
                        "unknown preset {other:?} (expected paper-4wide or paper-2wide-cached)"
                    ),
                ))
            }
        };
        config.width = t.opt_usize("width")?.unwrap_or(config.width);
        config.ifq_size = t.opt_usize("ifq_size")?.unwrap_or(config.ifq_size);
        config.rb_size = t.opt_usize("rb_size")?.unwrap_or(config.rb_size);
        config.lsq_size = t.opt_usize("lsq_size")?.unwrap_or(config.lsq_size);
        config.mem_read_ports = t
            .opt_usize("mem_read_ports")?
            .unwrap_or(config.mem_read_ports);
        config.mem_write_ports = t
            .opt_usize("mem_write_ports")?
            .unwrap_or(config.mem_write_ports);
        config.misfetch_penalty = t
            .opt_u32("misfetch_penalty")?
            .unwrap_or(config.misfetch_penalty);
        config.mispredict_penalty = t
            .opt_u32("mispredict_penalty")?
            .unwrap_or(config.mispredict_penalty);
        match t.opt_str("pipeline")? {
            Some(name) => {
                config.pipeline = pipeline_by_name(name, t.key_line("pipeline"), custom)?;
            }
            None => {
                if let Some(c) = custom {
                    config.pipeline = c.clone();
                }
            }
        }
        if let Some(sub) = t.opt_table("fu")? {
            config.fus = FuConfig::from_table(sub)?;
        }
        if let Some(sub) = t.opt_table("predictor")? {
            config.predictor = PredictorConfig::from_table(sub)?;
        }
        if let Some(sub) = t.opt_table("memory")? {
            config.memory = MemorySystemConfig::from_table(sub)?;
        }
        config
            .validate()
            .map_err(|e| Error::new(t.line(), format!("invalid engine configuration: {e}")))?;
        Ok(config)
    }
}

impl ConfigGrid {
    /// Builds a configuration grid from a `[sweep.grid]` table over
    /// `base` (itself usually an [`EngineConfig::from_table`] result).
    ///
    /// Keys: [`GRID_KEYS`]; each axis is optional, and `pipelines` names
    /// organizations (the built-ins, and the scenario's `[pipeline]`
    /// when it is given as `custom`). The
    /// predictor and memory axes of the builder API stay library-only;
    /// vary those via explicit `[[sweep.config]]` entries.
    ///
    /// Axis *values* are validated here (unknown keys, unknown
    /// pipeline names); whether the *combinations* produce valid
    /// machines is the job of [`ConfigGrid::try_build`], which callers
    /// run exactly once — `Scenario::from_table` maps its error back
    /// to the grid table's line, so an impossible combination (say an
    /// RB axis below a width axis value) is still a line-numbered
    /// diagnostic, never a panic.
    ///
    /// ```
    /// use resim_core::{ConfigGrid, EngineConfig};
    ///
    /// let t = resim_toml::parse("widths = [2, 4]\nrb_sizes = [16, 32]").unwrap();
    /// let grid = ConfigGrid::from_table(EngineConfig::paper_4wide(), &t, None).unwrap();
    /// let points = grid.try_build().unwrap();
    /// assert_eq!(points.len(), 4);
    /// assert_eq!(points[0].0, "w2-rb16");
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for unknown keys or unknown pipeline
    /// names.
    pub fn from_table(
        base: EngineConfig,
        t: &Table,
        custom: Option<&PipelineDescription>,
    ) -> Result<Self, Error> {
        t.check(GRID_KEYS)?;
        let mut grid = base.grid();
        if let Some(widths) = t.opt_usize_array("widths")? {
            grid = grid.widths(widths);
        }
        if let Some(sizes) = t.opt_usize_array("rb_sizes")? {
            grid = grid.rb_sizes(sizes);
        }
        if let Some(sizes) = t.opt_usize_array("lsq_sizes")? {
            grid = grid.lsq_sizes(sizes);
        }
        if let Some(names) = t.opt_str_array("pipelines")? {
            let orgs = names
                .iter()
                .map(|n| pipeline_by_name(&n.value, n.line, custom))
                .collect::<Result<Vec<_>, _>>()?;
            grid = grid.pipelines(orgs);
        }
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_bpred::DirectionConfig;

    fn parse(s: &str) -> Result<EngineConfig, Error> {
        EngineConfig::from_table(&resim_toml::parse(s).unwrap(), None)
    }

    #[test]
    fn empty_table_is_the_paper_machine() {
        assert_eq!(parse("").unwrap(), EngineConfig::paper_4wide());
    }

    #[test]
    fn presets_and_overrides() {
        let c = parse("preset = \"paper-2wide-cached\"\nrb_size = 24").unwrap();
        assert_eq!(c.width, 2);
        assert_eq!(c.rb_size, 24);
        assert_eq!(
            c.pipeline,
            PipelineDescription::improved(),
            "preset fields survive unrelated overrides"
        );
        assert!(parse("preset = \"paper-8wide\"")
            .unwrap_err()
            .to_string()
            .contains("preset"));
    }

    #[test]
    fn scalar_overrides_apply() {
        let c = parse(
            "width = 2\nifq_size = 8\nlsq_size = 4\nmem_read_ports = 1\nmem_write_ports = 1\n\
             misfetch_penalty = 2\nmispredict_penalty = 5\npipeline = \"simple\"",
        )
        .unwrap();
        assert_eq!(c.width, 2);
        assert_eq!(c.ifq_size, 8);
        assert_eq!(c.lsq_size, 4);
        assert_eq!(c.misfetch_penalty, 2);
        assert_eq!(c.mispredict_penalty, 5);
        assert_eq!(c.pipeline, PipelineDescription::simple());
    }

    #[test]
    fn pipeline_table_parses_and_overrides_the_default() {
        let pipe = resim_toml::parse(
            "name = \"dual\"\n\
             [[stage]]\nname = \"Fetch\"\nslots = \"i\"\n\
             [[stage]]\nname = \"Issue\"\nslots = \"i+1\"\n\
             [[stage]]\nname = \"Writeback\"\nslots = \"i+2\"\n\
             [[stage]]\nname = \"Commit\"\nslots = \"i+3\"\n",
        )
        .unwrap();
        let d = PipelineDescription::from_table(&pipe).unwrap();
        assert_eq!(d.name(), "dual");
        assert!(d.pipelined());
        assert!(!d.restricts_first_slot_loads());
        assert_eq!(d.rows()[0].label, "F", "label defaults to the first letter");
        assert_eq!(d.area_keys(), vec!["fetch", "issue", "wb", "cmt"]);

        // With a [pipeline] in scope, it becomes the engine default...
        let engine = resim_toml::parse("width = 2\nmem_read_ports = 1").unwrap();
        let c = EngineConfig::from_table(&engine, Some(&d)).unwrap();
        assert_eq!(c.pipeline, d);
        // ...resolvable by name, and built-ins stay nameable.
        let engine = resim_toml::parse("pipeline = \"dual\"").unwrap();
        assert_eq!(
            EngineConfig::from_table(&engine, Some(&d))
                .unwrap()
                .pipeline,
            d
        );
        let engine = resim_toml::parse("pipeline = \"improved\"").unwrap();
        assert_eq!(
            EngineConfig::from_table(&engine, Some(&d))
                .unwrap()
                .pipeline,
            PipelineDescription::improved()
        );
    }

    #[test]
    fn pipeline_table_diagnostics_are_line_numbered() {
        // Reserved built-in name.
        let t =
            resim_toml::parse("name = \"optimized\"\n[[stage]]\nname = \"Fetch\"\nslots = \"i\"")
                .unwrap();
        let err = PipelineDescription::from_table(&t).unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("reserved"));
        // Bad slot formula, reported at the offending line.
        let t = resim_toml::parse("name = \"x\"\n[[stage]]\nname = \"Fetch\"\nslots = \"i*i\"")
            .unwrap();
        let err = PipelineDescription::from_table(&t).unwrap_err();
        assert_eq!(err.line(), 4);
        assert!(err.to_string().contains("linear"));
        // Unknown area key.
        let t = resim_toml::parse(
            "name = \"x\"\n[[stage]]\nname = \"Fetch\"\nslots = \"i\"\narea = \"alu\"",
        )
        .unwrap();
        let err = PipelineDescription::from_table(&t).unwrap_err();
        assert_eq!(err.line(), 5);
        assert!(err.to_string().contains("alu"));
        // ways/first_way clash with explicit slot lists.
        let t = resim_toml::parse(
            "name = \"x\"\n[[stage]]\nname = \"Fetch\"\nslots = [0, 2]\nways = 2",
        )
        .unwrap();
        let err = PipelineDescription::from_table(&t).unwrap_err();
        assert!(err.to_string().contains("explicit slot list"));
        // Empty roster is caught at parse time.
        let t = resim_toml::parse("name = \"x\"").unwrap();
        assert!(PipelineDescription::from_table(&t)
            .unwrap_err()
            .to_string()
            .contains("no stage rows"));
    }

    #[test]
    fn explicit_slot_lists_and_ways_counts_parse() {
        let t = resim_toml::parse(
            "name = \"odd\"\n\
             [[stage]]\nname = \"Fetch\"\nslots = [0, 2, 5]\n\
             [[stage]]\nname = \"Exec\"\nlabel = \"X\"\nslots = \"i+1\"\nways = \"n-1\"\nfirst_way = 1\n\
             [[stage]]\nname = \"Retire\"\nslots = \"6\"\nways = 1\narea = \"cmt\"\n",
        )
        .unwrap();
        let d = PipelineDescription::from_table(&t).unwrap();
        let s = d.schedule(3).unwrap();
        assert_eq!(s.minor_cycles(), 7);
        assert_eq!(s.slot_of("Fetch", "F2"), Some(5));
        assert_eq!(s.slot_of("Exec", "X1"), Some(2), "first_way starts at 1");
        assert_eq!(s.slot_of("Exec", "X0"), None);
        assert_eq!(
            s.slot_of("Retire", "R"),
            Some(6),
            "ways = 1 keeps the bare label"
        );
        assert_eq!(d.area_keys(), vec!["fetch", "cmt"]);
    }

    #[test]
    fn sub_tables_apply() {
        let c = parse(
            "[fu]\nalus = 2\ndiv_latency = 20\n[predictor]\nkind = \"perfect\"\n[memory]\nkind = \"split\"",
        )
        .unwrap();
        assert_eq!(c.fus.alus, 2);
        assert_eq!(c.fus.div_latency, 20);
        assert_eq!(c.predictor.direction, DirectionConfig::Perfect);
        assert!(!c.memory.is_perfect());
    }

    #[test]
    fn structural_validation_runs() {
        assert!(parse("width = 0").is_err());
        assert!(parse("rb_size = 2").unwrap_err().to_string().contains("RB"));
        // Optimized pipeline port precondition (§IV.B).
        assert!(parse("mem_read_ports = 4")
            .unwrap_err()
            .to_string()
            .contains("memory ports"));
    }

    #[test]
    fn unknown_keys_are_line_numbered() {
        let err = parse("width = 4\nwidht = 2").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("widht"));
        assert!(parse("pipeline = \"turbo\"")
            .unwrap_err()
            .to_string()
            .contains("turbo"));
    }

    #[test]
    fn grid_axes_parse_and_build() {
        let t = resim_toml::parse("widths = [1, 2, 4]\npipelines = [\"improved\", \"optimized\"]")
            .unwrap();
        let grid = ConfigGrid::from_table(EngineConfig::paper_4wide(), &t, None).unwrap();
        let points = grid.try_build().unwrap();
        assert_eq!(points.len(), 6);
        for (name, c) in &points {
            c.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn impossible_grid_axes_error_at_try_build_instead_of_panicking() {
        let t = resim_toml::parse("rb_sizes = [2]").unwrap();
        let grid = ConfigGrid::from_table(EngineConfig::paper_4wide(), &t, None).unwrap();
        let (name, e) = grid.try_build().unwrap_err();
        assert_eq!(name, "rb2");
        assert!(e.to_string().contains("RB"), "{e}");
        let t = resim_toml::parse("lanes = [2]").unwrap();
        assert!(
            ConfigGrid::from_table(EngineConfig::paper_4wide(), &t, None)
                .unwrap_err()
                .to_string()
                .contains("unknown key")
        );
    }
}
