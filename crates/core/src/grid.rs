//! Cheap construction of engine-configuration grids.
//!
//! The "reconfigurable" in ReSim means design-space sweeps: the paper
//! varies width, internal pipeline organization, predictor and memory
//! system and reruns the same traces per design point. [`ConfigGrid`]
//! builds the cross product of such axis choices from a base
//! configuration, applying the structural fix-ups each point needs to
//! stay valid (ALU pool and memory ports scale with width; the built-in
//! optimized N+3 pipeline falls back to the improved N+4 one at width 1,
//! where its ≤ N−1 port precondition is unsatisfiable — and since the
//! declarative-pipeline refactor that rewrite is an *explicit rule* on
//! [`PipelineDescription`] whose reason is reported through
//! [`ConfigGrid::try_build_with_notes`]).
//!
//! Every produced point is validated; the labels concatenate the varied
//! axes only, so a grid that varies nothing yields one point named
//! `"base"`.

use crate::config::{EngineConfig, FuConfig};
use crate::description::PipelineDescription;
use resim_bpred::PredictorConfig;
use resim_mem::MemorySystemConfig;

/// Builder for a cross product of [`EngineConfig`] points.
///
/// # Example
///
/// ```
/// use resim_core::EngineConfig;
///
/// let points = EngineConfig::paper_4wide()
///     .grid()
///     .widths([2, 4])
///     .rb_sizes([16, 32])
///     .build();
/// assert_eq!(points.len(), 4);
/// for (name, config) in &points {
///     assert!(config.validate().is_ok(), "{name} must be valid");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ConfigGrid {
    base: EngineConfig,
    widths: Vec<usize>,
    rb_sizes: Vec<usize>,
    lsq_sizes: Vec<usize>,
    pipelines: Vec<PipelineDescription>,
    predictors: Vec<(String, PredictorConfig)>,
    memories: Vec<(String, MemorySystemConfig)>,
}

impl EngineConfig {
    /// Starts a configuration grid from this base point.
    pub fn grid(self) -> ConfigGrid {
        ConfigGrid::new(self)
    }
}

impl ConfigGrid {
    /// Creates a grid whose every axis defaults to the base's value.
    pub fn new(base: EngineConfig) -> Self {
        Self {
            base,
            widths: Vec::new(),
            rb_sizes: Vec::new(),
            lsq_sizes: Vec::new(),
            pipelines: Vec::new(),
            predictors: Vec::new(),
            memories: Vec::new(),
        }
    }

    /// Varies the processor width (scales the ALU pool and read ports).
    pub fn widths(mut self, widths: impl IntoIterator<Item = usize>) -> Self {
        self.widths = widths.into_iter().collect();
        self
    }

    /// Varies the reorder-buffer size.
    pub fn rb_sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.rb_sizes = sizes.into_iter().collect();
        self
    }

    /// Varies the load/store-queue size.
    pub fn lsq_sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.lsq_sizes = sizes.into_iter().collect();
        self
    }

    /// Varies the internal pipeline organization: the built-ins
    /// ([`PipelineDescription::builtins`]) or any custom description.
    pub fn pipelines(mut self, orgs: impl IntoIterator<Item = PipelineDescription>) -> Self {
        self.pipelines = orgs.into_iter().collect();
        self
    }

    /// Varies the branch predictor (label, configuration).
    pub fn predictors(
        mut self,
        predictors: impl IntoIterator<Item = (impl Into<String>, PredictorConfig)>,
    ) -> Self {
        self.predictors = predictors.into_iter().map(|(n, p)| (n.into(), p)).collect();
        self
    }

    /// Varies the memory system (label, configuration).
    pub fn memories(
        mut self,
        memories: impl IntoIterator<Item = (impl Into<String>, MemorySystemConfig)>,
    ) -> Self {
        self.memories = memories.into_iter().map(|(n, m)| (n.into(), m)).collect();
        self
    }

    /// Number of points the grid will produce.
    pub fn len(&self) -> usize {
        let axis = |n: usize| n.max(1);
        axis(self.widths.len())
            * axis(self.rb_sizes.len())
            * axis(self.lsq_sizes.len())
            * axis(self.pipelines.len())
            * axis(self.predictors.len())
            * axis(self.memories.len())
    }

    /// Whether the grid would produce no points (never: minimum is 1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Builds the labelled, validated cross product.
    ///
    /// # Panics
    ///
    /// Panics if a produced point fails [`EngineConfig::validate`] even
    /// after the width fix-ups — that indicates an impossible axis
    /// combination (e.g. an RB smaller than a requested width). Use
    /// [`ConfigGrid::try_build`] to handle that case as an error (the
    /// TOML scenario path does).
    pub fn build(&self) -> Vec<(String, EngineConfig)> {
        self.try_build()
            .unwrap_or_else(|(name, e)| panic!("grid point {name} is structurally invalid: {e}"))
    }

    /// Builds the labelled cross product, reporting the first invalid
    /// point as `(its label, the structural error)` instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// The first point that fails [`EngineConfig::validate`] after the
    /// width fix-ups.
    pub fn try_build(&self) -> Result<Vec<(String, EngineConfig)>, (String, crate::ConfigError)> {
        self.try_build_with_notes().map(|(points, _)| points)
    }

    /// Like [`ConfigGrid::try_build`], but also returns one
    /// human-readable note per point whose pipeline had to be rewritten
    /// to stay valid (today: the built-in optimized organization at
    /// width 1), explaining *why*. The CLI surfaces these on `sweep`.
    ///
    /// # Errors
    ///
    /// The first point that fails [`EngineConfig::validate`] after the
    /// width fix-ups.
    #[allow(clippy::type_complexity)]
    pub fn try_build_with_notes(
        &self,
    ) -> Result<(Vec<(String, EngineConfig)>, Vec<String>), (String, crate::ConfigError)> {
        let opt = |v: &[usize]| -> Vec<Option<usize>> {
            if v.is_empty() {
                vec![None]
            } else {
                v.iter().copied().map(Some).collect()
            }
        };
        let widths = opt(&self.widths);
        let rbs = opt(&self.rb_sizes);
        let lsqs = opt(&self.lsq_sizes);
        let pipes: Vec<Option<&PipelineDescription>> = if self.pipelines.is_empty() {
            vec![None]
        } else {
            self.pipelines.iter().map(Some).collect()
        };
        let preds: Vec<Option<&(String, PredictorConfig)>> = if self.predictors.is_empty() {
            vec![None]
        } else {
            self.predictors.iter().map(Some).collect()
        };
        let mems: Vec<Option<&(String, MemorySystemConfig)>> = if self.memories.is_empty() {
            vec![None]
        } else {
            self.memories.iter().map(Some).collect()
        };

        let mut out = Vec::with_capacity(self.len());
        let mut notes = Vec::new();
        for &w in &widths {
            for &rb in &rbs {
                for &lsq in &lsqs {
                    for &pipe in &pipes {
                        for &pred in &preds {
                            for &mem in &mems {
                                out.push(self.point(w, rb, lsq, pipe, pred, mem, &mut notes)?);
                            }
                        }
                    }
                }
            }
        }
        Ok((out, notes))
    }

    #[allow(clippy::too_many_arguments)]
    fn point(
        &self,
        width: Option<usize>,
        rb: Option<usize>,
        lsq: Option<usize>,
        pipeline: Option<&PipelineDescription>,
        predictor: Option<&(String, PredictorConfig)>,
        memory: Option<&(String, MemorySystemConfig)>,
        notes: &mut Vec<String>,
    ) -> Result<(String, EngineConfig), (String, crate::ConfigError)> {
        let mut config = self.base.clone();
        let mut labels: Vec<String> = Vec::new();
        if let Some(w) = width {
            labels.push(format!("w{w}"));
            config.width = w;
            // Scale the execution resources the way the paper's reference
            // machines do: one ALU per way (two minimum so the narrow
            // points are not artificially execution-bound), and as many
            // read ports as the optimized pipeline permits.
            config.fus = FuConfig {
                alus: w.max(2),
                ..config.fus
            };
            config.mem_read_ports = if w == 1 { 1 } else { (w.min(4) - 1).max(1) };
        }
        if let Some(rb) = rb {
            labels.push(format!("rb{rb}"));
            config.rb_size = rb;
        }
        if let Some(lsq) = lsq {
            labels.push(format!("lsq{lsq}"));
            config.lsq_size = lsq;
        }
        if let Some(p) = pipeline {
            labels.push(p.name().to_string());
            config.pipeline = p.clone();
        }
        if let Some((name, p)) = predictor {
            labels.push(name.clone());
            config.predictor = *p;
        }
        if let Some((name, m)) = memory {
            labels.push(name.clone());
            config.memory = *m;
        }
        let name = if labels.is_empty() {
            "base".to_string()
        } else {
            labels.join("-")
        };
        // The explicit width-1 rewrite rule: the built-in optimized
        // organization cannot satisfy its ≤ N−1 port precondition there,
        // so the description substitutes improved N+4 and says why; any
        // other unsatisfiable description falls through to validate()
        // and is rejected with its own explanation.
        if let Some((substitute, why)) = config.pipeline.width1_fallback(config.width) {
            notes.push(format!("{name}: {why}"));
            config.pipeline = substitute;
        }
        if let Err(e) = config.validate() {
            return Err((name, e));
        }
        Ok((name, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_is_the_base_point() {
        let points = EngineConfig::paper_4wide().grid().build();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].0, "base");
        assert_eq!(points[0].1, EngineConfig::paper_4wide());
    }

    #[test]
    fn width_axis_scales_resources_and_stays_valid() {
        let points = EngineConfig::paper_4wide()
            .grid()
            .widths([1, 2, 4, 8])
            .build();
        assert_eq!(points.len(), 4);
        for (name, c) in &points {
            c.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let w1 = &points[0].1;
        assert_eq!(points[0].0, "w1");
        assert_eq!(w1.pipeline, PipelineDescription::improved());
        assert_eq!(w1.mem_read_ports, 1);
        let w8 = &points[3].1;
        assert_eq!(w8.fus.alus, 8);
        assert_eq!(
            w8.mem_read_ports, 3,
            "read ports capped for the optimized pipeline"
        );
    }

    #[test]
    fn width1_rewrite_is_reported_with_its_reason() {
        let (points, notes) = EngineConfig::paper_4wide()
            .grid()
            .widths([1, 4])
            .try_build_with_notes()
            .unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(notes.len(), 1, "only the w1 point is rewritten: {notes:?}");
        assert!(notes[0].starts_with("w1:"), "{}", notes[0]);
        assert!(notes[0].contains("unsatisfiable"), "{}", notes[0]);
        assert!(notes[0].contains("improved"), "{}", notes[0]);
        // The rewrite itself is unchanged from the historical behavior.
        assert_eq!(points[0].1.pipeline, PipelineDescription::improved());
        assert_eq!(points[1].1.pipeline, PipelineDescription::optimized());
    }

    #[test]
    fn cross_product_order_and_labels() {
        let grid = EngineConfig::paper_4wide()
            .grid()
            .widths([2, 4])
            .pipelines(PipelineDescription::builtins());
        assert_eq!(grid.len(), 6);
        let points = grid.build();
        assert_eq!(points.len(), 6);
        assert_eq!(
            points[0].0,
            format!("w2-{}", PipelineDescription::simple().name())
        );
        // Width-major, pipeline-minor ordering.
        assert!(points[2].0.starts_with("w2-"));
        assert!(points[3].0.starts_with("w4-"));
    }

    #[test]
    fn custom_descriptions_ride_the_pipeline_axis() {
        use crate::description::{SlotExpr, StageRow};
        let custom = PipelineDescription::new(
            "skewed",
            true,
            false,
            vec![
                StageRow::per_way("Fetch", "F", SlotExpr::new(1, 0, 0)),
                StageRow::per_way("Issue", "I", SlotExpr::new(2, 0, 1)),
                StageRow::per_way("Writeback", "W", SlotExpr::new(2, 0, 2)),
                StageRow::per_way("Commit", "C", SlotExpr::new(1, 0, 3)),
            ],
        );
        let points = EngineConfig::paper_4wide()
            .grid()
            .pipelines([custom.clone(), PipelineDescription::improved()])
            .build();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].0, "skewed");
        assert_eq!(points[0].1.pipeline, custom);
    }

    #[test]
    fn predictor_and_memory_axes_are_labelled() {
        let points = EngineConfig::paper_4wide()
            .grid()
            .predictors([
                ("2lev", PredictorConfig::paper_two_level()),
                ("perfect", PredictorConfig::perfect()),
            ])
            .memories([("perfmem", MemorySystemConfig::perfect())])
            .build();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].0, "2lev-perfmem");
        assert_eq!(points[1].0, "perfect-perfmem");
        assert_eq!(points[1].1.predictor, PredictorConfig::perfect());
    }

    #[test]
    #[should_panic(expected = "structurally invalid")]
    fn impossible_combination_panics() {
        // RB of 2 cannot hold a dispatch group of 4.
        let _ = EngineConfig::paper_4wide().grid().rb_sizes([2]).build();
    }
}
