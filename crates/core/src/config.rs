//! Engine configuration: the "reconfigurable" in ReSim.
//!
//! Everything the paper lists as a user parameter of the VHDL generator is
//! a field here: processor width, IFQ/RB/LSQ sizes, functional-unit mix
//! and latencies, memory ports, misfetch/misprediction penalties, the full
//! branch-predictor geometry and the memory system (§III, §V.C) — and,
//! since the declarative-pipeline refactor, the complete internal
//! [`PipelineDescription`] rather than a closed three-way enum.

use crate::description::{DescriptionError, PipelineDescription};
use resim_bpred::PredictorConfig;
use resim_mem::MemorySystemConfig;
use std::error::Error;
use std::fmt;

/// Functional-unit pool configuration.
///
/// The paper's reference machine has "four ALUs, one Multiplier and one
/// Divider with one, three and ten cycle latency respectively" (§V.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Number of single-cycle ALUs (also execute branches).
    pub alus: usize,
    /// Number of (pipelined) multipliers.
    pub mults: usize,
    /// Number of dividers.
    pub divs: usize,
    /// ALU latency in cycles.
    pub alu_latency: u32,
    /// Multiplier latency in cycles.
    pub mult_latency: u32,
    /// Divider latency in cycles.
    pub div_latency: u32,
    /// Whether the divider accepts a new operation every cycle; real
    /// dividers usually do not, so the default is unpipelined.
    pub div_pipelined: bool,
}

impl FuConfig {
    /// The paper's reference FU mix.
    pub fn paper() -> Self {
        Self {
            alus: 4,
            mults: 1,
            divs: 1,
            alu_latency: 1,
            mult_latency: 3,
            div_latency: 10,
            div_pipelined: false,
        }
    }
}

impl Default for FuConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Full configuration of a simulated processor / engine instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Fetch/dispatch/issue/commit width `N`.
    pub width: usize,
    /// Instruction fetch queue entries.
    pub ifq_size: usize,
    /// Reorder buffer entries (16 in the paper's reference machine).
    pub rb_size: usize,
    /// Load/store queue entries (8 in the paper's reference machine).
    pub lsq_size: usize,
    /// Functional-unit pool.
    pub fus: FuConfig,
    /// D-cache read ports usable by loads each cycle.
    pub mem_read_ports: usize,
    /// Memory write ports usable by committing stores each cycle.
    pub mem_write_ports: usize,
    /// Fetch-bubble penalty for a misfetch (3 in the paper).
    pub misfetch_penalty: u32,
    /// Recovery penalty for a direction misprediction (3 in the paper).
    pub mispredict_penalty: u32,
    /// Branch predictor geometry.
    pub predictor: PredictorConfig,
    /// Memory system (perfect, or split L1 caches).
    pub memory: MemorySystemConfig,
    /// Internal engine pipeline organization — a built-in paper figure
    /// ([`PipelineDescription::optimized`] and friends) or any custom
    /// description.
    pub pipeline: PipelineDescription,
}

impl EngineConfig {
    /// The paper's Table 1 (left) machine: 4-issue, 16-entry RB, 8-entry
    /// LSQ, two-level predictor, perfect memory, optimized N+3 pipeline.
    pub fn paper_4wide() -> Self {
        Self {
            width: 4,
            ifq_size: 16,
            rb_size: 16,
            lsq_size: 8,
            fus: FuConfig::paper(),
            mem_read_ports: 2,
            mem_write_ports: 1,
            misfetch_penalty: 3,
            mispredict_penalty: 3,
            predictor: PredictorConfig::paper_two_level(),
            memory: MemorySystemConfig::perfect(),
            pipeline: PipelineDescription::optimized(),
        }
    }

    /// The paper's Table 1 (right) machine: 2-issue, perfect branch
    /// prediction, 32 KB 8-way L1 I+D caches, improved N+4 pipeline —
    /// the configuration used for the head-to-head with FAST.
    pub fn paper_2wide_cached() -> Self {
        Self {
            width: 2,
            ifq_size: 8,
            rb_size: 16,
            lsq_size: 8,
            fus: FuConfig {
                alus: 2,
                ..FuConfig::paper()
            },
            mem_read_ports: 1,
            mem_write_ports: 1,
            misfetch_penalty: 3,
            mispredict_penalty: 3,
            predictor: PredictorConfig::perfect(),
            memory: MemorySystemConfig::l1_32k(),
            pipeline: PipelineDescription::improved(),
        }
    }

    /// Upper bound on every queue size (`ifq_size`, `rb_size`,
    /// `lsq_size`) and functional-unit count. Each sizes an allocation or
    /// a per-cycle scan, so an unbounded value from a scenario file would
    /// exhaust memory instead of failing validation; the bound is far
    /// above any machine the paper's engine models.
    pub const MAX_ENTRIES: usize = 1 << 16;

    /// Upper bound, in cycles, on every penalty and latency: the
    /// misfetch and mispredict penalties, the FU latencies, the perfect
    /// memory latency and the L1 hit latencies and miss penalties. One
    /// such delay must stay far below the engine's deadlock watchdog
    /// (200 000 cycles without a commit), or a slow but valid machine
    /// would trip it; the largest value any shipped configuration uses
    /// is 20.
    pub const MAX_LATENCY: u32 = 1 << 14;

    /// Validates structural consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when sizes are zero, a queue size or
    /// functional-unit count exceeds [`EngineConfig::MAX_ENTRIES`], the
    /// RB cannot cover one dispatch group, a penalty or latency exceeds
    /// [`EngineConfig::MAX_LATENCY`], the pipeline description
    /// cannot build a schedule grid at this width, or the first-slot
    /// load restriction's memory-port precondition (≤ N−1 ports, §IV.B)
    /// is violated.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.width == 0 {
            return Err(ConfigError::ZeroWidth);
        }
        if self.ifq_size < self.width {
            return Err(ConfigError::IfqTooSmall {
                ifq: self.ifq_size,
                width: self.width,
            });
        }
        if self.rb_size < self.width {
            return Err(ConfigError::RbTooSmall {
                rb: self.rb_size,
                width: self.width,
            });
        }
        if self.lsq_size == 0 {
            return Err(ConfigError::ZeroLsq);
        }
        if self.fus.alus == 0 {
            return Err(ConfigError::NoAlus);
        }
        if self.fus.mults == 0 {
            return Err(ConfigError::NoMults);
        }
        if self.fus.divs == 0 {
            return Err(ConfigError::NoDivs);
        }
        if self.mem_read_ports == 0 || self.mem_write_ports == 0 {
            return Err(ConfigError::NoMemPorts);
        }
        for (field, value) in [
            ("ifq_size", self.ifq_size),
            ("rb_size", self.rb_size),
            ("lsq_size", self.lsq_size),
            ("alus", self.fus.alus),
            ("mults", self.fus.mults),
            ("divs", self.fus.divs),
        ] {
            if value > Self::MAX_ENTRIES {
                return Err(ConfigError::TooLarge {
                    field,
                    value,
                    max: Self::MAX_ENTRIES,
                });
            }
        }
        let memory = match self.memory {
            // One delay; repeated to the split system's four.
            MemorySystemConfig::Perfect { latency } => [("latency", latency); 4],
            MemorySystemConfig::Split { l1i, l1d } => [
                ("l1i.hit_latency", l1i.hit_latency),
                ("l1i.miss_penalty", l1i.miss_penalty),
                ("l1d.hit_latency", l1d.hit_latency),
                ("l1d.miss_penalty", l1d.miss_penalty),
            ],
        };
        let latencies = [
            ("misfetch_penalty", self.misfetch_penalty),
            ("mispredict_penalty", self.mispredict_penalty),
            ("alu_latency", self.fus.alu_latency),
            ("mult_latency", self.fus.mult_latency),
            ("div_latency", self.fus.div_latency),
        ];
        let too_large = latencies
            .into_iter()
            .chain(memory)
            .find(|&(_, v)| v > Self::MAX_LATENCY);
        if let Some((field, value)) = too_large {
            return Err(ConfigError::LatencyTooLarge {
                field,
                value,
                max: Self::MAX_LATENCY,
            });
        }
        self.pipeline
            .validate_at(self.width)
            .map_err(ConfigError::Pipeline)?;
        let ports = self.mem_read_ports.max(self.mem_write_ports);
        if let Err(DescriptionError::PortLimit { ports, width, .. }) =
            self.pipeline.check_port_limit(self.width, ports)
        {
            return Err(ConfigError::OptimizedPortLimit { ports, width });
        }
        Ok(())
    }

    /// The conservative wrong-path block length for this machine:
    /// "Reorder Buffer size plus IFQ size" (§V.A).
    pub fn wrong_path_block_len(&self) -> usize {
        self.rb_size + self.ifq_size
    }

    /// Minor cycles one simulated cycle costs on this configuration,
    /// derived from the pipeline description's schedule grid (highest
    /// occupied slot + 1).
    ///
    /// # Panics
    ///
    /// Panics when the description cannot build a grid at this width —
    /// [`EngineConfig::validate`] first on untrusted configurations.
    pub fn minor_cycles_per_major(&self) -> u64 {
        self.pipeline
            .minor_cycles_per_major(self.width)
            .expect("validated configurations have a buildable schedule grid")
    }

    /// A platform-stable FNV-1a fingerprint of every configuration field,
    /// pipeline description included — two configs share a fingerprint
    /// exactly when they simulate the same machine the same way, which is
    /// what keys the sweep trace cache and any future result cache.
    ///
    /// ```
    /// use resim_core::EngineConfig;
    ///
    /// assert_eq!(EngineConfig::paper_4wide().fingerprint(),
    ///            EngineConfig::paper_4wide().fingerprint());
    /// assert_ne!(EngineConfig::paper_4wide().fingerprint(),
    ///            EngineConfig::paper_2wide_cached().fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        use resim_bpred::DirectionConfig;
        use resim_mem::MemorySystemConfig as Mem;

        let mut hash = crate::Fnv64::new();
        let mut eat = |bytes: &[u8]| hash.write(bytes);
        for v in [
            self.width,
            self.ifq_size,
            self.rb_size,
            self.lsq_size,
            self.fus.alus,
            self.fus.mults,
            self.fus.divs,
            self.mem_read_ports,
            self.mem_write_ports,
        ] {
            eat(&(v as u64).to_le_bytes());
        }
        eat(&self.fus.alu_latency.to_le_bytes());
        eat(&self.fus.mult_latency.to_le_bytes());
        eat(&self.fus.div_latency.to_le_bytes());
        eat(&[u8::from(self.fus.div_pipelined)]);
        eat(&self.misfetch_penalty.to_le_bytes());
        eat(&self.mispredict_penalty.to_le_bytes());
        match self.predictor.direction {
            DirectionConfig::Perfect => eat(&[0]),
            DirectionConfig::Taken => eat(&[1]),
            DirectionConfig::NotTaken => eat(&[2]),
            DirectionConfig::Bimodal { size } => {
                eat(&[3]);
                eat(&(size as u64).to_le_bytes());
            }
            DirectionConfig::TwoLevel(t) => {
                eat(&[4]);
                eat(&(t.l1_size as u64).to_le_bytes());
                eat(&t.history_bits.to_le_bytes());
                eat(&(t.l2_size as u64).to_le_bytes());
                eat(&[u8::from(t.xor)]);
                eat(&t.counter_bits.to_le_bytes());
            }
        }
        eat(&(self.predictor.btb.entries as u64).to_le_bytes());
        eat(&(self.predictor.btb.associativity as u64).to_le_bytes());
        eat(&(self.predictor.ras_entries as u64).to_le_bytes());
        match &self.memory {
            Mem::Perfect { latency } => {
                eat(&[0]);
                eat(&latency.to_le_bytes());
            }
            Mem::Split { l1i, l1d } => {
                eat(&[1]);
                for c in [l1i, l1d] {
                    eat(&(c.size_bytes as u64).to_le_bytes());
                    eat(&(c.block_bytes as u64).to_le_bytes());
                    eat(&(c.associativity as u64).to_le_bytes());
                    eat(&[c.replacement as u8]);
                    eat(&c.hit_latency.to_le_bytes());
                    eat(&c.miss_penalty.to_le_bytes());
                }
            }
        }
        self.pipeline.feed_fingerprint(&mut eat);
        hash.finish()
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::paper_4wide()
    }
}

/// Structural configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Width must be at least 1.
    ZeroWidth,
    /// The IFQ cannot be smaller than one fetch group.
    IfqTooSmall {
        /// Configured IFQ entries.
        ifq: usize,
        /// Configured width.
        width: usize,
    },
    /// The RB cannot be smaller than one dispatch group.
    RbTooSmall {
        /// Configured RB entries.
        rb: usize,
        /// Configured width.
        width: usize,
    },
    /// The LSQ needs at least one entry.
    ZeroLsq,
    /// At least one ALU is required (branches execute there).
    NoAlus,
    /// At least one multiplier is required: traces carry multiply-class
    /// operations, which would otherwise never issue.
    NoMults,
    /// At least one divider is required: traces carry divide-class
    /// operations, which would otherwise never issue.
    NoDivs,
    /// At least one read and one write port are required.
    NoMemPorts,
    /// A queue size or functional-unit count exceeds
    /// [`EngineConfig::MAX_ENTRIES`].
    TooLarge {
        /// The offending field, as scenario files spell it.
        field: &'static str,
        /// Its configured value.
        value: usize,
        /// The largest accepted value.
        max: usize,
    },
    /// A penalty or latency exceeds [`EngineConfig::MAX_LATENCY`] cycles.
    LatencyTooLarge {
        /// The offending field, as scenario files spell it.
        field: &'static str,
        /// Its configured value, in cycles.
        value: u32,
        /// The largest accepted value.
        max: u32,
    },
    /// A pipeline barring loads from its first issue slot requires
    /// ≤ N−1 memory ports (§IV.B; the optimized N+3 organization).
    OptimizedPortLimit {
        /// Offending port count.
        ports: usize,
        /// Configured width.
        width: usize,
    },
    /// The pipeline description cannot build a schedule grid for this
    /// configuration.
    Pipeline(DescriptionError),
    /// A warm predictor or memory system handed to
    /// [`Engine::resume`](crate::Engine::resume) was built for a different
    /// configuration than the engine's.
    WarmStateMismatch,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWidth => write!(f, "processor width must be at least 1"),
            ConfigError::IfqTooSmall { ifq, width } => {
                write!(
                    f,
                    "IFQ of {ifq} entries cannot hold a fetch group of {width}"
                )
            }
            ConfigError::RbTooSmall { rb, width } => {
                write!(
                    f,
                    "RB of {rb} entries cannot hold a dispatch group of {width}"
                )
            }
            ConfigError::ZeroLsq => write!(f, "LSQ needs at least one entry"),
            ConfigError::NoAlus => write!(f, "at least one ALU is required"),
            ConfigError::NoMults => write!(
                f,
                "at least one multiplier is required (mults = 0 leaves multiply \
                 operations nowhere to issue)"
            ),
            ConfigError::NoDivs => write!(
                f,
                "at least one divider is required (divs = 0 leaves divide \
                 operations nowhere to issue)"
            ),
            ConfigError::NoMemPorts => {
                write!(f, "at least one memory read and write port are required")
            }
            ConfigError::TooLarge { field, value, max } => {
                write!(f, "{field} of {value} exceeds the maximum of {max}")
            }
            ConfigError::LatencyTooLarge { field, value, max } => {
                write!(f, "{field} of {value} cycles exceeds the maximum of {max}")
            }
            ConfigError::OptimizedPortLimit { ports, width } => write!(
                f,
                "a pipeline that bars loads from the first issue slot allows at most {} \
                 memory ports for width {width}, got {ports}",
                width.saturating_sub(1)
            ),
            ConfigError::Pipeline(e) => write!(f, "invalid pipeline description: {e}"),
            ConfigError::WarmStateMismatch => write!(
                f,
                "the warm predictor or memory system was built for a different configuration"
            ),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::{SlotExpr, StageRow};

    #[test]
    fn paper_configs_validate() {
        EngineConfig::paper_4wide().validate().unwrap();
        EngineConfig::paper_2wide_cached().validate().unwrap();
    }

    #[test]
    fn paper_reference_numbers() {
        let c = EngineConfig::paper_4wide();
        assert_eq!(c.width, 4);
        assert_eq!(c.rb_size, 16);
        assert_eq!(c.lsq_size, 8);
        assert_eq!(c.fus.alus, 4);
        assert_eq!(c.fus.mult_latency, 3);
        assert_eq!(c.fus.div_latency, 10);
        assert_eq!(c.misfetch_penalty, 3);
        assert_eq!(c.mispredict_penalty, 3);
        assert_eq!(c.minor_cycles_per_major(), 7); // N+3
        assert_eq!(c.wrong_path_block_len(), 32); // RB + IFQ
    }

    #[test]
    fn allocating_sizes_are_bounded() {
        let max = EngineConfig::MAX_ENTRIES;
        let at_max = EngineConfig {
            rb_size: max,
            fus: FuConfig {
                divs: max,
                ..FuConfig::paper()
            },
            ..EngineConfig::paper_4wide()
        };
        assert_eq!(at_max.validate(), Ok(()));
        let over = EngineConfig {
            lsq_size: max + 1,
            ..EngineConfig::paper_4wide()
        };
        assert_eq!(
            over.validate(),
            Err(ConfigError::TooLarge {
                field: "lsq_size",
                value: max + 1,
                max
            })
        );
    }

    #[test]
    fn penalties_and_latencies_are_bounded() {
        let max = EngineConfig::MAX_LATENCY;
        let mut cached = EngineConfig {
            mispredict_penalty: max,
            fus: FuConfig {
                div_latency: max,
                ..FuConfig::paper()
            },
            ..EngineConfig::paper_2wide_cached()
        };
        assert_eq!(cached.validate(), Ok(()));
        if let MemorySystemConfig::Split { l1d, .. } = &mut cached.memory {
            l1d.miss_penalty = max + 1;
        }
        assert_eq!(
            cached.validate(),
            Err(ConfigError::LatencyTooLarge {
                field: "l1d.miss_penalty",
                value: max + 1,
                max
            })
        );
        let perfect = EngineConfig {
            memory: MemorySystemConfig::Perfect { latency: u32::MAX },
            ..EngineConfig::paper_4wide()
        };
        assert_eq!(
            perfect.validate(),
            Err(ConfigError::LatencyTooLarge {
                field: "latency",
                value: u32::MAX,
                max
            })
        );
    }

    #[test]
    fn two_wide_uses_improved_pipeline() {
        let c = EngineConfig::paper_2wide_cached();
        assert_eq!(c.minor_cycles_per_major(), 6); // N+4
    }

    #[test]
    fn optimized_rejects_too_many_ports() {
        let c = EngineConfig {
            mem_read_ports: 4,
            ..EngineConfig::paper_4wide()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::OptimizedPortLimit { ports: 4, width: 4 })
        );
    }

    #[test]
    fn zero_sizes_rejected() {
        let bad = EngineConfig {
            width: 0,
            ..EngineConfig::paper_4wide()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroWidth));
        let bad = EngineConfig {
            rb_size: 2,
            ..EngineConfig::paper_4wide()
        };
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::RbTooSmall { .. })
        ));
    }

    #[test]
    fn rosters_missing_a_unit_class_are_rejected() {
        let with_fus = |fus| EngineConfig {
            fus,
            ..EngineConfig::paper_4wide()
        };
        let no_mults = with_fus(FuConfig {
            mults: 0,
            ..FuConfig::paper()
        });
        assert_eq!(no_mults.validate(), Err(ConfigError::NoMults));
        let no_divs = with_fus(FuConfig {
            divs: 0,
            div_pipelined: true,
            ..FuConfig::paper()
        });
        assert_eq!(no_divs.validate(), Err(ConfigError::NoDivs));
        assert!(ConfigError::NoDivs.to_string().contains("divs = 0"));
        assert!(ConfigError::NoMults.to_string().contains("mults = 0"));
    }

    #[test]
    fn invalid_description_surfaces_as_config_error() {
        let bad = EngineConfig {
            pipeline: PipelineDescription::new("broken", true, false, vec![]),
            ..EngineConfig::paper_4wide()
        };
        assert_eq!(
            bad.validate(),
            Err(ConfigError::Pipeline(DescriptionError::EmptyRoster))
        );
        let colliding = EngineConfig {
            pipeline: PipelineDescription::new(
                "colliding",
                true,
                false,
                vec![StageRow::per_way("Fetch", "F", SlotExpr::constant(0))],
            ),
            ..EngineConfig::paper_4wide()
        };
        let err = colliding.validate().unwrap_err();
        assert!(err.to_string().contains("collide"), "{err}");
    }

    #[test]
    fn errors_display() {
        let e = ConfigError::OptimizedPortLimit { ports: 4, width: 4 };
        assert!(e.to_string().contains("at most 3"));
        assert!(e.to_string().contains("memory ports"));
    }

    #[test]
    fn fingerprint_covers_the_pipeline_description() {
        let base = EngineConfig::paper_4wide();
        let improved = EngineConfig {
            pipeline: PipelineDescription::improved(),
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), improved.fingerprint());
        // A custom description with the same grid as a built-in still
        // fingerprints differently (different name ⇒ different config).
        let mut renamed = PipelineDescription::optimized();
        renamed = PipelineDescription::new(
            "my-optimized",
            renamed.pipelined(),
            renamed.restricts_first_slot_loads(),
            renamed.rows().to_vec(),
        );
        let custom = EngineConfig {
            pipeline: renamed,
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), custom.fingerprint());
        // Stable across clones.
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
    }
}
