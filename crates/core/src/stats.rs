//! Simulation statistics — the engine's equivalent of `sim-outorder`'s
//! counter dump (§V.B).
//!
//! "To avoid overflow problems we use 64-bits registers for statistics"
//! — all counters here are `u64`. The set mirrors what the paper lists:
//! general counts (instructions, memory operations, branches, cache
//! hits), occupancy statistics for IFQ / Reorder Buffer / LSQ, and
//! detailed branch information.

use crate::EngineConfig;
use resim_bpred::PredictorStats;
use resim_mem::MemorySystemStats;

/// 64-bit statistics collected during a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    // --- progress ---
    /// Simulated (major) cycles elapsed.
    pub cycles: u64,
    /// Minor cycles the engine spent (cycles × pipeline latency).
    pub minor_cycles: u64,
    /// Correct-path instructions committed.
    pub committed: u64,
    /// All instructions fetched (correct + wrong path).
    pub fetched: u64,
    /// Wrong-path instructions fetched (later squashed).
    pub wrong_path_fetched: u64,
    /// Wrong-path trace records delivered but discarded unfetched at the
    /// branch resolution point (§V.A).
    pub wrong_path_discarded: u64,

    // --- committed mix ---
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed stores.
    pub committed_stores: u64,
    /// Committed branches.
    pub committed_branches: u64,

    // --- speculation ---
    /// Direction-misprediction recoveries performed.
    pub mispredict_recoveries: u64,
    /// Misfetches detected at fetch (target wrong/unknown).
    pub misfetches: u64,
    /// Instructions squashed from the pipeline on recovery.
    pub squashed: u64,

    // --- pipeline pressure ---
    /// Dispatch stalls because the RB was full.
    pub dispatch_stall_rb: u64,
    /// Dispatch stalls because the LSQ was full.
    pub dispatch_stall_lsq: u64,
    /// Cycles fetch was stalled (penalties, I-cache misses, wrong-path
    /// exhaustion).
    pub fetch_stall_cycles: u64,
    /// Loads satisfied by LSQ store-to-load forwarding.
    pub load_forwards: u64,
    /// Instructions issued to functional units.
    pub issued: u64,

    // --- occupancy accumulators (divide by `cycles` for averages) ---
    /// Sum over cycles of IFQ occupancy.
    pub ifq_occupancy_sum: u64,
    /// Sum over cycles of RB occupancy.
    pub rb_occupancy_sum: u64,
    /// Sum over cycles of LSQ occupancy.
    pub lsq_occupancy_sum: u64,
    /// Highest IFQ occupancy observed in any cycle.
    pub ifq_occupancy_max: u64,
    /// Highest RB occupancy observed in any cycle.
    pub rb_occupancy_max: u64,
    /// Highest LSQ occupancy observed in any cycle.
    pub lsq_occupancy_max: u64,

    // --- component statistics ---
    /// Branch predictor counters.
    pub predictor: PredictorStats,
    /// Cache / memory-system counters.
    pub memory: MemorySystemStats,
}

/// Names of every [`SimStats`] counter, in [`SimStats::to_words`] order.
///
/// Nested predictor and memory-system counters are flattened with a
/// dotted prefix, so a field-for-field diff (the `resim replay` report)
/// can name exactly which counter drifted.
pub const SIM_STATS_FIELDS: [&str; 42] = [
    "cycles",
    "minor_cycles",
    "committed",
    "fetched",
    "wrong_path_fetched",
    "wrong_path_discarded",
    "committed_loads",
    "committed_stores",
    "committed_branches",
    "mispredict_recoveries",
    "misfetches",
    "squashed",
    "dispatch_stall_rb",
    "dispatch_stall_lsq",
    "fetch_stall_cycles",
    "load_forwards",
    "issued",
    "ifq_occupancy_sum",
    "rb_occupancy_sum",
    "lsq_occupancy_sum",
    "ifq_occupancy_max",
    "rb_occupancy_max",
    "lsq_occupancy_max",
    "predictor.branches",
    "predictor.cond_branches",
    "predictor.correct",
    "predictor.misfetches",
    "predictor.dir_mispredicts",
    "predictor.ras_predictions",
    "predictor.ras_correct",
    "memory.l1i.reads",
    "memory.l1i.writes",
    "memory.l1i.read_hits",
    "memory.l1i.write_hits",
    "memory.l1i.evictions",
    "memory.l1d.reads",
    "memory.l1d.writes",
    "memory.l1d.read_hits",
    "memory.l1d.write_hits",
    "memory.l1d.evictions",
    "memory.perfect_inst_accesses",
    "memory.perfect_data_accesses",
];

impl SimStats {
    /// Flattens every counter — nested predictor and memory-system blocks
    /// included — into a fixed-order word vector.
    ///
    /// The order is [`SIM_STATS_FIELDS`]; [`SimStats::from_words`] inverts
    /// it and [`SimStats::digest`] hashes it. This is the serialization
    /// the session record/replay machinery stores and diffs: two runs are
    /// bit-identical exactly when their word vectors are equal.
    pub fn to_words(&self) -> Vec<u64> {
        let p = &self.predictor;
        let m = &self.memory;
        vec![
            self.cycles,
            self.minor_cycles,
            self.committed,
            self.fetched,
            self.wrong_path_fetched,
            self.wrong_path_discarded,
            self.committed_loads,
            self.committed_stores,
            self.committed_branches,
            self.mispredict_recoveries,
            self.misfetches,
            self.squashed,
            self.dispatch_stall_rb,
            self.dispatch_stall_lsq,
            self.fetch_stall_cycles,
            self.load_forwards,
            self.issued,
            self.ifq_occupancy_sum,
            self.rb_occupancy_sum,
            self.lsq_occupancy_sum,
            self.ifq_occupancy_max,
            self.rb_occupancy_max,
            self.lsq_occupancy_max,
            p.branches,
            p.cond_branches,
            p.correct,
            p.misfetches,
            p.dir_mispredicts,
            p.ras_predictions,
            p.ras_correct,
            m.l1i.reads,
            m.l1i.writes,
            m.l1i.read_hits,
            m.l1i.write_hits,
            m.l1i.evictions,
            m.l1d.reads,
            m.l1d.writes,
            m.l1d.read_hits,
            m.l1d.write_hits,
            m.l1d.evictions,
            m.perfect_inst_accesses,
            m.perfect_data_accesses,
        ]
    }

    /// Rebuilds statistics from a [`SimStats::to_words`] vector; `None`
    /// if `words` is not exactly [`SIM_STATS_FIELDS`] long.
    pub fn from_words(words: &[u64]) -> Option<SimStats> {
        if words.len() != SIM_STATS_FIELDS.len() {
            return None;
        }
        let mut it = words.iter().copied();
        let mut next = move || it.next().expect("length checked above");
        let mut s = SimStats {
            cycles: next(),
            minor_cycles: next(),
            committed: next(),
            fetched: next(),
            wrong_path_fetched: next(),
            wrong_path_discarded: next(),
            committed_loads: next(),
            committed_stores: next(),
            committed_branches: next(),
            mispredict_recoveries: next(),
            misfetches: next(),
            squashed: next(),
            dispatch_stall_rb: next(),
            dispatch_stall_lsq: next(),
            fetch_stall_cycles: next(),
            load_forwards: next(),
            issued: next(),
            ifq_occupancy_sum: next(),
            rb_occupancy_sum: next(),
            lsq_occupancy_sum: next(),
            ifq_occupancy_max: next(),
            rb_occupancy_max: next(),
            lsq_occupancy_max: next(),
            ..SimStats::default()
        };
        s.predictor.branches = next();
        s.predictor.cond_branches = next();
        s.predictor.correct = next();
        s.predictor.misfetches = next();
        s.predictor.dir_mispredicts = next();
        s.predictor.ras_predictions = next();
        s.predictor.ras_correct = next();
        s.memory.l1i.reads = next();
        s.memory.l1i.writes = next();
        s.memory.l1i.read_hits = next();
        s.memory.l1i.write_hits = next();
        s.memory.l1i.evictions = next();
        s.memory.l1d.reads = next();
        s.memory.l1d.writes = next();
        s.memory.l1d.read_hits = next();
        s.memory.l1d.write_hits = next();
        s.memory.l1d.evictions = next();
        s.memory.perfect_inst_accesses = next();
        s.memory.perfect_data_accesses = next();
        Some(s)
    }

    /// A platform-stable FNV-1a digest over the [`SimStats::to_words`]
    /// vector (little-endian bytes, field order fixed).
    ///
    /// Two runs share a digest exactly when every counter matches, so a
    /// recorded session can assert replay fidelity with one word — and
    /// fall back to the word vector for the field-by-field diff when the
    /// digest disagrees.
    pub fn digest(&self) -> u64 {
        let mut hash = crate::Fnv64::new();
        for w in self.to_words() {
            hash.write_u64(w);
        }
        hash.finish()
    }

    /// Composes the statistics of two runs (or of two windows of one run)
    /// into the statistics of the concatenated run: every count — cycles
    /// included — adds, occupancy *sums* add, occupancy *maxima* take the
    /// max, and the nested predictor/memory counter sets merge field-wise.
    ///
    /// This is what makes windowed execution compose: a full run split
    /// into windows (each window's engine starting its counters from
    /// zero rather than inheriting a nonzero base) merges back to the
    /// full run's statistics. Sampled simulation merges its detailed
    /// windows through this, and `resim-sample`'s full-coverage property
    /// test pins the round trip bit-exactly.
    pub fn merge(&self, other: &SimStats) -> SimStats {
        SimStats {
            cycles: self.cycles + other.cycles,
            minor_cycles: self.minor_cycles + other.minor_cycles,
            committed: self.committed + other.committed,
            fetched: self.fetched + other.fetched,
            wrong_path_fetched: self.wrong_path_fetched + other.wrong_path_fetched,
            wrong_path_discarded: self.wrong_path_discarded + other.wrong_path_discarded,
            committed_loads: self.committed_loads + other.committed_loads,
            committed_stores: self.committed_stores + other.committed_stores,
            committed_branches: self.committed_branches + other.committed_branches,
            mispredict_recoveries: self.mispredict_recoveries + other.mispredict_recoveries,
            misfetches: self.misfetches + other.misfetches,
            squashed: self.squashed + other.squashed,
            dispatch_stall_rb: self.dispatch_stall_rb + other.dispatch_stall_rb,
            dispatch_stall_lsq: self.dispatch_stall_lsq + other.dispatch_stall_lsq,
            fetch_stall_cycles: self.fetch_stall_cycles + other.fetch_stall_cycles,
            load_forwards: self.load_forwards + other.load_forwards,
            issued: self.issued + other.issued,
            ifq_occupancy_sum: self.ifq_occupancy_sum + other.ifq_occupancy_sum,
            rb_occupancy_sum: self.rb_occupancy_sum + other.rb_occupancy_sum,
            lsq_occupancy_sum: self.lsq_occupancy_sum + other.lsq_occupancy_sum,
            ifq_occupancy_max: self.ifq_occupancy_max.max(other.ifq_occupancy_max),
            rb_occupancy_max: self.rb_occupancy_max.max(other.rb_occupancy_max),
            lsq_occupancy_max: self.lsq_occupancy_max.max(other.lsq_occupancy_max),
            predictor: self.predictor.merge(&other.predictor),
            memory: self.memory.merge(&other.memory),
        }
    }

    /// These statistics charged at `minor_cycles_per_major` engine
    /// cycles per simulated cycle: `minor_cycles = cycles × cost`, every
    /// other counter unchanged.
    ///
    /// This is the one definition of the minor-cycle count. The engine
    /// reports its own statistics through it, and because the §IV
    /// organizations simulate identical timing, a sweep re-costs one
    /// organization's run with another's
    /// [`EngineConfig::minor_cycles_per_major`](crate::EngineConfig::minor_cycles_per_major)
    /// to get that organization's statistics bit-exactly. The rule is
    /// linear in `cycles`, so it commutes with [`SimStats::merge`].
    pub fn with_minor_cycle_cost(mut self, minor_cycles_per_major: u64) -> SimStats {
        self.minor_cycles = self.cycles * minor_cycles_per_major;
        self
    }

    /// Whether these statistics, from a run of `ran`, are also the run
    /// of `other` over the same trace, bit for bit once re-costed with
    /// `other`'s [`EngineConfig::minor_cycles_per_major`] through
    /// [`SimStats::with_minor_cycle_cost`].
    ///
    /// A queue size matters to the engine in one place only: the full
    /// check before a push (Fetch for the IFQ, Dispatch for the RB and
    /// LSQ). Each queue grows only in the stage that checks it, and the
    /// cycle's occupancy is sampled after that stage, so
    /// `*_occupancy_max` is the largest size the queue ever reached. A
    /// queue whose maximum stays below its size never failed the check,
    /// and it would not fail it at any other size above that maximum
    /// either. So `other` is covered when it equals `ran` apart from
    /// `pipeline` (the §IV organizations simulate identical timing) and
    /// the three queue sizes, and each queue either keeps its size or
    /// never filled in this run and stays above its maximum in `other`.
    ///
    /// The rule holds for [`SimStats::merge`]d window statistics too,
    /// since merging takes the largest of the windows' maxima.
    pub fn covers(&self, ran: &EngineConfig, other: &EngineConfig) -> bool {
        let queue = |max: u64, ran: usize, other: usize| {
            ran == other || (max < ran as u64 && max < other as u64)
        };
        // Destructured in full, so a new field must be placed on one
        // side of the rule before this compiles.
        let EngineConfig {
            width,
            ifq_size,
            rb_size,
            lsq_size,
            fus,
            mem_read_ports,
            mem_write_ports,
            misfetch_penalty,
            mispredict_penalty,
            predictor,
            memory,
            pipeline: _,
        } = ran;
        (width, fus, mem_read_ports, mem_write_ports)
            == (
                &other.width,
                &other.fus,
                &other.mem_read_ports,
                &other.mem_write_ports,
            )
            && (misfetch_penalty, mispredict_penalty, predictor, memory)
                == (
                    &other.misfetch_penalty,
                    &other.mispredict_penalty,
                    &other.predictor,
                    &other.memory,
                )
            && queue(self.ifq_occupancy_max, *ifq_size, other.ifq_size)
            && queue(self.rb_occupancy_max, *rb_size, other.rb_size)
            && queue(self.lsq_occupancy_max, *lsq_size, other.lsq_size)
    }

    /// Committed instructions per simulated cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Instructions *processed* per cycle including wrong-path work —
    /// the rate Table 3 reports ("simulation throughput including
    /// mis-speculated instructions ... the total trace instruction
    /// demands").
    pub fn processed_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.trace_records_consumed() as f64 / self.cycles as f64
        }
    }

    /// Total trace records pulled from the trace source.
    pub fn trace_records_consumed(&self) -> u64 {
        self.committed + self.wrong_path_fetched + self.wrong_path_discarded
    }

    /// Fraction of consumed trace records that were wrong-path (the
    /// paper measures ≈ 10 % on average).
    pub fn wrong_path_fraction(&self) -> f64 {
        let total = self.trace_records_consumed();
        if total == 0 {
            0.0
        } else {
            (self.wrong_path_fetched + self.wrong_path_discarded) as f64 / total as f64
        }
    }

    /// Mean IFQ occupancy.
    pub fn avg_ifq_occupancy(&self) -> f64 {
        self.avg(self.ifq_occupancy_sum)
    }

    /// Mean RB occupancy.
    pub fn avg_rb_occupancy(&self) -> f64 {
        self.avg(self.rb_occupancy_sum)
    }

    /// Mean LSQ occupancy.
    pub fn avg_lsq_occupancy(&self) -> f64 {
        self.avg(self.lsq_occupancy_sum)
    }

    fn avg(&self, sum: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            sum as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch direction mispredict rate (mispredicted /
    /// conditional branches predicted).
    pub fn mispredict_rate(&self) -> f64 {
        ratio(self.predictor.dir_mispredicts, self.predictor.cond_branches)
    }

    /// L1 instruction-cache miss rate (0 under perfect memory).
    pub fn il1_miss_rate(&self) -> f64 {
        ratio(self.memory.l1i.misses(), self.memory.l1i.accesses())
    }

    /// L1 data-cache miss rate (0 under perfect memory).
    pub fn dl1_miss_rate(&self) -> f64 {
        ratio(self.memory.l1d.misses(), self.memory.l1d.accesses())
    }

    /// Renders the derived-rates section of the report: ratios computed
    /// from the raw counters, in the same `{key:<28} {value}` layout.
    pub fn derived_rates(&self) -> String {
        let mut s = String::new();
        let mut line = |k: &str, v: String| s.push_str(&format!("{k:<28} {v}\n"));
        line("rate_ipc", format!("{:.4}", self.ipc()));
        line(
            "rate_processed_per_cycle",
            format!("{:.4}", self.processed_per_cycle()),
        );
        line(
            "rate_wrong_path",
            format!("{:.4}", self.wrong_path_fraction()),
        );
        line(
            "rate_branch_mispredict",
            format!("{:.4}", self.mispredict_rate()),
        );
        line("rate_il1_miss", format!("{:.4}", self.il1_miss_rate()));
        line("rate_dl1_miss", format!("{:.4}", self.dl1_miss_rate()));
        s
    }

    /// Renders peak-utilization lines — occupancy maxima as a percentage
    /// of the configured structure sizes — for the derived-rates section
    /// (the sizes live in the engine configuration, not the statistics).
    pub fn utilization_report(&self, ifq_size: usize, rb_size: usize, lsq_size: usize) -> String {
        let mut s = String::new();
        let mut line = |k: &str, max: u64, size: usize| {
            let pct = 100.0 * ratio(max, size as u64);
            s.push_str(&format!("{k:<28} {pct:.1}% ({max} of {size})\n"));
        };
        line("util_ifq_peak", self.ifq_occupancy_max, ifq_size);
        line("util_rb_peak", self.rb_occupancy_max, rb_size);
        line("util_lsq_peak", self.lsq_occupancy_max, lsq_size);
        s
    }

    /// Renders a `sim-outorder`-style statistics dump.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let mut line = |k: &str, v: String| s.push_str(&format!("{k:<28} {v}\n"));
        line("sim_cycle", self.cycles.to_string());
        line("sim_minor_cycle", self.minor_cycles.to_string());
        line("sim_num_insn", self.committed.to_string());
        line("sim_IPC", format!("{:.4}", self.ipc()));
        line("sim_num_loads", self.committed_loads.to_string());
        line("sim_num_stores", self.committed_stores.to_string());
        line("sim_num_branches", self.committed_branches.to_string());
        line("fetch_num_insn", self.fetched.to_string());
        line("fetch_wrong_path", self.wrong_path_fetched.to_string());
        line("fetch_discarded", self.wrong_path_discarded.to_string());
        line("recovery_count", self.mispredict_recoveries.to_string());
        line("misfetch_count", self.misfetches.to_string());
        line("squashed_insn", self.squashed.to_string());
        line("lsq_forwards", self.load_forwards.to_string());
        line(
            "ifq_occupancy_avg",
            format!("{:.3}", self.avg_ifq_occupancy()),
        );
        line(
            "rb_occupancy_avg",
            format!("{:.3}", self.avg_rb_occupancy()),
        );
        line(
            "lsq_occupancy_avg",
            format!("{:.3}", self.avg_lsq_occupancy()),
        );
        line("ifq_occupancy_max", self.ifq_occupancy_max.to_string());
        line("rb_occupancy_max", self.rb_occupancy_max.to_string());
        line("lsq_occupancy_max", self.lsq_occupancy_max.to_string());
        line(
            "bpred_addr_rate",
            format!("{:.4}", self.predictor.address_accuracy()),
        );
        line(
            "bpred_dir_rate",
            format!("{:.4}", self.predictor.cond_accuracy()),
        );
        line("il1_accesses", self.memory.l1i.accesses().to_string());
        line("il1_hit_rate", format!("{:.4}", self.memory.l1i.hit_rate()));
        line("dl1_accesses", self.memory.l1d.accesses().to_string());
        line("dl1_hit_rate", format!("{:.4}", self.memory.l1d.hit_rate()));
        s.push_str("# derived rates\n");
        s.push_str(&self.derived_rates());
        s
    }
}

/// `num / den` with a zero denominator mapping to 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_on_empty_stats_are_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.processed_per_cycle(), 0.0);
        assert_eq!(s.wrong_path_fraction(), 0.0);
        assert_eq!(s.avg_rb_occupancy(), 0.0);
    }

    #[test]
    fn derived_rates() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            wrong_path_fetched: 40,
            wrong_path_discarded: 10,
            rb_occupancy_sum: 800,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(s.trace_records_consumed(), 300);
        assert!((s.processed_per_cycle() - 3.0).abs() < 1e-12);
        assert!((s.wrong_path_fraction() - 50.0 / 300.0).abs() < 1e-12);
        assert!((s.avg_rb_occupancy() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn recosting_touches_only_minor_cycles_and_commutes_with_merge() {
        let a = SimStats {
            cycles: 100,
            minor_cycles: 700,
            committed: 250,
            ..SimStats::default()
        };
        let b = SimStats {
            cycles: 40,
            committed: 90,
            ..SimStats::default()
        };
        let simple = a.with_minor_cycle_cost(11);
        assert_eq!(simple.minor_cycles, 1_100);
        assert_eq!(
            SimStats {
                minor_cycles: a.minor_cycles,
                ..simple
            },
            a
        );
        assert_eq!(
            a.merge(&b).with_minor_cycle_cost(11),
            a.with_minor_cycle_cost(11)
                .merge(&b.with_minor_cycle_cost(11))
        );
    }

    #[test]
    fn covers_needs_the_same_machine_and_unfilled_queues() {
        let ran = EngineConfig {
            rb_size: 64,
            ..EngineConfig::paper_4wide()
        };
        let stats = SimStats {
            ifq_occupancy_max: 16,
            rb_occupancy_max: 40,
            lsq_occupancy_max: 8,
            ..SimStats::default()
        };
        let with = |f: fn(&mut EngineConfig)| {
            let mut c = ran.clone();
            f(&mut c);
            c
        };
        assert!(stats.covers(&ran, &ran));
        assert!(stats.covers(&ran, &with(|c| c.rb_size = 41)));
        assert!(stats.covers(&ran, &with(|c| c.rb_size = 256)));
        assert!(stats.covers(
            &ran,
            &with(|c| c.pipeline = crate::PipelineDescription::simple())
        ));
        // At its maximum the RB would have filled; the IFQ and LSQ did.
        assert!(!stats.covers(&ran, &with(|c| c.rb_size = 40)));
        assert!(!stats.covers(&ran, &with(|c| c.ifq_size = 17)));
        assert!(!stats.covers(&ran, &with(|c| c.lsq_size = 9)));
        // Any other field is a different machine.
        assert!(!stats.covers(&ran, &with(|c| c.width = 2)));
        assert!(!stats.covers(&ran, &with(|c| c.misfetch_penalty = 4)));
        assert!(!stats.covers(
            &ran,
            &with(|c| c.memory = resim_mem::MemorySystemConfig::l1_32k())
        ));
    }

    #[test]
    fn merge_adds_counts_and_maxes_occupancy() {
        let a = SimStats {
            cycles: 100,
            committed: 250,
            committed_loads: 40,
            rb_occupancy_sum: 800,
            rb_occupancy_max: 12,
            lsq_occupancy_max: 3,
            ..SimStats::default()
        };
        let b = SimStats {
            cycles: 50,
            committed: 50,
            committed_loads: 5,
            rb_occupancy_sum: 100,
            rb_occupancy_max: 7,
            lsq_occupancy_max: 8,
            ..SimStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.cycles, 150);
        assert_eq!(m.committed, 300);
        assert_eq!(m.committed_loads, 45);
        assert_eq!(m.rb_occupancy_sum, 900);
        assert_eq!(m.rb_occupancy_max, 12, "maxima take the max");
        assert_eq!(m.lsq_occupancy_max, 8);
        assert!((m.ipc() - 2.0).abs() < 1e-12);
        // Identity and symmetry.
        assert_eq!(a.merge(&SimStats::default()), a);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn words_roundtrip_every_field() {
        // A stats block where every field holds a distinct value: the
        // roundtrip catches any swapped or dropped field.
        let words: Vec<u64> = (1..=SIM_STATS_FIELDS.len() as u64).collect();
        let s = SimStats::from_words(&words).unwrap();
        assert_eq!(s.to_words(), words);
        assert_eq!(s.cycles, 1);
        assert_eq!(s.lsq_occupancy_max, 23);
        assert_eq!(s.predictor.branches, 24);
        assert_eq!(s.memory.l1i.reads, 31);
        assert_eq!(s.memory.perfect_data_accesses, 42);
        assert_eq!(SimStats::from_words(&words[1..]), None);
        assert_eq!(
            SimStats::default().to_words(),
            vec![0; SIM_STATS_FIELDS.len()]
        );
    }

    #[test]
    fn digest_is_sensitive_to_every_field() {
        let base = SimStats::default();
        let base_digest = base.digest();
        for i in 0..SIM_STATS_FIELDS.len() {
            let mut words = base.to_words();
            words[i] += 1;
            let bumped = SimStats::from_words(&words).unwrap();
            assert_ne!(
                bumped.digest(),
                base_digest,
                "digest must react to {}",
                SIM_STATS_FIELDS[i]
            );
        }
        // Deterministic across calls.
        assert_eq!(base.digest(), SimStats::default().digest());
    }

    #[test]
    fn report_contains_key_counters() {
        let s = SimStats {
            cycles: 10,
            committed: 20,
            ..SimStats::default()
        };
        let r = s.report();
        assert!(r.contains("sim_num_insn"));
        assert!(r.contains("sim_IPC"));
        assert!(r.contains("2.0000"));
        assert!(r.contains("bpred_dir_rate"));
        assert!(r.contains("# derived rates"));
        assert!(r.contains("rate_branch_mispredict"));
    }

    #[test]
    fn derived_rate_methods_guard_zero_denominators() {
        let empty = SimStats::default();
        assert_eq!(empty.mispredict_rate(), 0.0);
        assert_eq!(empty.il1_miss_rate(), 0.0);
        assert_eq!(empty.dl1_miss_rate(), 0.0);
        let mut s = SimStats::default();
        s.predictor.cond_branches = 8;
        s.predictor.dir_mispredicts = 2;
        assert!((s.mispredict_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_report_shows_peaks_against_sizes() {
        let s = SimStats {
            ifq_occupancy_max: 8,
            rb_occupancy_max: 16,
            lsq_occupancy_max: 2,
            ..SimStats::default()
        };
        let u = s.utilization_report(16, 16, 8);
        assert!(u.contains("util_ifq_peak"));
        assert!(u.contains("50.0% (8 of 16)"));
        assert!(u.contains("100.0% (16 of 16)"));
        assert!(u.contains("25.0% (2 of 8)"));
    }
}
