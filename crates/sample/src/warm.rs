//! The functional warmer: the cheap mode between detailed windows.
//!
//! Where the timing engine replays every record through a full
//! out-of-order pipeline, the warmer touches only the long-lived
//! microarchitectural state — branch-direction tables, BTB, RAS and cache
//! tag arrays — through the stats-silent `warm_record` entry points of
//! `resim-bpred` and `resim-mem`. There is no IFQ, no reorder buffer, no
//! issue logic and no cycle accounting, which is what makes it an order
//! of magnitude cheaper per record than detailed simulation.
//!
//! The warmer owns the live predictor and memory system of a sampled
//! run. At each sampling point they move into the detailed engine
//! ([`Engine::resume`](resim_core::Engine::resume)) and come back after
//! the window ([`Engine::into_warm`](resim_core::Engine::into_warm)), so
//! the window's training and wrong-path pollution carry forward with no
//! copy of any table.

use resim_bpred::BranchPredictor;
use resim_core::{EngineConfig, DEFAULT_BATCH};
use resim_mem::MemorySystem;
use resim_trace::{OpClass, OtherRecord, TraceRecord, TraceSource};

/// Cold-start functional warm state for one engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalWarmer {
    predictor: BranchPredictor,
    memory: MemorySystem,
}

impl FunctionalWarmer {
    /// Cold tables for `config`'s predictor and memory system.
    pub fn new(config: &EngineConfig) -> Self {
        Self {
            predictor: BranchPredictor::new(config.predictor),
            memory: MemorySystem::new(config.memory),
        }
    }

    /// A warmer around a live predictor and memory system, typically
    /// the pair a detailed window handed back through
    /// [`Engine::into_warm`](resim_core::Engine::into_warm).
    pub fn from_parts(predictor: BranchPredictor, memory: MemorySystem) -> Self {
        Self { predictor, memory }
    }

    /// Hands the live predictor and memory system out, for
    /// [`Engine::resume`](resim_core::Engine::resume).
    pub fn into_parts(self) -> (BranchPredictor, MemorySystem) {
        (self.predictor, self.memory)
    }

    /// Warms one record: branches train the predictor/BTB/RAS, every
    /// record touches the I-cache, memory records touch the D-cache.
    ///
    /// Wrong-path records are ignored — functional warming models the
    /// committed stream; speculative pollution re-enters through the
    /// detailed windows' own wrong-path execution.
    pub fn warm_record(&mut self, record: &TraceRecord) {
        if record.wrong_path() {
            return;
        }
        self.predictor.warm_record(record);
        self.memory.warm_record(record);
    }

    /// Pulls up to `n` records from `source` and warms each; returns how
    /// many were pulled (less than `n` only at end of trace).
    ///
    /// Records arrive through [`TraceSource::fill`] in blocks of at most
    /// [`DEFAULT_BATCH`], never past the `n`-th.
    pub fn warm_from(&mut self, source: &mut impl TraceSource, n: u64) -> u64 {
        let mut buf = [TraceRecord::Other(OtherRecord {
            pc: 0,
            class: OpClass::Nop,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: false,
        }); DEFAULT_BATCH];
        let mut pulled = 0;
        while pulled < n {
            let want = (n - pulled).min(DEFAULT_BATCH as u64) as usize;
            let got = source.fill(&mut buf[..want]);
            for r in &buf[..got] {
                self.warm_record(r);
            }
            pulled += got as u64;
            if got < want {
                break;
            }
        }
        pulled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_core::Engine;
    use resim_mem::MemorySystemConfig;

    fn cached_config() -> EngineConfig {
        EngineConfig {
            memory: MemorySystemConfig::l1_32k(),
            ..EngineConfig::paper_4wide()
        }
    }

    #[test]
    fn warm_state_moves_through_an_engine_and_back() {
        use resim_trace::{BranchKind, BranchRecord};
        let config = cached_config();
        let mut w = FunctionalWarmer::new(&config);
        for i in 0..200u32 {
            w.warm_record(&TraceRecord::Branch(BranchRecord {
                pc: 0x100 + (i % 16) * 4,
                target: 0x800,
                taken: true,
                kind: BranchKind::Cond,
                src1: None,
                src2: None,
                wrong_path: false,
            }));
        }
        assert_ne!(
            w,
            FunctionalWarmer::new(&config),
            "the branches trained tables"
        );
        let before = w.clone();
        let (predictor, memory) = w.into_parts();
        let engine = Engine::resume(config, predictor, memory).expect("configs match");
        let (predictor, memory) = engine.into_warm();
        // An engine that ran nothing hands back exactly what it took.
        assert_eq!(FunctionalWarmer::from_parts(predictor, memory), before);
    }

    #[test]
    fn wrong_path_records_do_not_warm() {
        use resim_trace::{OpClass, OtherRecord};
        let config = cached_config();
        let mut w = FunctionalWarmer::new(&config);
        let cold = w.clone();
        w.warm_record(&TraceRecord::Other(OtherRecord {
            pc: 0x4000,
            class: OpClass::IntAlu,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: true,
        }));
        assert_eq!(w, cold);
    }

    #[test]
    fn warm_from_stops_at_end_of_trace() {
        use resim_trace::SliceSource;
        use resim_trace::{OpClass, OtherRecord};
        let records: Vec<TraceRecord> = (0..10u32)
            .map(|i| {
                TraceRecord::Other(OtherRecord {
                    pc: i * 4,
                    class: OpClass::IntAlu,
                    dest: None,
                    src1: None,
                    src2: None,
                    wrong_path: false,
                })
            })
            .collect();
        let mut src = SliceSource::new(&records);
        let mut w = FunctionalWarmer::new(&cached_config());
        assert_eq!(w.warm_from(&mut src, 4), 4);
        assert_eq!(w.warm_from(&mut src, 100), 6);
        assert_eq!(w.warm_from(&mut src, 1), 0);
    }
}
