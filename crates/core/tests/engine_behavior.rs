//! Behavioral tests of the engine over hand-built and generated traces —
//! the former `engine.rs` unit tests, now exercising the public API of
//! the stage-graph engine.

use resim_core::{
    ConfigError, Engine, EngineConfig, FuConfig, PipelineDescription, SimStats, TraceCursor,
};
use resim_trace::{
    BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg, Trace,
    TraceRecord,
};

fn alu(pc: u32, dest: u8, src1: Option<u8>, src2: Option<u8>) -> TraceRecord {
    TraceRecord::Other(OtherRecord {
        pc,
        class: OpClass::IntAlu,
        dest: Some(Reg::new(dest)),
        src1: src1.map(Reg::new),
        src2: src2.map(Reg::new),
        wrong_path: false,
    })
}

fn run_trace(records: Vec<TraceRecord>, config: EngineConfig) -> SimStats {
    let trace = Trace::from_records(records);
    let mut e = Engine::new(config).unwrap();
    e.run(trace.source())
}

fn seq_pcs(n: usize) -> impl Iterator<Item = u32> {
    (0..n as u32).map(|i| 0x1000 + i * 4)
}

#[test]
fn empty_trace_finishes_immediately() {
    let s = run_trace(vec![], EngineConfig::paper_4wide());
    assert_eq!(s.committed, 0);
    assert!(s.cycles <= 1);
}

#[test]
fn independent_alus_reach_full_width() {
    // 4 independent ALU streams: IPC should approach the width.
    let recs: Vec<TraceRecord> = seq_pcs(8000)
        .enumerate()
        .map(|(i, pc)| alu(pc, (8 + (i % 4)) as u8, None, None))
        .collect();
    let s = run_trace(recs, EngineConfig::paper_4wide());
    assert_eq!(s.committed, 8000);
    assert!(s.ipc() > 3.5, "independent ALU IPC was {}", s.ipc());
    assert!(s.ipc() <= 4.0 + 1e-9);
}

#[test]
fn serial_dependence_chain_limits_ipc_to_one() {
    // Every instruction depends on the previous one.
    let recs: Vec<TraceRecord> = seq_pcs(4000).map(|pc| alu(pc, 9, Some(9), None)).collect();
    let s = run_trace(recs, EngineConfig::paper_4wide());
    assert_eq!(s.committed, 4000);
    assert!(
        s.ipc() > 0.9 && s.ipc() <= 1.05,
        "dependent-chain IPC was {}",
        s.ipc()
    );
}

#[test]
fn divider_chain_costs_its_latency() {
    // Dependent divides: ~10 cycles each on the unpipelined divider.
    let recs: Vec<TraceRecord> = seq_pcs(400)
        .map(|pc| {
            TraceRecord::Other(OtherRecord {
                pc,
                class: OpClass::IntDiv,
                dest: Some(Reg::new(9)),
                src1: Some(Reg::new(9)),
                src2: None,
                wrong_path: false,
            })
        })
        .collect();
    let s = run_trace(recs, EngineConfig::paper_4wide());
    let cpi = s.cycles as f64 / s.committed as f64;
    assert!((9.0..12.0).contains(&cpi), "dependent divide CPI was {cpi}");
}

#[test]
fn conservation_fetched_equals_committed_plus_squashed_wrong_path() {
    use resim_tracegen::{generate_trace, TraceGenConfig};
    use resim_workloads::{SpecBenchmark, Workload};
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Vpr, 3),
        30_000,
        &TraceGenConfig::paper(),
    );
    let s = run_trace(trace.records().to_vec(), EngineConfig::paper_4wide());
    assert_eq!(s.committed, 30_000);
    assert_eq!(
        s.fetched,
        s.committed + s.wrong_path_fetched,
        "every fetched instruction either commits or was wrong-path"
    );
    assert_eq!(
        s.trace_records_consumed(),
        trace.len() as u64,
        "all trace records are consumed (fetched or discarded)"
    );
    assert!(s.mispredict_recoveries > 0, "vpr must mispredict");
}

#[test]
fn store_load_forwarding_is_used() {
    // store to X, immediately load from X, repeatedly.
    let mut recs = Vec::new();
    for i in 0..500u32 {
        let pc = 0x1000 + i * 8;
        recs.push(TraceRecord::Mem(MemRecord {
            pc,
            addr: 0x8000,
            size: MemSize::Word,
            kind: MemKind::Store,
            base: None,
            data: Some(Reg::new(9)),
            wrong_path: false,
        }));
        recs.push(TraceRecord::Mem(MemRecord {
            pc: pc + 4,
            addr: 0x8000,
            size: MemSize::Word,
            kind: MemKind::Load,
            base: None,
            data: Some(Reg::new(10)),
            wrong_path: false,
        }));
    }
    let s = run_trace(recs, EngineConfig::paper_4wide());
    assert!(s.load_forwards > 400, "forwards: {}", s.load_forwards);
}

#[test]
fn rb_capacity_limits_inflight_window() {
    // Long-latency producer + many dependents: occupancy approaches
    // RB size, and dispatch stalls on a full RB are recorded.
    let mut recs = Vec::new();
    for i in 0..200u32 {
        let pc = 0x1000 + i * 4 * 40;
        recs.push(TraceRecord::Other(OtherRecord {
            pc,
            class: OpClass::IntDiv,
            dest: Some(Reg::new(9)),
            src1: Some(Reg::new(9)),
            src2: None,
            wrong_path: false,
        }));
        for j in 1..40u32 {
            recs.push(alu(pc + j * 4, 10, Some(9), None));
        }
    }
    let s = run_trace(recs, EngineConfig::paper_4wide());
    assert!(s.dispatch_stall_rb > 0, "RB pressure must cause stalls");
    assert!(s.avg_rb_occupancy() > 8.0);
}

#[test]
fn misfetch_penalty_slows_cold_jumps() {
    // A chain of cold indirect jumps: each one misfetches.
    let mut recs = Vec::new();
    for i in 0..300u32 {
        let pc = 0x1000 + i * 0x100;
        recs.push(TraceRecord::Branch(BranchRecord {
            pc,
            target: pc + 0x100,
            taken: true,
            kind: BranchKind::IndirectJump,
            src1: None,
            src2: None,
            wrong_path: false,
        }));
    }
    let s = run_trace(recs, EngineConfig::paper_4wide());
    assert!(s.misfetches > 250, "misfetches: {}", s.misfetches);
    let cpi = s.cycles as f64 / s.committed as f64;
    assert!(cpi > 3.0, "misfetch bubbles must dominate, CPI {cpi}");
}

#[test]
fn perfect_predictor_never_misfetches() {
    let mut recs = Vec::new();
    for i in 0..300u32 {
        let pc = 0x1000 + i * 0x100;
        recs.push(TraceRecord::Branch(BranchRecord {
            pc,
            target: pc + 0x100,
            taken: true,
            kind: BranchKind::IndirectJump,
            src1: None,
            src2: None,
            wrong_path: false,
        }));
    }
    let cfg = EngineConfig {
        predictor: resim_bpred::PredictorConfig::perfect(),
        ..EngineConfig::paper_4wide()
    };
    let s = run_trace(recs, cfg);
    assert_eq!(s.misfetches, 0);
}

#[test]
fn wrong_path_instructions_never_commit() {
    use resim_tracegen::{generate_trace, TraceGenConfig};
    use resim_workloads::{SpecBenchmark, Workload};
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Parser, 5),
        20_000,
        &TraceGenConfig::paper(),
    );
    let s = run_trace(trace.records().to_vec(), EngineConfig::paper_4wide());
    // committed == correct-path records exactly.
    assert_eq!(s.committed, trace.correct_path_len() as u64);
}

#[test]
fn cached_config_is_slower_than_perfect_memory() {
    use resim_tracegen::{generate_trace, TraceGenConfig};
    use resim_workloads::{SpecBenchmark, Workload};
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Bzip2, 5),
        30_000,
        &TraceGenConfig::perfect(),
    );
    let perfect = run_trace(
        trace.records().to_vec(),
        EngineConfig {
            predictor: resim_bpred::PredictorConfig::perfect(),
            ..EngineConfig::paper_4wide()
        },
    );
    let cached = run_trace(
        trace.records().to_vec(),
        EngineConfig {
            predictor: resim_bpred::PredictorConfig::perfect(),
            memory: resim_mem::MemorySystemConfig::l1_32k(),
            pipeline: PipelineDescription::improved(),
            ..EngineConfig::paper_4wide()
        },
    );
    assert!(
        perfect.ipc() > cached.ipc(),
        "perfect {} vs cached {}",
        perfect.ipc(),
        cached.ipc()
    );
}

#[test]
fn wider_machine_is_not_slower() {
    use resim_tracegen::{generate_trace, TraceGenConfig};
    use resim_workloads::{SpecBenchmark, Workload};
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 6),
        30_000,
        &TraceGenConfig::paper(),
    );
    let narrow = run_trace(
        trace.records().to_vec(),
        EngineConfig {
            width: 2,
            fus: FuConfig {
                alus: 2,
                ..Default::default()
            },
            mem_read_ports: 1,
            ..EngineConfig::paper_4wide()
        },
    );
    let wide = run_trace(trace.records().to_vec(), EngineConfig::paper_4wide());
    assert!(
        wide.ipc() >= narrow.ipc() * 0.98,
        "wide {} vs narrow {}",
        wide.ipc(),
        narrow.ipc()
    );
}

#[test]
fn determinism() {
    use resim_tracegen::{generate_trace, TraceGenConfig};
    use resim_workloads::{SpecBenchmark, Workload};
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Vortex, 7),
        20_000,
        &TraceGenConfig::paper(),
    );
    let a = run_trace(trace.records().to_vec(), EngineConfig::paper_4wide());
    let b = run_trace(trace.records().to_vec(), EngineConfig::paper_4wide());
    assert_eq!(a, b);
}

#[test]
fn windowed_run_is_bit_identical_to_one_run() {
    use resim_tracegen::{generate_trace, TraceGenConfig};
    use resim_workloads::{SpecBenchmark, Workload};
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Parser, 11),
        25_000,
        &TraceGenConfig::paper(),
    );
    let full = run_trace(trace.records().to_vec(), EngineConfig::paper_4wide());

    for window in [1u64, 777, 5_000, 1 << 40] {
        let mut engine = Engine::new(EngineConfig::paper_4wide()).unwrap();
        let mut cursor = TraceCursor::new(trace.source());
        let mut last_consumed = u64::MAX;
        while cursor.consumed() != last_consumed {
            last_consumed = cursor.consumed();
            engine.run_window(&mut cursor, window);
        }
        let windowed = engine.drain(&mut cursor);
        assert_eq!(windowed, full, "window={window} must replay run exactly");
        assert_eq!(cursor.consumed(), trace.len() as u64);
    }
}

#[test]
fn window_stats_deltas_merge_back_to_the_full_run() {
    use resim_tracegen::{generate_trace, TraceGenConfig};
    use resim_workloads::{SpecBenchmark, Workload};
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 3),
        12_000,
        &TraceGenConfig::paper(),
    );
    let full = run_trace(trace.records().to_vec(), EngineConfig::paper_4wide());

    // Cut the same run into 1k-record windows and re-merge the deltas.
    let mut engine = Engine::new(EngineConfig::paper_4wide()).unwrap();
    let mut cursor = TraceCursor::new(trace.source());
    let mut merged = SimStats::default();
    let mut prev = SimStats::default();
    loop {
        let before = cursor.consumed();
        engine.run_window(&mut cursor, 1_000);
        if cursor.consumed() == before {
            break;
        }
        let now = engine.stats();
        // Counts become deltas; maxima are already cumulative maxima,
        // so merging the snapshots' maxima is a max over windows too.
        let delta = SimStats {
            cycles: now.cycles - prev.cycles,
            committed: now.committed - prev.committed,
            rb_occupancy_max: now.rb_occupancy_max,
            ..SimStats::default()
        };
        prev = now;
        merged = merged.merge(&delta);
    }
    let fin = engine.drain(&mut cursor);
    let tail = SimStats {
        cycles: fin.cycles - prev.cycles,
        committed: fin.committed - prev.committed,
        ..SimStats::default()
    };
    merged = merged.merge(&tail);
    assert_eq!(merged.cycles, full.cycles);
    assert_eq!(merged.committed, full.committed);
    assert_eq!(merged.rb_occupancy_max, full.rb_occupancy_max);
}

#[test]
fn resume_replays_identically_on_warm_state() {
    use resim_tracegen::{generate_trace, TraceGenConfig};
    use resim_workloads::{SpecBenchmark, Workload};
    let config = EngineConfig {
        memory: resim_mem::MemorySystemConfig::l1_32k(),
        ..EngineConfig::paper_4wide()
    };
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Bzip2, 9),
        10_000,
        &TraceGenConfig::paper(),
    );
    // Warm an engine on the trace and take its predictor and caches: two
    // engines resumed from clones of that pair must agree bit-for-bit on
    // a second trace.
    let mut warm = Engine::new(config.clone()).unwrap();
    let warm_stats = warm.run(trace.source());
    let (predictor, memory) = warm.into_warm();

    let probe = generate_trace(
        Workload::spec(SpecBenchmark::Bzip2, 10),
        5_000,
        &TraceGenConfig::paper(),
    );
    let mut a = Engine::resume(config.clone(), predictor.clone(), memory.clone()).unwrap();
    let mut b = Engine::resume(config.clone(), predictor, memory).unwrap();
    let sa = a.run(probe.source());
    let sb = b.run(probe.source());
    assert_eq!(sa, sb);
    // Warm state matters: a cold engine behaves differently.
    let cold = Engine::new(config).unwrap().run(probe.source());
    assert_ne!(sa, cold, "the moved objects must carry real warm state");
    // Resumed stats start from zero (composability): the predictor and
    // I-cache counters count only this window's fetches, not the warm
    // run's.
    assert_eq!(sa.committed, 5_000);
    assert_eq!(sa.predictor.branches, sa.committed_branches);
    assert_eq!(sa.memory.l1i.accesses(), sa.fetched);
    assert!(warm_stats.memory.l1i.accesses() > sa.memory.l1i.accesses());
}

#[test]
fn resume_rejects_mismatched_config() {
    let (gshare, perfect_mem) = Engine::new(EngineConfig {
        predictor: resim_bpred::PredictorConfig::gshare(4, 256),
        ..EngineConfig::paper_4wide()
    })
    .unwrap()
    .into_warm();
    let (paper, _) = Engine::new(EngineConfig::paper_4wide())
        .unwrap()
        .into_warm();
    let err = Engine::resume(EngineConfig::paper_4wide(), gshare, perfect_mem.clone());
    assert!(matches!(err, Err(ConfigError::WarmStateMismatch)));
    let cached = EngineConfig {
        memory: resim_mem::MemorySystemConfig::l1_32k(),
        ..EngineConfig::paper_4wide()
    };
    assert!(matches!(
        Engine::resume(cached, paper.clone(), perfect_mem.clone()),
        Err(ConfigError::WarmStateMismatch)
    ));
    assert!(Engine::resume(EngineConfig::paper_4wide(), paper, perfect_mem).is_ok());
}
