//! Golden regression fixture: the full [`SimStats`] of two reference
//! configurations over a fixed 10k-instruction gzip trace, pinned
//! field-for-field.
//!
//! These literals were produced by the pre-stage-split engine; the test
//! exists so that any restructuring of the engine (the stage-graph
//! refactor, the batched trace frontend, scheduler changes) is
//! mechanically checked to be **behavior-preserving** — bit-identical
//! simulated output, not merely "close". If a change is *meant* to alter
//! simulated timing, the new numbers must be re-pinned deliberately and
//! called out in review; this fixture turns silent drift into a red test.
//!
//! Both fixtures run a 16-entry RB. [`WINDOW_PINS`] adds the digest,
//! cycles and commits of wider and narrower windows, recorded on the
//! polling RB/LSQ before the event-driven wakeup replaced it: bitset and
//! ring bugs hide at the 64-slot word boundary and at wrap-around.
//! [`FORWARD_PINS`] does the same for store-to-load forwarding over a
//! synthetic aliasing trace, which the gzip trace never exercises.

use resim_bpred::PredictorStats;
use resim_core::{Engine, EngineConfig, PipelineDescription, SimStats};
use resim_mem::{CacheStats, MemorySystemStats};
use resim_trace::{
    BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg, Trace,
    TraceRecord,
};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

/// The fixed workload: gzip, seed 2009 (the bench harness default),
/// 10 000 correct-path instructions under the paper's trace generator.
fn golden_trace() -> Trace {
    generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 2009),
        10_000,
        &TraceGenConfig::paper(),
    )
}

/// The cached-memory configuration: the 4-wide reference machine in
/// front of split 32K L1 caches on the improved `N+4` pipeline.
fn cached_config() -> EngineConfig {
    EngineConfig {
        memory: resim_mem::MemorySystemConfig::l1_32k(),
        pipeline: PipelineDescription::improved(),
        ..EngineConfig::paper_4wide()
    }
}

fn expected_perfect() -> SimStats {
    SimStats {
        cycles: 4746,
        minor_cycles: 33222,
        committed: 10000,
        fetched: 10719,
        wrong_path_fetched: 719,
        wrong_path_discarded: 273,
        committed_loads: 1925,
        committed_stores: 763,
        committed_branches: 799,
        mispredict_recoveries: 31,
        misfetches: 4,
        squashed: 719,
        dispatch_stall_rb: 3159,
        dispatch_stall_lsq: 0,
        fetch_stall_cycles: 105,
        load_forwards: 0,
        issued: 10151,
        ifq_occupancy_sum: 70078,
        rb_occupancy_sum: 73247,
        lsq_occupancy_sum: 19963,
        ifq_occupancy_max: 16,
        rb_occupancy_max: 16,
        lsq_occupancy_max: 8,
        predictor: PredictorStats {
            branches: 799,
            cond_branches: 799,
            correct: 764,
            misfetches: 4,
            dir_mispredicts: 31,
            ras_predictions: 0,
            ras_correct: 0,
        },
        memory: MemorySystemStats {
            l1i: CacheStats::default(),
            l1d: CacheStats::default(),
            perfect_inst_accesses: 10719,
            perfect_data_accesses: 2723,
        },
    }
}

fn expected_cached() -> SimStats {
    SimStats {
        cycles: 8134,
        minor_cycles: 65072,
        committed: 10000,
        fetched: 10762,
        wrong_path_fetched: 762,
        wrong_path_discarded: 230,
        committed_loads: 1925,
        committed_stores: 763,
        committed_branches: 799,
        mispredict_recoveries: 31,
        misfetches: 5,
        squashed: 762,
        dispatch_stall_rb: 6548,
        dispatch_stall_lsq: 0,
        fetch_stall_cycles: 215,
        load_forwards: 0,
        issued: 10198,
        ifq_occupancy_sum: 123214,
        rb_occupancy_sum: 126375,
        lsq_occupancy_sum: 35562,
        ifq_occupancy_max: 16,
        rb_occupancy_max: 16,
        lsq_occupancy_max: 8,
        predictor: PredictorStats {
            branches: 799,
            cond_branches: 799,
            correct: 763,
            misfetches: 5,
            dir_mispredicts: 31,
            ras_predictions: 0,
            ras_correct: 0,
        },
        memory: MemorySystemStats {
            l1i: CacheStats {
                reads: 10762,
                writes: 0,
                read_hits: 10756,
                write_hits: 0,
                evictions: 0,
            },
            l1d: CacheStats {
                reads: 1975,
                writes: 763,
                read_hits: 1727,
                write_hits: 670,
                evictions: 0,
            },
            perfect_inst_accesses: 0,
            perfect_data_accesses: 0,
        },
    }
}

#[test]
fn paper_4wide_stats_are_bit_identical_to_the_pinned_fixture() {
    let trace = golden_trace();
    let stats = Engine::new(EngineConfig::paper_4wide())
        .unwrap()
        .run(trace.source());
    assert_eq!(
        stats,
        expected_perfect(),
        "paper_4wide over the golden gzip trace drifted from the fixture"
    );
}

#[test]
fn cached_memory_stats_are_bit_identical_to_the_pinned_fixture() {
    let trace = golden_trace();
    let stats = Engine::new(cached_config()).unwrap().run(trace.source());
    assert_eq!(
        stats,
        expected_cached(),
        "cached-memory config over the golden gzip trace drifted from the fixture"
    );
}

#[test]
fn golden_run_replays_identically_from_the_encoded_stream() {
    // The same fixture must hold when the engine pulls from the bit-packed
    // codec stream instead of the record slice — the two frontends feed
    // the engine the same record sequence.
    let trace = golden_trace();
    let encoded = trace.encode();
    let stats = Engine::new(EngineConfig::paper_4wide())
        .unwrap()
        .run(encoded.source());
    assert_eq!(stats, expected_perfect());
}

/// One wide-window pin: `(rb_size, lsq_size, cached memory?)` →
/// `(SimStats::digest(), cycles, committed)` over the golden trace.
type WindowPin = ((usize, usize, bool), (u64, u64, u64));

/// Pins across RB sizes that straddle the wakeup/select structures'
/// edges — an RB as small as one dispatch group (4), both sides of the
/// 64-slot word boundary (63, 64, 65), and windows that wrap a second
/// word (96, 200) — for two LSQ sizes on both memory systems.
const WINDOW_PINS: &[WindowPin] = &[
    ((4, 8, false), (0x910a448990116a08, 8300, 10000)),
    ((63, 8, false), (0x2ae70131924218fe, 3992, 10000)),
    ((64, 8, false), (0x2ae70131924218fe, 3992, 10000)),
    ((65, 8, false), (0x2ae70131924218fe, 3992, 10000)),
    ((96, 8, false), (0x2ae70131924218fe, 3992, 10000)),
    ((200, 8, false), (0x2ae70131924218fe, 3992, 10000)),
    ((4, 32, false), (0x910a448990116a08, 8300, 10000)),
    ((63, 32, false), (0x2d906286ee06e92e, 3537, 10000)),
    ((64, 32, false), (0xa55281b501ca1411, 3538, 10000)),
    ((65, 32, false), (0x575f993bb919fdf0, 3533, 10000)),
    ((96, 32, false), (0x29b74d7d812002ff, 3511, 10000)),
    ((200, 32, false), (0xebf12b86369a68b2, 3511, 10000)),
    ((4, 8, true), (0x6ecc9131cd18f008, 12755, 10000)),
    ((63, 8, true), (0x179deb842ed1daad, 6715, 10000)),
    ((64, 8, true), (0x179deb842ed1daad, 6715, 10000)),
    ((65, 8, true), (0x179deb842ed1daad, 6715, 10000)),
    ((96, 8, true), (0x179deb842ed1daad, 6715, 10000)),
    ((200, 8, true), (0x179deb842ed1daad, 6715, 10000)),
    ((4, 32, true), (0x6ecc9131cd18f008, 12755, 10000)),
    ((63, 32, true), (0xb7a268b0fa0d4c6d, 5337, 10000)),
    ((64, 32, true), (0x0e7dbb4f638bb51a, 5323, 10000)),
    ((65, 32, true), (0x27b60d72e815b921, 5304, 10000)),
    ((96, 32, true), (0x5eb459769bdaee8c, 4910, 10000)),
    ((200, 32, true), (0xb5c677371858bae8, 4818, 10000)),
];

fn window_config(rb_size: usize, lsq_size: usize, cached: bool) -> EngineConfig {
    EngineConfig {
        rb_size,
        lsq_size,
        memory: if cached {
            resim_mem::MemorySystemConfig::l1_32k()
        } else {
            EngineConfig::paper_4wide().memory
        },
        ..EngineConfig::paper_4wide()
    }
}

#[test]
fn wide_window_stats_match_the_pins() {
    let trace = golden_trace();
    for &((rb_size, lsq_size, cached), pin) in WINDOW_PINS {
        let stats = Engine::new(window_config(rb_size, lsq_size, cached))
            .unwrap()
            .run(trace.source());
        assert_eq!(
            (stats.digest(), stats.cycles, stats.committed),
            pin,
            "rb_size {rb_size}, lsq_size {lsq_size}, cached {cached} drifted from its pin"
        );
    }
}

fn other(pc: u32, class: OpClass, dest: Option<u8>, src: Option<u8>) -> TraceRecord {
    TraceRecord::Other(OtherRecord {
        pc,
        class,
        dest: dest.map(Reg::new),
        src1: src.map(Reg::new),
        src2: None,
        wrong_path: false,
    })
}

/// A memory record; `reg` is the destination of a load and the data
/// source of a store.
fn mem(pc: u32, kind: MemKind, size: MemSize, addr: u32, base: Option<u8>, reg: u8) -> TraceRecord {
    TraceRecord::Mem(MemRecord {
        pc,
        addr,
        size,
        kind,
        base: base.map(Reg::new),
        data: Some(Reg::new(reg)),
        wrong_path: false,
    })
}

/// A deterministic aliasing trace: the SPEC-like traces forward a load
/// almost never, so this one repeats a block that walks every
/// store-to-load rule of `Lsq_refresh`. Register 30 is never written,
/// so a store reading it has its data from the start.
fn aliasing_trace() -> Trace {
    const LOOP_HEAD: u32 = 0x1000;
    use MemKind::{Load, Store};
    use MemSize::{Byte, Word};
    let mut recs: Vec<TraceRecord> = Vec::new();
    for i in 0..250u32 {
        let a = 0x1_0000 + (i * 37 % 48) * 64;
        let slow = if i % 2 == 0 {
            OpClass::IntMult
        } else {
            OpClass::IntDiv
        };
        let block = [
            // A forward whose store data is ready.
            mem(0, Store, Word, a, None, 30),
            mem(0, Load, Word, a, None, 1),
            // A forward held back by a slow data producer; the divide
            // below waits for the forwarded value.
            other(0, slow, Some(5), None),
            mem(0, Store, Word, a + 8, None, 5),
            mem(0, Load, Word, a + 8, None, 6),
            // A disjoint load blocked by a store whose base is unresolved.
            other(0, OpClass::IntMult, Some(7), None),
            mem(0, Store, Word, a + 16, Some(7), 30),
            mem(0, Load, Word, a + 24, None, 8),
            // Byte/word partial overlaps both ways, and an adjacent miss.
            mem(0, Store, Word, a + 32, None, 30),
            mem(0, Load, Byte, a + 35, None, 9),
            mem(0, Store, Byte, a + 41, None, 30),
            mem(0, Load, Word, a + 40, None, 10),
            mem(0, Load, Byte, a + 36, None, 11),
            // A load that is forward-ready while eight older ALU ops
            // take the issue slots, and reads the cache once its store
            // has committed.
            other(0, OpClass::IntDiv, Some(12), Some(6)),
            mem(0, Store, Word, a + 48, None, 30),
            other(0, OpClass::IntAlu, Some(13), Some(12)),
            other(0, OpClass::IntAlu, Some(13), Some(12)),
            other(0, OpClass::IntAlu, Some(13), Some(12)),
            other(0, OpClass::IntAlu, Some(13), Some(12)),
            other(0, OpClass::IntAlu, Some(13), Some(12)),
            other(0, OpClass::IntAlu, Some(13), Some(12)),
            other(0, OpClass::IntAlu, Some(13), Some(12)),
            other(0, OpClass::IntAlu, Some(13), Some(12)),
            mem(0, Load, Word, a + 48, Some(12), 14),
        ];
        // One loop iteration: consecutive PCs, closed by a jump back.
        for (k, mut r) in block.into_iter().enumerate() {
            let pc = LOOP_HEAD + 4 * k as u32;
            match &mut r {
                TraceRecord::Mem(m) => m.pc = pc,
                TraceRecord::Other(o) => o.pc = pc,
                TraceRecord::Branch(_) => unreachable!("the block holds no branch"),
            }
            recs.push(r);
        }
        recs.push(TraceRecord::Branch(BranchRecord {
            pc: LOOP_HEAD + 4 * block.len() as u32,
            target: LOOP_HEAD,
            taken: true,
            kind: BranchKind::Jump,
            src1: None,
            src2: None,
            wrong_path: false,
        }));
    }
    Trace::from_records(recs)
}

/// One forwarding pin: `(lsq_size, cached memory?, built-in pipeline)` →
/// `(SimStats::digest(), cycles, load_forwards)` over [`aliasing_trace`]
/// on a 64-entry RB.
type ForwardPin = ((usize, bool, &'static str), (u64, u64, u64));

/// Pins of the forwarding paths, recorded on the LSQ that recomputed
/// readiness in a per-cycle `Lsq_refresh` pass.
const FORWARD_PINS: &[ForwardPin] = &[
    ((4, false, "simple"), (0x72e9c130a560280a, 6254, 876)),
    ((4, false, "improved"), (0x5985e60a7edc5180, 6254, 876)),
    ((4, false, "optimized"), (0x1ac62a6e6708538e, 6254, 876)),
    ((4, true, "simple"), (0xf0e64e05ea23ef03, 6281, 875)),
    ((4, true, "improved"), (0x06be8f0085e35b3e, 6281, 875)),
    ((4, true, "optimized"), (0x570f92b0c5edc148, 6281, 875)),
    ((8, false, "simple"), (0xef342950c87d951a, 5132, 1000)),
    ((8, false, "improved"), (0x45ae589c0cdd79ea, 5132, 1000)),
    ((8, false, "optimized"), (0xd83f2b1927ca7d5a, 5132, 1000)),
    ((8, true, "simple"), (0x171dcb980677f116, 5208, 1022)),
    ((8, true, "improved"), (0x01e7424e5f51fbd5, 5208, 1022)),
    ((8, true, "optimized"), (0x431348aa81eb46f1, 5208, 1022)),
    ((32, false, "simple"), (0xa08ef999fea6a462, 4012, 1124)),
    ((32, false, "improved"), (0xa49646ed5e7990a1, 4012, 1124)),
    ((32, false, "optimized"), (0x68fd8a31377f22d5, 4012, 1124)),
    ((32, true, "simple"), (0x9d3f073fd82a9b79, 4047, 1123)),
    ((32, true, "improved"), (0x21621d5ad066e449, 4047, 1123)),
    ((32, true, "optimized"), (0xce1c873804294650, 4047, 1123)),
];

#[test]
fn store_to_load_forwarding_matches_the_pins() {
    let trace = aliasing_trace();
    let mut got = Vec::new();
    for lsq_size in [4, 8, 32] {
        for cached in [false, true] {
            for org in ["simple", "improved", "optimized"] {
                let config = EngineConfig {
                    pipeline: PipelineDescription::builtin(org).unwrap(),
                    ..window_config(64, lsq_size, cached)
                };
                let stats = Engine::new(config).unwrap().run(trace.source());
                got.push((
                    (lsq_size, cached, org),
                    (stats.digest(), stats.cycles, stats.load_forwards),
                ));
            }
        }
    }
    assert_eq!(
        got, FORWARD_PINS,
        "forwarding over the aliasing trace drifted from its pins"
    );
}
