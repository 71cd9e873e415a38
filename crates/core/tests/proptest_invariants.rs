//! Property tests over the core structural invariants:
//!
//! * the reorder buffer never exceeds its capacity and always retires in
//!   program order;
//! * the LSQ never readies a load past an older store whose address is
//!   still unresolved;
//! * at the engine level, observed IFQ/RB/LSQ occupancies never exceed
//!   the configured capacities (via the per-run occupancy maxima).

use proptest::prelude::*;
use resim_core::{
    Engine, EngineConfig, InstState, LoadReady, LoadStoreQueue, LsqEntry, PendingSet, ReorderBuffer,
    RobEntry,
};
use resim_trace::{MemKind, MemRecord, MemSize, OpClass, OtherRecord, TraceRecord};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};
use std::collections::HashSet;

fn alu_record(seq: u64) -> TraceRecord {
    TraceRecord::Other(OtherRecord {
        pc: 0x1000 + (seq as u32) * 4,
        class: OpClass::IntAlu,
        dest: None,
        src1: None,
        src2: None,
        wrong_path: false,
    })
}

fn rob_entry(seq: u64) -> RobEntry {
    RobEntry {
        seq,
        record: alu_record(seq),
        state: InstState::Waiting,
        pending: PendingSet::new(),
        in_lsq: false,
        mispredicted_branch: false,
    }
}

/// Random ROB op stream: 0 = push, 1 = complete head, 2 = pop completed
/// head, 3 = squash younger than a random live entry.
fn arb_rob_ops() -> impl Strategy<Value = (usize, Vec<u8>)> {
    (2usize..24, prop::collection::vec(0u8..4, 1..200))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ROB length never exceeds capacity, and retiring the head yields
    /// strictly increasing sequence numbers — commits happen in program order no
    /// matter how pushes, completions, pops and squashes interleave.
    #[test]
    fn rob_capacity_and_program_order((capacity, ops) in arb_rob_ops()) {
        let mut rob = ReorderBuffer::new(capacity);
        let mut next_seq = 1u64;
        let mut last_popped = 0u64;
        for op in ops {
            match op {
                0 => {
                    if !rob.is_full() {
                        rob.push(rob_entry(next_seq));
                        next_seq += 1;
                    }
                }
                1 => {
                    if let Some(mut head) = rob.at_mut(0) {
                        head.set_state(InstState::Completed { at: 0 });
                    }
                }
                2 => {
                    let head_done = rob
                        .head()
                        .is_some_and(|h| matches!(h.state(), InstState::Completed { .. }));
                    if head_done {
                        let seq = rob.head().unwrap().seq();
                        rob.drop_head();
                        prop_assert!(
                            seq > last_popped,
                            "pop order violated: {} after {}",
                            seq,
                            last_popped
                        );
                        last_popped = seq;
                    }
                }
                _ => {
                    // Squash everything younger than the middle live entry.
                    let mid = rob.iter().map(|e| e.seq()).nth(rob.len() / 2);
                    if let Some(mid) = mid {
                        let squashed = rob.squash_younger(mid);
                        prop_assert!(squashed.iter().all(|e| e.seq > mid));
                        // Resume allocation after the squash point, like
                        // the engine's recovery does.
                        next_seq = mid + 1;
                    }
                }
            }
            prop_assert!(rob.len() <= rob.capacity(), "ROB overflow: {}", rob.len());
        }
    }

    /// After `refresh`, no load is ready while any older store's address
    /// is unresolved, and forwarding only happens from an overlapping,
    /// data-ready older store.
    #[test]
    fn lsq_never_readies_a_load_past_an_unresolved_store(
        entries in prop::collection::vec(
            (any::<bool>(), 0u32..8, any::<bool>(), any::<bool>()),
            1..8,
        ),
    ) {
        let mut lsq = LoadStoreQueue::new(entries.len());
        let mut outstanding: HashSet<u64> = HashSet::new();
        for (i, &(is_load, slot, base_unresolved, data_unresolved)) in
            entries.iter().enumerate()
        {
            let seq = (i + 1) as u64;
            let producer = 1_000 + seq;
            if base_unresolved {
                outstanding.insert(producer);
            }
            let data_producer = 2_000 + seq;
            if data_unresolved {
                outstanding.insert(data_producer);
            }
            lsq.push(LsqEntry {
                seq,
                mem: MemRecord {
                    pc: 0x2000 + (i as u32) * 4,
                    addr: 0x8000 + slot * 4,
                    size: MemSize::Word,
                    kind: if is_load { MemKind::Load } else { MemKind::Store },
                    base: None,
                    data: None,
                    wrong_path: false,
                },
                base_dep: base_unresolved.then_some(producer),
                data_dep: (!is_load && data_unresolved).then_some(data_producer),
                addr_known: false,
                data_ready: false,
                load_ready: LoadReady::NotReady,
                issued: false,
            });
        }
        lsq.refresh(|seq| outstanding.contains(&seq));

        let snapshot: Vec<_> = lsq.iter().cloned().collect();
        for (i, e) in snapshot.iter().enumerate() {
            if !e.is_load() || e.load_ready == LoadReady::NotReady {
                continue;
            }
            // Invariant 1: a ready load's own address is known.
            prop_assert!(e.addr_known, "load {} ready without an address", e.seq);
            // The forwarding source, if any: the *youngest* older store
            // that overlaps the load. Stores older than the source are
            // architecturally irrelevant — the source's value supersedes
            // theirs — so only the stores *between* source and load (all
            // of them, for a cache-bound load) must be resolved.
            let source = snapshot[..i]
                .iter()
                .rev()
                .find(|o| !o.is_load() && o.mem.overlaps(&e.mem));
            let watch_from = source.map_or(0, |s| s.seq as usize); // seqs are 1-based positions
            for older in &snapshot[watch_from..i] {
                if !older.is_load() {
                    prop_assert!(
                        older.addr_known,
                        "load {} ready past store {} with unresolved address",
                        e.seq,
                        older.seq
                    );
                }
            }
            match e.load_ready {
                LoadReady::ReadyForward => {
                    let source = source.expect("forwarding needs an overlapping store");
                    prop_assert!(source.data_ready, "forwarded from store without data");
                    prop_assert!(source.addr_known, "forwarded from unresolved store");
                }
                LoadReady::ReadyCache => {
                    prop_assert!(
                        source.is_none(),
                        "load {} goes to cache despite an overlapping older store",
                        e.seq
                    );
                }
                LoadReady::NotReady => unreachable!(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine-level capacity invariant: the per-cycle occupancy maxima
    /// the engine records never exceed the configured structure sizes.
    #[test]
    fn engine_occupancies_never_exceed_capacities(
        bench_idx in 0usize..5,
        seed in 0u64..500,
        rb in prop_oneof![Just(8usize), Just(16), Just(32)],
        lsq in prop_oneof![Just(4usize), Just(8)],
    ) {
        let config = EngineConfig {
            rb_size: rb,
            lsq_size: lsq,
            ..EngineConfig::paper_4wide()
        };
        let trace = generate_trace(
            Workload::spec(SpecBenchmark::ALL[bench_idx], seed),
            4_000,
            &TraceGenConfig::paper(),
        );
        let stats = Engine::new(config.clone()).unwrap().run(trace.source());
        prop_assert!(stats.ifq_occupancy_max <= config.ifq_size as u64);
        prop_assert!(stats.rb_occupancy_max <= config.rb_size as u64);
        prop_assert!(stats.lsq_occupancy_max <= config.lsq_size as u64);
        // The maxima dominate the averages by construction.
        prop_assert!(stats.avg_rb_occupancy() <= stats.rb_occupancy_max as f64 + 1e-9);
        prop_assert!(stats.avg_lsq_occupancy() <= stats.lsq_occupancy_max as f64 + 1e-9);
        prop_assert!(stats.avg_ifq_occupancy() <= stats.ifq_occupancy_max as f64 + 1e-9);
    }
}
