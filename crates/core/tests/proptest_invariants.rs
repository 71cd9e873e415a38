//! Property tests over the core structural invariants:
//!
//! * the reorder buffer never exceeds its capacity and always retires in
//!   program order;
//! * the LSQ never readies a load past an older store whose address is
//!   still unresolved;
//! * the event-driven RB bookkeeping (select bitsets, waiter lists,
//!   producer handles) and the LSQ's on-demand load readiness agree,
//!   after every operation of a random sequence, with a brute-force
//!   recomputation from scratch;
//! * at the engine level, observed IFQ/RB/LSQ occupancies never exceed
//!   the configured capacities (via the per-run occupancy maxima).

use proptest::prelude::*;
use resim_core::{
    Engine, EngineConfig, InstState, LoadReady, LoadStoreQueue, LsqEntry, PendingSet, Producer,
    ReorderBuffer, RobEntry,
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
        lsq_ordinal: None,
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
                        let before = rob.len();
                        let squashed = rob.squash_younger(mid);
                        prop_assert_eq!(squashed, before - rob.len());
                        prop_assert!(rob.iter().all(|e| e.seq() <= mid));
                        // Resume allocation after the squash point, like
                        // the engine's recovery does.
                        next_seq = mid + 1;
                    }
                }
            }
            prop_assert!(rob.len() <= rob.capacity(), "ROB overflow: {}", rob.len());
        }
    }

    /// No load is ready while any older store's address is unresolved,
    /// and forwarding only happens from an overlapping, data-ready older
    /// store.
    #[test]
    fn lsq_never_readies_a_load_past_an_unresolved_store(
        entries in prop::collection::vec(
            (any::<bool>(), 0u32..8, any::<bool>(), any::<bool>()),
            1..8,
        ),
    ) {
        let mut lsq = LoadStoreQueue::new(entries.len());
        let mut outstanding: HashSet<u64> = HashSet::new();
        let mut ordinals = Vec::new();
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
            ordinals.push(lsq.push(LsqEntry {
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
                base_dep: Some(handle(producer)),
                data_dep: (!is_load).then_some(handle(data_producer)),
            }));
        }
        let is_outstanding = |p: Producer| outstanding.contains(&p.seq);
        let resolved = |dep: Option<Producer>| dep.is_none_or(|p| !is_outstanding(p));

        let snapshot: Vec<_> = lsq.iter().cloned().collect();
        for (i, e) in snapshot.iter().enumerate() {
            let ready = lsq.load_ready(ordinals[i], is_outstanding);
            if !e.is_load() || ready == LoadReady::NotReady {
                continue;
            }
            // Invariant 1: a ready load's own address is known.
            prop_assert!(resolved(e.base_dep), "load {} ready without an address", e.seq);
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
                        resolved(older.base_dep),
                        "load {} ready past store {} with unresolved address",
                        e.seq,
                        older.seq
                    );
                }
            }
            match ready {
                LoadReady::ReadyForward => {
                    let source = source.expect("forwarding needs an overlapping store");
                    prop_assert!(resolved(source.data_dep), "forwarded from store without data");
                    prop_assert!(resolved(source.base_dep), "forwarded from unresolved store");
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

/// A producer handle for LSQ-only tests, where no RB exists and the
/// tag alone decides outstanding-ness.
fn handle(seq: u64) -> Producer {
    Producer {
        seq,
        slot: (seq % 16) as u32,
    }
}

/// A reference RB entry: the handle, state and awaited tags the
/// event-driven buffer must reproduce.
struct RefEntry {
    handle: Producer,
    state: InstState,
    pending: Vec<u64>,
}

/// Checks the buffer's scans, pending sets and producer checks against
/// `reference` and a brute-force scan over its `iter()` views; every
/// handle in `dead` (committed or squashed) must read not outstanding.
fn check_rob_against_reference(
    rob: &ReorderBuffer,
    reference: &[RefEntry],
    dead: &[Producer],
    cycle: u64,
) {
    let live: Vec<u64> = rob.iter().map(|e| e.seq()).collect();
    let expected: Vec<u64> = reference.iter().map(|e| e.handle.seq).collect();
    assert_eq!(live, expected, "live window");
    for (view, r) in rob.iter().zip(reference) {
        let seq = r.handle.seq;
        assert_eq!(view.handle(), r.handle, "handle of {seq}");
        assert_eq!(view.state(), r.state, "state of {seq}");
        assert_eq!(
            rob.is_outstanding(r.handle),
            !matches!(r.state, InstState::Completed { .. }),
            "outstanding {seq}"
        );
        let mut tags: Vec<u64> = view.pending().tags().collect();
        tags.sort_unstable();
        assert_eq!(tags, r.pending, "pending set of {seq}");
    }
    for &stale in dead {
        assert!(
            !rob.is_outstanding(stale),
            "stale handle {stale:?} reads outstanding"
        );
    }
    let mut ready = Vec::new();
    rob.scan_ready(&mut ready);
    let brute: Vec<(usize, u64)> = rob
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_waiting() && e.operands_ready())
        .map(|(i, e)| (i, e.seq()))
        .collect();
    assert_eq!(ready, brute, "scan_ready");
    for limit in [0, 1, 4, usize::MAX] {
        let mut done = Vec::new();
        rob.scan_done(cycle, limit, &mut done);
        let brute: Vec<(usize, u64)> = rob
            .iter()
            .enumerate()
            .filter(
                |(_, e)| matches!(e.state(), InstState::Executing { done_at } if done_at <= cycle),
            )
            .map(|(i, e)| (i, e.seq()))
            .take(limit)
            .collect();
        assert_eq!(done, brute, "scan_done at cycle {cycle}, limit {limit}");
    }
}

/// Recomputes a load's readiness from scratch (the `Lsq_refresh` rule,
/// §III): first every entry's address/data flags from the set of
/// outstanding producer tags, then the scan over those flags.
fn load_ready_from_scratch(
    entries: &[LsqEntry],
    i: usize,
    outstanding: &HashSet<u64>,
) -> LoadReady {
    let known = |dep: Option<Producer>| dep.is_none_or(|p| !outstanding.contains(&p.seq));
    let addr_known: Vec<bool> = entries.iter().map(|e| known(e.base_dep)).collect();
    let data_ready: Vec<bool> = entries.iter().map(|e| known(e.data_dep)).collect();
    if !addr_known[i] {
        return LoadReady::NotReady;
    }
    for j in (0..i).rev().filter(|&j| !entries[j].is_load()) {
        if !addr_known[j] {
            return LoadReady::NotReady;
        }
        if entries[j].mem.overlaps(&entries[i].mem) {
            return if data_ready[j] {
                LoadReady::ReadyForward
            } else {
                LoadReady::NotReady
            };
        }
    }
    LoadReady::ReadyCache
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential check of the RB's event-driven bookkeeping: random
    /// push (with pending producers drawn from live outstanding entries
    /// and from stale handles), issue, writeback (complete + wakeup),
    /// commit, head drop and squash sequences at capacities on both
    /// sides of the 64-slot word boundary. After every operation,
    /// `scan_ready`, `scan_done`, every pending set and every producer
    /// check equal a from-scratch reference, and every committed or
    /// squashed handle — including those whose slot a younger entry now
    /// holds — reads not outstanding.
    #[test]
    fn rob_bookkeeping_matches_a_brute_force_reference(
        capacity in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(130)],
        ops in prop::collection::vec((0u8..16, any::<u32>()), 1..800),
    ) {
        let mut rob = ReorderBuffer::new(capacity);
        let mut reference: Vec<RefEntry> = Vec::new();
        let mut dead: Vec<Producer> = Vec::new();
        let mut next_seq = 1u64;
        let mut cycle = 0u64;
        for (op, arg) in ops {
            // Half the picks take the oldest candidate, so the head
            // keeps retiring and the window wraps the ring.
            let pick = |n: usize| if arg & 2 == 0 { 0 } else { arg as usize % n };
            match op {
                // Push: up to two producers, each an outstanding entry
                // or, now and then, a stale handle the buffer must drop.
                0..=4 => {
                    if rob.is_full() {
                        continue;
                    }
                    let outstanding: Vec<Producer> = reference
                        .iter()
                        .filter(|e| !matches!(e.state, InstState::Completed { .. }))
                        .map(|e| e.handle)
                        .collect();
                    let mut producers: Vec<Producer> = Vec::new();
                    for shift in [8, 20] {
                        if (arg >> (shift - 1)) & 1 == 0 {
                            continue;
                        }
                        let k = (arg >> shift) as usize;
                        let from = if k.is_multiple_of(4) && !dead.is_empty() { &dead } else { &outstanding };
                        if let Some(&p) = from.get(k % from.len().max(1)) {
                            if !producers.contains(&p) {
                                producers.push(p);
                            }
                        }
                    }
                    let handle = rob.push(RobEntry {
                        pending: producers.iter().copied().collect(),
                        ..rob_entry(next_seq)
                    });
                    prop_assert_eq!(handle.seq, next_seq);
                    let mut tags: Vec<u64> = producers
                        .iter()
                        .filter(|p| !dead.contains(p))
                        .map(|p| p.seq)
                        .collect();
                    tags.sort_unstable();
                    reference.push(RefEntry { handle, state: InstState::Waiting, pending: tags });
                    next_seq += 1;
                }
                // Issue a ready entry.
                5..=7 => {
                    let ready: Vec<usize> = (0..reference.len())
                        .filter(|&i| reference[i].state == InstState::Waiting && reference[i].pending.is_empty())
                        .collect();
                    if ready.is_empty() {
                        continue;
                    }
                    let i = ready[pick(ready.len())];
                    let state = InstState::Executing { done_at: cycle + u64::from(arg >> 16) % 4 };
                    rob.at_mut(i).unwrap().set_state(state);
                    reference[i].state = state;
                }
                // Writeback an executing entry: complete and wake.
                8..=10 => {
                    let executing: Vec<usize> = (0..reference.len())
                        .filter(|&i| matches!(reference[i].state, InstState::Executing { .. }))
                        .collect();
                    if executing.is_empty() {
                        continue;
                    }
                    let i = executing[pick(executing.len())];
                    let seq = reference[i].handle.seq;
                    rob.at_mut(i).unwrap().complete(cycle);
                    reference[i].state = InstState::Completed { at: cycle };
                    for e in &mut reference {
                        e.pending.retain(|&t| t != seq);
                    }
                }
                // Commit a completed head.
                11 => {
                    if reference.first().is_some_and(|e| matches!(e.state, InstState::Completed { .. })) {
                        rob.drop_head();
                        dead.push(reference.remove(0).handle);
                    }
                }
                // Drop the head in any state: a producer that leaves the
                // window wakes whoever still waits on it.
                12 => {
                    if !reference.is_empty() {
                        rob.drop_head();
                        let gone = reference.remove(0).handle;
                        for e in &mut reference {
                            e.pending.retain(|&t| t != gone.seq);
                        }
                        dead.push(gone);
                    }
                }
                // Squash a few of the youngest entries, as a recovery
                // does.
                13 => {
                    if reference.is_empty() {
                        continue;
                    }
                    let keep = reference.len() - arg as usize % reference.len().min(8);
                    let seq = reference[keep - 1].handle.seq;
                    prop_assert_eq!(rob.squash_younger(seq), reference.len() - keep);
                    dead.extend(reference.drain(keep..).map(|e| e.handle));
                }
                _ => cycle += 1,
            }
            check_rob_against_reference(&rob, &reference, &dead, cycle);
        }
    }

    /// Differential check of the on-demand `load_ready`: after random
    /// push / commit / squash / producer-resolution sequences, every
    /// load's readiness equals a from-scratch recomputation over
    /// `iter()`, reached through the ordinal `push` returned.
    #[test]
    fn lsq_load_ready_matches_a_from_scratch_recomputation(
        capacity in 1usize..12,
        ops in prop::collection::vec((0u8..16, any::<u32>()), 1..300),
    ) {
        let mut lsq = LoadStoreQueue::new(capacity);
        // Producer tags 1000..1016 start outstanding and resolve once.
        let mut outstanding: HashSet<u64> = (1000..1016).collect();
        // The ordinal of each live entry, oldest first.
        let mut ordinals: Vec<u64> = Vec::new();
        let mut next_seq = 1u64;
        for (op, arg) in ops {
            match op {
                0..=3 => {
                    if lsq.is_full() {
                        continue;
                    }
                    let is_load = arg & 1 == 0;
                    let dep = |bits: u32| ((bits & 0x1f) < 16).then_some(handle(1000 + u64::from(bits & 0xf)));
                    ordinals.push(lsq.push(LsqEntry {
                        seq: next_seq,
                        mem: MemRecord {
                            pc: 0x2000,
                            addr: 0x8000 + ((arg >> 1) & 7) * 4,
                            size: MemSize::Word,
                            kind: if is_load { MemKind::Load } else { MemKind::Store },
                            base: None,
                            data: None,
                            wrong_path: false,
                        },
                        base_dep: dep(arg >> 4),
                        data_dep: if is_load { None } else { dep(arg >> 9) },
                    }));
                    next_seq += 1;
                }
                4 | 5 if lsq.pop_head().is_some() => {
                    ordinals.remove(0);
                }
                6 => {
                    let live: Vec<u64> = lsq.iter().map(|e| e.seq).collect();
                    if !live.is_empty() {
                        let keep = arg as usize % live.len();
                        lsq.squash_younger(live[keep]);
                        prop_assert_eq!(lsq.len(), keep + 1);
                        ordinals.truncate(keep + 1);
                    }
                }
                // Resolve a producer.
                7..=9 => {
                    outstanding.remove(&(1000 + u64::from(arg % 16)));
                }
                _ => {}
            }
            let entries: Vec<LsqEntry> = lsq.iter().cloned().collect();
            prop_assert_eq!(entries.len(), ordinals.len());
            for (i, e) in entries.iter().enumerate() {
                if e.is_load() {
                    prop_assert_eq!(
                        lsq.load_ready(ordinals[i], |p| outstanding.contains(&p.seq)),
                        load_ready_from_scratch(&entries, i, &outstanding),
                        "load {} in {:?}",
                        e.seq,
                        entries
                    );
                }
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
