//! The Load/Store Queue and the `Lsq_refresh` memory-dependence check.
//!
//! §III: "Loads can be issued only after their effective address has been
//! calculated, and there are no unresolved memory dependencies. These
//! checks are performed by Lsq_refresh." — and loads whose value is
//! forwarded from an older store in the LSQ do not allocate a cache read
//! port.
//!
//! # Readiness on demand
//!
//! The hardware runs the check as a stage every cycle. This model
//! computes it only where it is used: when the Issue stage reaches a load
//! among its ready candidates, it asks [`LoadStoreQueue::load_ready`].
//! An entry stores no derived flags, only its tag, its [`MemRecord`] and
//! the [`Producer`] handles of its address base and store data, so each
//! "is this address (or this data) known yet?" question is one O(1)
//! producer check against the RB. Readiness is a pure function of the
//! queue and of producer completion, and no producer completes between
//! the `Lsq_refresh` slot and Issue, so the answer equals what a
//! per-cycle scan would have cached.
//!
//! Entries are named by an **ordinal**, the count of entries allocated
//! before them: [`LoadStoreQueue::push`] returns it, the RB keeps it in
//! a lane, and the queue finds the entry at `ordinal − head ordinal`.
//! Retiring the head advances the head ordinal; a squash pops the tail,
//! so the next push reuses the squashed ordinals.

use crate::rob::Producer;
use resim_trace::{MemKind, MemRecord};
use std::collections::VecDeque;

/// Issue-readiness of a load, as computed by
/// [`LoadStoreQueue::load_ready`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadReady {
    /// Address not yet calculated, or an older store's address/data is
    /// unresolved.
    NotReady,
    /// May issue; must allocate a read port and access the D-cache.
    ReadyCache,
    /// May issue; value is forwarded inside the LSQ (no read port).
    ReadyForward,
}

/// One LSQ entry (program order, paired with an RB entry by `seq`).
#[derive(Debug, Clone)]
pub struct LsqEntry {
    /// Age tag shared with the RB entry.
    pub seq: u64,
    /// The memory record (kind, address, size).
    pub mem: MemRecord,
    /// Producer of the address base register, if one was renamed at
    /// dispatch.
    pub base_dep: Option<Producer>,
    /// Producer of the store-data register (stores only).
    pub data_dep: Option<Producer>,
}

impl LsqEntry {
    /// Whether this entry is a load.
    pub fn is_load(&self) -> bool {
        self.mem.kind == MemKind::Load
    }
}

/// Program-ordered load/store queue with forwarding and dependence
/// checking.
///
/// Entries are allocated at the tail, retired from the head (commit is
/// in order) and squashed from the tail, so the queue stays in program
/// order and an ordinal indexes it directly (see the module docs).
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    entries: VecDeque<LsqEntry>,
    capacity: usize,
    /// Ordinal of the head entry: the number of entries retired so far.
    head_ordinal: u64,
}

impl LoadStoreQueue {
    /// Creates an empty LSQ.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ capacity must be non-zero");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            head_ordinal: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the LSQ is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether allocation would fail.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Allocates an entry at the tail (program order) and returns its
    /// ordinal.
    ///
    /// # Panics
    ///
    /// Panics if full or if `entry.seq` does not exceed the tail's tag.
    pub fn push(&mut self, entry: LsqEntry) -> u64 {
        assert!(!self.is_full(), "LSQ overflow");
        assert!(
            self.entries.back().is_none_or(|tail| tail.seq < entry.seq),
            "LSQ ages must increase"
        );
        self.entries.push_back(entry);
        self.head_ordinal + self.entries.len() as u64 - 1
    }

    /// Retires the oldest entry (commit).
    pub fn pop_head(&mut self) -> Option<LsqEntry> {
        let head = self.entries.pop_front();
        self.head_ordinal += u64::from(head.is_some());
        head
    }

    /// The `Lsq_refresh` check for the load with ordinal `ordinal`
    /// (§III/§IV), computed on demand.
    ///
    /// The load is [`NotReady`](LoadReady::NotReady) while its own
    /// address base is outstanding. Otherwise the older stores are
    /// scanned youngest first: one with an unresolved address blocks the
    /// load (§III: "no unresolved memory dependencies"); the nearest one
    /// that overlaps it forwards its value once its data is ready
    /// ([`ReadyForward`](LoadReady::ReadyForward)) and blocks it until
    /// then; with neither, the load reads the cache
    /// ([`ReadyCache`](LoadReady::ReadyCache)).
    ///
    /// `is_outstanding` reports whether a producer is still in flight
    /// without a result (the RB's view).
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` names no live entry.
    pub fn load_ready(&self, ordinal: u64, is_outstanding: impl Fn(Producer) -> bool) -> LoadReady {
        let idx = (ordinal - self.head_ordinal) as usize;
        let load = &self.entries[idx];
        let resolved = |dep: Option<Producer>| dep.is_none_or(|p| !is_outstanding(p));
        if !resolved(load.base_dep) {
            return LoadReady::NotReady;
        }
        for older in self.entries.range(..idx).rev().filter(|e| !e.is_load()) {
            if !resolved(older.base_dep) {
                return LoadReady::NotReady;
            }
            if older.mem.overlaps(&load.mem) {
                return if resolved(older.data_dep) {
                    LoadReady::ReadyForward
                } else {
                    LoadReady::NotReady
                };
            }
        }
        LoadReady::ReadyCache
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &LsqEntry> {
        self.entries.iter()
    }

    /// Squashes every entry younger than `seq`; the next push reuses
    /// their ordinals.
    pub fn squash_younger(&mut self, seq: u64) {
        while self.entries.back().is_some_and(|e| e.seq > seq) {
            self.entries.pop_back();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_trace::MemSize;

    fn entry(seq: u64, kind: MemKind, addr: u32) -> LsqEntry {
        LsqEntry {
            seq,
            mem: MemRecord {
                pc: 0,
                addr,
                size: MemSize::Word,
                kind,
                base: None,
                data: None,
                wrong_path: false,
            },
            base_dep: None,
            data_dep: None,
        }
    }

    /// A producer handle named by its tag alone (slot 0).
    fn producer(seq: u64) -> Option<Producer> {
        Some(Producer { seq, slot: 0 })
    }

    /// An `is_outstanding` view in which exactly `tags` are in flight.
    fn outstanding(tags: &[u64]) -> impl Fn(Producer) -> bool + '_ {
        move |p| tags.contains(&p.seq)
    }

    #[test]
    fn lone_load_is_cache_ready() {
        let mut lsq = LoadStoreQueue::new(8);
        let load = lsq.push(entry(1, MemKind::Load, 0x100));
        assert_eq!(
            lsq.load_ready(load, outstanding(&[])),
            LoadReady::ReadyCache
        );
    }

    #[test]
    fn load_waits_for_base_producer() {
        let mut lsq = LoadStoreQueue::new(8);
        let load = lsq.push(LsqEntry {
            base_dep: producer(1),
            ..entry(2, MemKind::Load, 0x100)
        });
        // Producer still outstanding, then written back.
        assert_eq!(lsq.load_ready(load, outstanding(&[1])), LoadReady::NotReady);
        assert_eq!(
            lsq.load_ready(load, outstanding(&[])),
            LoadReady::ReadyCache
        );
    }

    #[test]
    fn load_blocked_by_unresolved_store_address() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(LsqEntry {
            base_dep: producer(99),
            ..entry(1, MemKind::Store, 0x200)
        });
        let load = lsq.push(entry(2, MemKind::Load, 0x100));
        assert_eq!(
            lsq.load_ready(load, outstanding(&[99])),
            LoadReady::NotReady,
            "conservative: unknown store address blocks all younger loads"
        );
    }

    #[test]
    fn overlapping_store_forwards_when_data_ready() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(entry(1, MemKind::Store, 0x100));
        let load = lsq.push(entry(2, MemKind::Load, 0x100));
        assert_eq!(
            lsq.load_ready(load, outstanding(&[])),
            LoadReady::ReadyForward
        );
    }

    #[test]
    fn overlapping_store_without_data_blocks() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(LsqEntry {
            data_dep: producer(50),
            ..entry(1, MemKind::Store, 0x100)
        });
        let load = lsq.push(entry(2, MemKind::Load, 0x100));
        assert_eq!(
            lsq.load_ready(load, outstanding(&[50])),
            LoadReady::NotReady
        );
        assert_eq!(
            lsq.load_ready(load, outstanding(&[])),
            LoadReady::ReadyForward
        );
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(entry(1, MemKind::Store, 0x100)); // older, data ready
        lsq.push(LsqEntry {
            data_dep: producer(70), // younger, data missing
            ..entry(2, MemKind::Store, 0x100)
        });
        let load = lsq.push(entry(3, MemKind::Load, 0x100));
        assert_eq!(
            lsq.load_ready(load, outstanding(&[70])),
            LoadReady::NotReady,
            "the youngest older store is the forwarding source"
        );
    }

    #[test]
    fn disjoint_store_does_not_block() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(entry(1, MemKind::Store, 0x200));
        let load = lsq.push(entry(2, MemKind::Load, 0x100));
        assert_eq!(
            lsq.load_ready(load, outstanding(&[])),
            LoadReady::ReadyCache
        );
    }

    #[test]
    fn forward_turns_into_a_cache_read_once_the_store_retires() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(entry(1, MemKind::Store, 0x100));
        let load = lsq.push(entry(2, MemKind::Load, 0x100));
        assert_eq!(
            lsq.load_ready(load, outstanding(&[])),
            LoadReady::ReadyForward
        );
        lsq.pop_head();
        assert_eq!(
            lsq.load_ready(load, outstanding(&[])),
            LoadReady::ReadyCache
        );
    }

    #[test]
    fn ordinals_survive_retire_and_rewind_on_squash() {
        let mut lsq = LoadStoreQueue::new(8);
        let ordinals: Vec<u64> = (1..=5)
            .map(|s| lsq.push(entry(s, MemKind::Store, 0x100 + s as u32 * 4)))
            .collect();
        assert_eq!(ordinals, [0, 1, 2, 3, 4]);
        lsq.squash_younger(3);
        assert_eq!(lsq.len(), 3);
        assert_eq!(lsq.pop_head().map(|e| e.seq), Some(1));
        assert_eq!(lsq.len(), 2);
        // The tail rewound to the squash point; the new load at ordinal 3
        // sees the store at ordinal 2 (tag 3, address 0x10c).
        let load = lsq.push(entry(9, MemKind::Load, 0x10c));
        assert_eq!(load, 3);
        assert_eq!(
            lsq.load_ready(load, outstanding(&[])),
            LoadReady::ReadyForward
        );
    }

    #[test]
    #[should_panic(expected = "LSQ overflow")]
    fn overflow_panics() {
        let mut lsq = LoadStoreQueue::new(1);
        lsq.push(entry(1, MemKind::Load, 0));
        lsq.push(entry(2, MemKind::Load, 4));
    }
}
