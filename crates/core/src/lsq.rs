//! The Load/Store Queue and the `Lsq_refresh` memory-dependence check.
//!
//! §III: "Loads can be issued only after their effective address has been
//! calculated, and there are no unresolved memory dependencies. These
//! checks are performed by Lsq_refresh." — and loads whose value is
//! forwarded from an older store in the LSQ do not allocate a cache read
//! port.

use resim_trace::{MemKind, MemRecord};

/// Issue-readiness of a load, as computed by [`LoadStoreQueue::refresh`].
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
    /// Producer of the address base register, if still outstanding at
    /// dispatch.
    pub base_dep: Option<u64>,
    /// Producer of the store-data register (stores only).
    pub data_dep: Option<u64>,
    /// Whether the effective address has been calculated.
    pub addr_known: bool,
    /// Whether store data is available (always true for loads once
    /// `addr_known`).
    pub data_ready: bool,
    /// Issue readiness computed by the last `refresh`.
    pub load_ready: LoadReady,
    /// Whether the instruction has issued.
    pub issued: bool,
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
/// in order) and squashed from the tail, so the queue stays sorted by
/// age tag and lookups binary-search it.
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    entries: std::collections::VecDeque<LsqEntry>,
    capacity: usize,
    forwards: u64,
    /// Whether load readiness may have changed since the last
    /// `refresh`: an entry was pushed or retired, or a flag flipped.
    stale: bool,
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
            entries: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            forwards: 0,
            stale: false,
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

    /// Loads satisfied by forwarding so far.
    pub fn forwards(&self) -> u64 {
        self.forwards
    }

    /// Allocates an entry at the tail (program order).
    ///
    /// # Panics
    ///
    /// Panics if full or if `entry.seq` does not exceed the tail's tag.
    pub fn push(&mut self, entry: LsqEntry) {
        assert!(!self.is_full(), "LSQ overflow");
        assert!(
            self.entries.back().is_none_or(|tail| tail.seq < entry.seq),
            "LSQ ages must increase"
        );
        self.entries.push_back(entry);
        self.stale = true;
    }

    /// Immutable lookup by age tag.
    pub fn find(&self, seq: u64) -> Option<&LsqEntry> {
        self.index_of(seq).map(|i| &self.entries[i])
    }

    /// Queue index of age tag `seq` (the queue is sorted by tag).
    fn index_of(&self, seq: u64) -> Option<usize> {
        self.entries.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// Retires the oldest entry (commit).
    pub fn pop_head(&mut self) -> Option<LsqEntry> {
        let head = self.entries.pop_front();
        self.stale |= head.is_some();
        head
    }

    /// The `Lsq_refresh` stage, run once per major cycle (§III/§IV).
    ///
    /// Pass 1 recomputes address/data availability from producer state
    /// for the entries still missing either. Pass 2 marks the readiness
    /// of every unissued load against the older stores; it runs only if,
    /// since the last refresh, an entry was pushed or retired or pass 1
    /// flipped a flag — an unissued load's readiness depends on nothing
    /// else (a squash removes only younger entries, which no surviving
    /// load depends on).
    ///
    /// `is_outstanding` reports whether a producer tag is still in flight
    /// without a result (the RB's view).
    pub fn refresh(&mut self, is_outstanding: impl Fn(u64) -> bool) {
        // Pass 1: address & data availability.
        for e in &mut self.entries {
            if !e.addr_known {
                e.addr_known = e.base_dep.is_none_or(|d| !is_outstanding(d));
                self.stale |= e.addr_known;
            }
            if !e.data_ready {
                let data_ok = e.data_dep.is_none_or(|d| !is_outstanding(d));
                e.data_ready = if e.is_load() {
                    e.addr_known
                } else {
                    data_ok
                };
                self.stale |= e.data_ready;
            }
        }
        if !std::mem::take(&mut self.stale) {
            return;
        }
        // Pass 2: load readiness against older stores.
        for i in 0..self.entries.len() {
            if !self.entries[i].is_load() || self.entries[i].issued {
                continue;
            }
            if !self.entries[i].addr_known {
                self.entries[i].load_ready = LoadReady::NotReady;
                continue;
            }
            let load_mem = self.entries[i].mem;
            let mut ready = LoadReady::ReadyCache;
            // Scan older entries, youngest first, for stores.
            for j in (0..i).rev() {
                let older = &self.entries[j];
                if older.is_load() {
                    continue;
                }
                if !older.addr_known {
                    // Unresolved store address: conservative stall (§III:
                    // "no unresolved memory dependencies").
                    ready = LoadReady::NotReady;
                    break;
                }
                if older.mem.overlaps(&load_mem) {
                    ready = if older.data_ready {
                        LoadReady::ReadyForward
                    } else {
                        LoadReady::NotReady
                    };
                    break;
                }
            }
            self.entries[i].load_ready = ready;
        }
    }

    /// Marks an entry issued, counting a forward if it was a load
    /// satisfied in-queue.
    pub fn mark_issued(&mut self, seq: u64) {
        if let Some(i) = self.index_of(seq) {
            let e = &mut self.entries[i];
            e.issued = true;
            if e.load_ready == LoadReady::ReadyForward {
                self.forwards += 1;
            }
        }
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &LsqEntry> {
        self.entries.iter()
    }

    /// Squashes every entry younger than `seq`.
    ///
    /// A load's readiness depends only on older entries, so removing the
    /// youngest ones leaves every survivor's readiness current.
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

    fn mem(kind: MemKind, addr: u32) -> MemRecord {
        MemRecord {
            pc: 0,
            addr,
            size: MemSize::Word,
            kind,
            base: None,
            data: None,
            wrong_path: false,
        }
    }

    fn entry(seq: u64, kind: MemKind, addr: u32) -> LsqEntry {
        LsqEntry {
            seq,
            mem: mem(kind, addr),
            base_dep: None,
            data_dep: None,
            addr_known: false,
            data_ready: false,
            load_ready: LoadReady::NotReady,
            issued: false,
        }
    }

    #[test]
    fn lone_load_becomes_cache_ready() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(entry(1, MemKind::Load, 0x100));
        lsq.refresh(|_| false);
        assert_eq!(lsq.find(1).unwrap().load_ready, LoadReady::ReadyCache);
    }

    #[test]
    fn load_waits_for_base_producer() {
        let mut lsq = LoadStoreQueue::new(8);
        let mut e = entry(2, MemKind::Load, 0x100);
        e.base_dep = Some(1);
        lsq.push(e);
        lsq.refresh(|seq| seq == 1); // producer still outstanding
        assert_eq!(lsq.find(2).unwrap().load_ready, LoadReady::NotReady);
        lsq.refresh(|_| false); // producer wrote back
        assert_eq!(lsq.find(2).unwrap().load_ready, LoadReady::ReadyCache);
    }

    #[test]
    fn load_blocked_by_unresolved_store_address() {
        let mut lsq = LoadStoreQueue::new(8);
        let mut st = entry(1, MemKind::Store, 0x200);
        st.base_dep = Some(99);
        lsq.push(st);
        lsq.push(entry(2, MemKind::Load, 0x100));
        lsq.refresh(|seq| seq == 99);
        assert_eq!(
            lsq.find(2).unwrap().load_ready,
            LoadReady::NotReady,
            "conservative: unknown store address blocks all younger loads"
        );
    }

    #[test]
    fn overlapping_store_forwards_when_data_ready() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(entry(1, MemKind::Store, 0x100));
        lsq.push(entry(2, MemKind::Load, 0x100));
        lsq.refresh(|_| false);
        assert_eq!(lsq.find(2).unwrap().load_ready, LoadReady::ReadyForward);
        lsq.mark_issued(2);
        assert_eq!(lsq.forwards(), 1);
    }

    #[test]
    fn overlapping_store_without_data_blocks() {
        let mut lsq = LoadStoreQueue::new(8);
        let mut st = entry(1, MemKind::Store, 0x100);
        st.data_dep = Some(50);
        lsq.push(st);
        lsq.push(entry(2, MemKind::Load, 0x100));
        lsq.refresh(|seq| seq == 50);
        assert_eq!(lsq.find(2).unwrap().load_ready, LoadReady::NotReady);
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(entry(1, MemKind::Store, 0x100)); // older, data ready
        let mut st2 = entry(2, MemKind::Store, 0x100); // younger, data missing
        st2.data_dep = Some(70);
        lsq.push(st2);
        lsq.push(entry(3, MemKind::Load, 0x100));
        lsq.refresh(|seq| seq == 70);
        assert_eq!(
            lsq.find(3).unwrap().load_ready,
            LoadReady::NotReady,
            "the youngest older store is the forwarding source"
        );
    }

    #[test]
    fn disjoint_store_does_not_block() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.push(entry(1, MemKind::Store, 0x200));
        lsq.push(entry(2, MemKind::Load, 0x100));
        lsq.refresh(|_| false);
        assert_eq!(lsq.find(2).unwrap().load_ready, LoadReady::ReadyCache);
    }

    #[test]
    fn squash_and_pop_head() {
        let mut lsq = LoadStoreQueue::new(8);
        for s in 1..=5 {
            lsq.push(entry(s, MemKind::Load, 0x100 + s as u32 * 4));
        }
        lsq.squash_younger(3);
        assert_eq!(lsq.len(), 3);
        assert_eq!(lsq.pop_head().map(|e| e.seq), Some(1));
        assert_eq!(lsq.len(), 2);
        assert!(lsq.find(1).is_none());
        assert_eq!(lsq.find(3).map(|e| e.seq), Some(3));
    }

    #[test]
    #[should_panic(expected = "LSQ overflow")]
    fn overflow_panics() {
        let mut lsq = LoadStoreQueue::new(1);
        lsq.push(entry(1, MemKind::Load, 0));
        lsq.push(entry(2, MemKind::Load, 4));
    }
}
