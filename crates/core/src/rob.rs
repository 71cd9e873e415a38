//! The Reorder Buffer: in-order allocate / out-of-order complete /
//! in-order commit window of the simulated processor.
//!
//! ReSim's simulated architecture "is based on reservation stations"
//! with a Reorder Buffer (Figure 1); this model folds the reservation
//! stations into the RB entries (an RUU-style organization, as in
//! SimpleScalar): each entry tracks the producer tags it still waits on,
//! its execution state and its completion time.
//!
//! # Layout
//!
//! The buffer is a **struct-of-arrays circular buffer**: each entry
//! field lives in its own parallel lane, indexed by physical slot.
//! Entries are exposed through the view types [`RobEntryView`] /
//! [`RobEntryMut`], which present the classic entry-at-a-time surface
//! over the lanes; [`RobEntry`] remains the owned form used to allocate
//! ([`ReorderBuffer::push`]).
//!
//! # Event-driven wakeup and select
//!
//! No per-cycle operation walks the whole window. The work is done once
//! per event instead:
//!
//! * **Select by bitset.** Two slot bitsets, `ready` (waiting with no
//!   pending producer) and `executing`, are kept current by every state
//!   change, allocation, wakeup and squash. The Issue stage's
//!   [`scan_ready`](ReorderBuffer::scan_ready) and the Writeback stage's
//!   [`scan_done`](ReorderBuffer::scan_done) visit only their set bits,
//!   in age order (`head..capacity`, then `0..head`).
//! * **Wakeup by waiter list.** Consumer slot `s` owns two operand edges,
//!   `2·s + k`, one per [`PendingSet`] slot `k`. Allocation links each
//!   awaited operand's edge into its producer slot's doubly-linked
//!   waiter list; a broadcast walks only that list and empties it; a
//!   squash unlinks the squashed consumers' edges.
//!
//! Every lane is sized at construction, so none of this allocates.
//! Invariant: a [`PendingSet`] slot holds a tag exactly when its edge is
//! linked into the list of a live, older producer.

use resim_trace::{OpClass, OtherRecord, TraceRecord};

/// Execution state of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstState {
    /// Dispatched; waiting for operands (or for issue bandwidth).
    Waiting,
    /// Issued to a functional unit; result available at `done_at`.
    Executing {
        /// Cycle the result becomes broadcastable.
        done_at: u64,
    },
    /// Result written back (broadcast) at cycle `at`.
    Completed {
        /// Writeback cycle — commit must happen strictly later (the
        /// paper's "flag" that stops same-cycle commit, §IV.B).
        at: u64,
    },
}

/// Lane encoding of [`InstState`] discriminants.
const ST_WAITING: u8 = 0;
const ST_EXECUTING: u8 = 1;
const ST_COMPLETED: u8 = 2;

/// Splits an [`InstState`] into its lane encoding `(code, time)`.
fn pack_state(state: InstState) -> (u8, u64) {
    match state {
        InstState::Waiting => (ST_WAITING, 0),
        InstState::Executing { done_at } => (ST_EXECUTING, done_at),
        InstState::Completed { at } => (ST_COMPLETED, at),
    }
}

/// Rebuilds an [`InstState`] from its lane encoding.
fn unpack_state(code: u8, time: u64) -> InstState {
    match code {
        ST_WAITING => InstState::Waiting,
        ST_EXECUTING => InstState::Executing { done_at: time },
        _ => InstState::Completed { at: time },
    }
}

/// Sentinel for an empty [`PendingSet`] slot. Age tags start at 1 and
/// could not reach this value in any conceivable simulation length.
const NO_TAG: u64 = u64::MAX;

/// The (≤ 2) producer tags an instruction still waits on.
///
/// A fixed two-slot set rather than a `Vec`: an instruction has at most
/// two source operands, and dispatch runs once per instruction on the
/// hottest path of the simulator — this keeps the reservation-station
/// wait list allocation-free. Slots hold a sentinel rather than an
/// `Option` so the set is 16 bytes and the wakeup's emptiness
/// check is a single AND-compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingSet([u64; 2]);

impl Default for PendingSet {
    fn default() -> Self {
        Self([NO_TAG; 2])
    }
}

impl PendingSet {
    /// An empty set (no outstanding producers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no producer is awaited.
    pub fn is_empty(&self) -> bool {
        // AND can only yield the all-ones sentinel if both slots hold it.
        self.0[0] & self.0[1] == NO_TAG
    }

    /// Whether `tag` is awaited.
    pub fn contains(&self, tag: u64) -> bool {
        self.0[0] == tag || self.0[1] == tag
    }

    /// Adds `tag` to the set.
    ///
    /// # Panics
    ///
    /// Panics if both slots are taken — an instruction has at most two
    /// source operands.
    pub fn push(&mut self, tag: u64) {
        debug_assert_ne!(tag, NO_TAG, "tag collides with the empty sentinel");
        let slot = self
            .0
            .iter_mut()
            .find(|s| **s == NO_TAG)
            .expect("an instruction waits on at most two producers");
        *slot = tag;
    }

    /// The awaited tags, in insertion order.
    pub fn tags(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().copied().filter(|&t| t != NO_TAG)
    }
}

impl FromIterator<u64> for PendingSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut set = PendingSet::new();
        for tag in iter {
            set.push(tag);
        }
        set
    }
}

/// One Reorder Buffer entry, in owned (array-of-structs) form — the
/// currency of allocation. Inside the buffer the fields
/// live in separate lanes; use [`ReorderBuffer::head`],
/// [`ReorderBuffer::at`] or [`ReorderBuffer::iter`] for in-place views.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Global age tag (unique, monotonically increasing).
    pub seq: u64,
    /// The pre-decoded instruction.
    pub record: TraceRecord,
    /// Execution state.
    pub state: InstState,
    /// Producer tags this instruction still waits on (≤ 2).
    pub pending: PendingSet,
    /// Whether the instruction occupies an LSQ slot.
    pub in_lsq: bool,
    /// Set on an (untagged) branch that the trace marks as mispredicted:
    /// its writeback triggers recovery.
    pub mispredicted_branch: bool,
}

impl RobEntry {
    /// Whether every source operand is available.
    pub fn operands_ready(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether the entry has written back.
    pub fn is_completed(&self) -> bool {
        matches!(self.state, InstState::Completed { .. })
    }

    /// Whether the entry is waiting to issue.
    pub fn is_waiting(&self) -> bool {
        self.state == InstState::Waiting
    }
}

/// A shared view of one live Reorder Buffer entry (lane-backed).
#[derive(Clone, Copy)]
pub struct RobEntryView<'a> {
    rob: &'a ReorderBuffer,
    phys: usize,
}

impl RobEntryView<'_> {
    /// Global age tag.
    pub fn seq(&self) -> u64 {
        self.rob.seq[self.phys]
    }

    /// The pre-decoded instruction.
    pub fn record(&self) -> &TraceRecord {
        &self.rob.record[self.phys]
    }

    /// Execution state.
    pub fn state(&self) -> InstState {
        unpack_state(self.rob.state[self.phys], self.rob.time[self.phys])
    }

    /// Producer tags this instruction still waits on.
    pub fn pending(&self) -> &PendingSet {
        &self.rob.pending[self.phys]
    }

    /// Whether the instruction occupies an LSQ slot.
    pub fn in_lsq(&self) -> bool {
        self.rob.in_lsq[self.phys]
    }

    /// Whether writeback of this (branch) entry triggers recovery.
    pub fn mispredicted_branch(&self) -> bool {
        self.rob.mispredicted[self.phys]
    }

    /// Whether every source operand is available.
    pub fn operands_ready(&self) -> bool {
        self.pending().is_empty()
    }

    /// Whether the entry has written back.
    pub fn is_completed(&self) -> bool {
        self.rob.state[self.phys] == ST_COMPLETED
    }

    /// Whether the entry is waiting to issue.
    pub fn is_waiting(&self) -> bool {
        self.rob.state[self.phys] == ST_WAITING
    }
}

impl std::fmt::Debug for RobEntryView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobEntry")
            .field("seq", &self.seq())
            .field("record", self.record())
            .field("state", &self.state())
            .field("pending", self.pending())
            .field("in_lsq", &self.in_lsq())
            .field("mispredicted_branch", &self.mispredicted_branch())
            .finish()
    }
}

/// A mutable view of one live Reorder Buffer entry. Mutation goes
/// through setters so the state/time lanes stay consistent.
pub struct RobEntryMut<'a> {
    rob: &'a mut ReorderBuffer,
    phys: usize,
}

impl RobEntryMut<'_> {
    /// Global age tag.
    pub fn seq(&self) -> u64 {
        self.rob.seq[self.phys]
    }

    /// The pre-decoded instruction.
    pub fn record(&self) -> &TraceRecord {
        &self.rob.record[self.phys]
    }

    /// Execution state.
    pub fn state(&self) -> InstState {
        unpack_state(self.rob.state[self.phys], self.rob.time[self.phys])
    }

    /// Whether writeback of this (branch) entry triggers recovery.
    pub fn mispredicted_branch(&self) -> bool {
        self.rob.mispredicted[self.phys]
    }

    /// Transitions the entry's execution state.
    pub fn set_state(&mut self, state: InstState) {
        self.rob.set_state_at(self.phys, state);
    }
}

/// A filler for unoccupied record-lane slots (never observed: every
/// accessor bounds to the live window).
fn filler_record() -> TraceRecord {
    TraceRecord::Other(OtherRecord {
        pc: 0,
        class: OpClass::Nop,
        dest: None,
        src1: None,
        src2: None,
        wrong_path: false,
    })
}

/// Sentinel for "no edge" in the waiter lists.
const NIL: u32 = u32::MAX;

/// One operand edge's links in its producer's waiter list.
#[derive(Debug, Clone, Copy)]
struct Edge {
    prev: u32,
    next: u32,
    /// Physical slot of the producer whose list holds the edge.
    producer: u32,
}

/// A fixed-capacity set of physical slots, one bit per slot.
#[derive(Debug, Clone)]
struct SlotSet(Box<[u64]>);

impl SlotSet {
    fn new(capacity: usize) -> Self {
        Self(vec![0; capacity.div_ceil(64)].into_boxed_slice())
    }

    fn set(&mut self, slot: usize, member: bool) {
        let bit = 1u64 << (slot % 64);
        let word = &mut self.0[slot / 64];
        *word = (*word & !bit) | (bit * u64::from(member));
    }

    /// Members in `lo..hi`, ascending.
    fn range(&self, lo: usize, hi: usize) -> SetBits<'_> {
        if lo >= hi {
            return SetBits {
                words: &self.0,
                cur: 0,
                word: 0,
                last: 0,
                last_mask: 0,
            };
        }
        let (word, last) = (lo / 64, (hi - 1) / 64);
        let last_mask = !0u64 >> (63 - (hi - 1) % 64);
        let mut cur = self.0[word] & (!0u64 << (lo % 64));
        if word == last {
            cur &= last_mask;
        }
        SetBits {
            words: &self.0,
            cur,
            word,
            last,
            last_mask,
        }
    }
}

/// Iterator over the set bits of a [`SlotSet`] range.
struct SetBits<'a> {
    words: &'a [u64],
    /// Unvisited bits of word `word`.
    cur: u64,
    word: usize,
    last: usize,
    /// Bits of word `last` inside the range.
    last_mask: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            if self.word >= self.last {
                return None;
            }
            self.word += 1;
            self.cur = self.words[self.word];
            if self.word == self.last {
                self.cur &= self.last_mask;
            }
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.word * 64 + bit)
    }
}

/// A circular, age-ordered Reorder Buffer in struct-of-arrays layout
/// with event-driven wakeup and select (see the module docs).
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    /// Age-tag lane; strictly increasing in logical (age) order.
    seq: Box<[u64]>,
    /// State-code lane ([`ST_WAITING`] / [`ST_EXECUTING`] / [`ST_COMPLETED`]).
    state: Box<[u8]>,
    /// Companion time lane: `done_at` while executing, writeback cycle
    /// once completed.
    time: Box<[u64]>,
    /// Outstanding-producer lane.
    pending: Box<[PendingSet]>,
    /// LSQ-occupancy lane.
    in_lsq: Box<[bool]>,
    /// Mispredicted-branch lane.
    mispredicted: Box<[bool]>,
    /// Instruction payload lane — deliberately last: the scans never
    /// touch it.
    record: Box<[TraceRecord]>,
    /// Live slots that are waiting with no pending producer.
    ready: SlotSet,
    /// Live slots that are executing.
    executing: SlotSet,
    /// First edge of each producer slot's waiter list ([`NIL`] if none).
    waiters: Box<[u32]>,
    /// Operand edge `2·slot + k` of consumer `slot`, pending slot `k`;
    /// meaningful only while that pending slot holds a tag.
    edges: Box<[Edge]>,
    /// Physical index of the oldest entry.
    head: usize,
    /// Live entries.
    len: usize,
}

impl ReorderBuffer {
    /// Creates an empty RB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or too large to index its operand
    /// edges with `u32`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RB capacity must be non-zero");
        assert!(
            capacity < (NIL / 2) as usize,
            "RB capacity {capacity} exceeds the waiter-list index range"
        );
        let no_edge = Edge {
            prev: NIL,
            next: NIL,
            producer: NIL,
        };
        Self {
            seq: vec![0; capacity].into_boxed_slice(),
            state: vec![ST_WAITING; capacity].into_boxed_slice(),
            time: vec![0; capacity].into_boxed_slice(),
            pending: vec![PendingSet::new(); capacity].into_boxed_slice(),
            in_lsq: vec![false; capacity].into_boxed_slice(),
            mispredicted: vec![false; capacity].into_boxed_slice(),
            record: vec![filler_record(); capacity].into_boxed_slice(),
            ready: SlotSet::new(capacity),
            executing: SlotSet::new(capacity),
            waiters: vec![NIL; capacity].into_boxed_slice(),
            edges: vec![no_edge; 2 * capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.seq.len()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no instructions are in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether allocation would fail.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Physical slot of logical (age-order) index `idx`.
    #[inline]
    fn phys(&self, idx: usize) -> usize {
        let p = self.head + idx;
        // Single conditional subtract instead of a modulo: capacity is
        // not required to be a power of two.
        if p >= self.capacity() { p - self.capacity() } else { p }
    }

    /// Logical (age-order) index of live physical slot `p`.
    #[inline]
    fn logical(&self, p: usize) -> usize {
        if p >= self.head { p - self.head } else { p + self.capacity() - self.head }
    }

    /// Allocates at the tail.
    ///
    /// Each pending tag whose producer is still outstanding (see
    /// [`ReorderBuffer::is_outstanding`]) is linked into the producer's
    /// waiter list; any other tag is dropped, its result being
    /// available already.
    ///
    /// # Panics
    ///
    /// Panics if full or if `entry.seq` does not exceed the current tail
    /// seq (ages must be monotone).
    pub fn push(&mut self, entry: RobEntry) {
        assert!(!self.is_full(), "RB overflow");
        if self.len > 0 {
            let tail_seq = self.seq[self.phys(self.len - 1)];
            assert!(entry.seq > tail_seq, "RB ages must increase");
        }
        let p = self.phys(self.len);
        let mut pending = entry.pending;
        for (k, tag) in pending.0.iter_mut().enumerate() {
            if *tag == NO_TAG {
                continue;
            }
            match self.position(*tag).map(|idx| self.phys(idx)) {
                Some(producer) if self.state[producer] != ST_COMPLETED => {
                    self.link(2 * p + k, producer);
                }
                _ => *tag = NO_TAG,
            }
        }
        self.seq[p] = entry.seq;
        self.pending[p] = pending;
        self.in_lsq[p] = entry.in_lsq;
        self.mispredicted[p] = entry.mispredicted_branch;
        self.record[p] = entry.record;
        self.set_state_at(p, entry.state);
        self.len += 1;
    }

    /// Writes slot `p`'s state lanes and its select-bitset membership.
    fn set_state_at(&mut self, p: usize, state: InstState) {
        let (code, time) = pack_state(state);
        self.state[p] = code;
        self.time[p] = time;
        self.executing.set(p, code == ST_EXECUTING);
        self.ready.set(p, code == ST_WAITING && self.pending[p].is_empty());
    }

    /// Links operand edge `edge` at the front of `producer`'s waiter list.
    fn link(&mut self, edge: usize, producer: usize) {
        let first = self.waiters[producer];
        self.edges[edge] = Edge {
            prev: NIL,
            next: first,
            producer: producer as u32,
        };
        if first != NIL {
            self.edges[first as usize].prev = edge as u32;
        }
        self.waiters[producer] = edge as u32;
    }

    /// Unlinks operand edge `edge` from its producer's waiter list.
    fn unlink(&mut self, edge: usize) {
        let Edge {
            prev,
            next,
            producer,
        } = self.edges[edge];
        if prev == NIL {
            self.waiters[producer as usize] = next;
        } else {
            self.edges[prev as usize].next = next;
        }
        if next != NIL {
            self.edges[next as usize].prev = prev;
        }
    }

    /// Wakes every consumer on slot `p`'s waiter list and empties it.
    fn wake(&mut self, p: usize) {
        let mut edge = std::mem::replace(&mut self.waiters[p], NIL);
        while edge != NIL {
            let e = edge as usize;
            let consumer = e / 2;
            self.pending[consumer].0[e % 2] = NO_TAG;
            if self.state[consumer] == ST_WAITING && self.pending[consumer].is_empty() {
                self.ready.set(consumer, true);
            }
            edge = self.edges[e].next;
        }
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<RobEntryView<'_>> {
        (self.len > 0).then_some(RobEntryView {
            phys: self.head,
            rob: self,
        })
    }

    /// Retires the head slot in place, without materializing an owned
    /// [`RobEntry`] — commit reads what it needs through
    /// [`ReorderBuffer::head`] first and then drops the slot. Consumers
    /// still waiting on the head (only possible if it never broadcast)
    /// are woken: a producer that left the window is no longer
    /// outstanding.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the buffer is empty.
    pub fn drop_head(&mut self) {
        debug_assert!(self.len > 0, "drop_head on an empty RB");
        let p = self.head;
        // The oldest entry has no live producer, so no linked edges.
        debug_assert!(self.pending[p].is_empty(), "the head waits on nothing");
        self.wake(p);
        self.ready.set(p, false);
        self.executing.set(p, false);
        self.head = self.phys(1);
        self.len -= 1;
    }

    /// The logical (age-order) position of age tag `seq`, if live.
    ///
    /// A recovery leaves a gap in the tag sequence (squashed tags are
    /// never re-issued), and allocation after it is contiguous again. So
    /// two probes find every tag older than the first gap or younger
    /// than the last: `seq - head_seq` entries past the head, or
    /// `tail_seq - seq` entries before the tail. A tag between two gaps
    /// falls back to a binary search over the strictly increasing seq
    /// lane, bounded by the two probes.
    fn position(&self, seq: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let head_seq = self.seq[self.head];
        let tail_seq = self.seq[self.phys(self.len - 1)];
        if seq < head_seq || seq > tail_seq {
            return None;
        }
        let delta = (seq - head_seq) as usize;
        if delta < self.len && self.seq[self.phys(delta)] == seq {
            return Some(delta);
        }
        let back = (tail_seq - seq) as usize;
        if back < self.len && self.seq[self.phys(self.len - 1 - back)] == seq {
            return Some(self.len - 1 - back);
        }
        // Gapped tags sort the match strictly before `delta` and
        // strictly after `len - 1 - back`.
        let mut lo = (self.len - 1).saturating_sub(back);
        let mut hi = delta.min(self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.seq[self.phys(mid)] < seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.len && self.seq[self.phys(lo)] == seq).then_some(lo)
    }

    /// The entry at position `idx` (0 = oldest), if in range.
    ///
    /// Positions are stable while no entry is pushed, popped or
    /// squashed — stages that first scan the window and then revisit
    /// their picks use this for O(1) access.
    pub fn at(&self, idx: usize) -> Option<RobEntryView<'_>> {
        (idx < self.len).then(|| RobEntryView {
            phys: self.phys(idx),
            rob: self,
        })
    }

    /// Mutable access by position (0 = oldest).
    pub fn at_mut(&mut self, idx: usize) -> Option<RobEntryMut<'_>> {
        (idx < self.len).then(|| RobEntryMut {
            phys: self.phys(idx),
            rob: self,
        })
    }

    /// Whether `seq` names a producer whose result is still outstanding
    /// (present and not completed). Absent entries have committed (or
    /// been squashed along with every possible consumer).
    ///
    /// O(1) on the contiguous fast path (O(log n) after a squash) — this
    /// is Dispatch's per-operand dependence probe and the LSQ refresh
    /// callback.
    pub fn is_outstanding(&self, seq: u64) -> bool {
        self.position(seq)
            .is_some_and(|idx| self.state[self.phys(idx)] != ST_COMPLETED)
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = RobEntryView<'_>> {
        (0..self.len).map(|idx| RobEntryView {
            phys: self.phys(idx),
            rob: self,
        })
    }

    /// Members of `set` in age order: the live window starts at `head`
    /// and may wrap to slot 0, and dead slots are never members.
    fn age_order<'a>(&self, set: &'a SlotSet) -> impl Iterator<Item = usize> + 'a {
        set.range(self.head, self.capacity())
            .chain(set.range(0, self.head))
    }

    /// Appends `(position, seq)` of every entry that is waiting with all
    /// operands ready, oldest first — the Issue stage's wakeup scan,
    /// visiting only the `ready` bitset's members.
    pub fn scan_ready(&self, out: &mut Vec<(usize, u64)>) {
        for p in self.age_order(&self.ready) {
            out.push((self.logical(p), self.seq[p]));
        }
    }

    /// Appends `(position, seq)` of the oldest entries whose execution
    /// finishes by `cycle`, until `out` holds `limit` — the Writeback
    /// stage's select scan, visiting only the `executing` bitset's
    /// members.
    pub fn scan_done(&self, cycle: u64, limit: usize, out: &mut Vec<(usize, u64)>) {
        for p in self.age_order(&self.executing) {
            if out.len() >= limit {
                return;
            }
            if self.time[p] <= cycle {
                out.push((self.logical(p), self.seq[p]));
            }
        }
    }

    /// Broadcasts producer `seq`'s result (the wakeup of §III's
    /// Writeback): clears it from the pending set of every consumer on
    /// its waiter list, and empties the list. A tag that names no live
    /// entry has no waiters.
    pub fn broadcast(&mut self, seq: u64) {
        if let Some(idx) = self.position(seq) {
            self.wake(self.phys(idx));
        }
    }

    /// Squashes every entry younger than `seq`, returning how many.
    pub fn squash_younger(&mut self, seq: u64) -> usize {
        // First logical index with a tag strictly greater than `seq`
        // (the seq lane is strictly increasing).
        let mut lo = 0;
        let mut hi = self.len;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.seq[self.phys(mid)] <= seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Youngest first: every waiter of a squashed producer is younger
        // than it, so its list is empty by the time the producer is
        // reached.
        for idx in (lo..self.len).rev() {
            let p = self.phys(idx);
            for k in 0..2 {
                if self.pending[p].0[k] != NO_TAG {
                    self.unlink(2 * p + k);
                }
            }
            debug_assert_eq!(self.waiters[p], NIL, "a squashed producer's waiters are squashed");
            self.ready.set(p, false);
            self.executing.set(p, false);
        }
        let squashed = self.len - lo;
        self.len = lo;
        squashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64) -> RobEntry {
        RobEntry {
            seq,
            record: TraceRecord::Other(OtherRecord {
                pc: (seq as u32) * 4,
                class: OpClass::IntAlu,
                dest: None,
                src1: None,
                src2: None,
                wrong_path: false,
            }),
            state: InstState::Waiting,
            pending: PendingSet::new(),
            in_lsq: false,
            mispredicted_branch: false,
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut rb = ReorderBuffer::new(4);
        for s in 1..=4 {
            rb.push(entry(s));
        }
        assert!(rb.is_full());
        assert_eq!(rb.head().unwrap().seq(), 1);
        rb.drop_head();
        assert_eq!(rb.head().unwrap().seq(), 2);
        assert_eq!(rb.len(), 3);
    }

    #[test]
    #[should_panic(expected = "RB overflow")]
    fn overflow_panics() {
        let mut rb = ReorderBuffer::new(1);
        rb.push(entry(1));
        rb.push(entry(2));
    }

    #[test]
    #[should_panic(expected = "ages must increase")]
    fn non_monotone_age_panics() {
        let mut rb = ReorderBuffer::new(4);
        rb.push(entry(5));
        rb.push(entry(3));
    }

    #[test]
    fn broadcast_clears_pending() {
        let mut rb = ReorderBuffer::new(4);
        rb.push(entry(1));
        let mut e2 = entry(2);
        e2.pending = [1].into_iter().collect();
        rb.push(e2);
        let mut e3 = entry(3);
        e3.pending = [1, 2].into_iter().collect();
        rb.push(e3);
        rb.broadcast(1);
        assert!(rb.at(1).unwrap().operands_ready());
        assert_eq!(
            rb.at(2).unwrap().pending().tags().collect::<Vec<_>>(),
            [2]
        );
    }

    #[test]
    fn pending_set_semantics() {
        let mut p = PendingSet::new();
        assert!(p.is_empty());
        p.push(7);
        p.push(9);
        assert!(!p.is_empty());
        assert!(p.contains(7) && p.contains(9));
        assert!(!p.contains(8));
        assert_eq!(p.tags().collect::<Vec<_>>(), [7, 9]);
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn pending_set_overflow_panics() {
        let mut p = PendingSet::new();
        p.push(1);
        p.push(2);
        p.push(3);
    }

    #[test]
    fn positional_access_matches_age_order() {
        let mut rb = ReorderBuffer::new(4);
        for s in 1..=3 {
            rb.push(entry(s));
        }
        assert_eq!(rb.at(0).unwrap().seq(), 1);
        assert_eq!(rb.at(2).unwrap().seq(), 3);
        assert!(rb.at(3).is_none());
        rb.at_mut(1)
            .unwrap()
            .set_state(InstState::Completed { at: 9 });
        assert!(rb.at(1).unwrap().is_completed());
        assert!(!rb.is_outstanding(2), "position 1 holds age tag 2");
    }

    #[test]
    fn squash_younger_keeps_older() {
        let mut rb = ReorderBuffer::new(8);
        for s in 1..=6 {
            rb.push(entry(s));
        }
        assert_eq!(rb.squash_younger(3), 3);
        assert_eq!(rb.len(), 3);
        assert_eq!(rb.head().unwrap().seq(), 1);
    }

    #[test]
    fn outstanding_tracks_completion() {
        let mut rb = ReorderBuffer::new(4);
        rb.push(entry(1));
        assert!(rb.is_outstanding(1));
        rb.at_mut(0)
            .unwrap()
            .set_state(InstState::Completed { at: 5 });
        assert!(!rb.is_outstanding(1));
        assert!(!rb.is_outstanding(99), "absent entries are not outstanding");
    }

    #[test]
    fn tag_lookup_handles_gapped_tags_after_squash() {
        // A recovery squashes tags but never resets the allocator, so
        // the live window can hold non-contiguous ages — exactly the
        // case the binary-search fallback exists for.
        let mut rb = ReorderBuffer::new(8);
        for s in [1, 2, 5, 9] {
            rb.push(entry(s));
        }
        // Every live entry is waiting, so "outstanding" reads "found".
        assert!(rb.is_outstanding(5));
        assert!(rb.is_outstanding(9));
        assert!(!rb.is_outstanding(3));
        assert!(!rb.is_outstanding(4));
        assert!(!rb.is_outstanding(10));
        rb.at_mut(2)
            .unwrap()
            .set_state(InstState::Completed { at: 1 });
        assert!(!rb.is_outstanding(5));
    }

    #[test]
    fn lane_scans_match_entry_predicates() {
        let mut rb = ReorderBuffer::new(8);
        rb.push(entry(1)); // waiting, ready
        let mut e2 = entry(2);
        e2.pending = [1].into_iter().collect();
        rb.push(e2); // waiting, not ready
        let mut e3 = entry(3);
        e3.state = InstState::Executing { done_at: 4 };
        rb.push(e3);
        let mut e4 = entry(4);
        e4.state = InstState::Executing { done_at: 7 };
        rb.push(e4);

        let mut ready = Vec::new();
        rb.scan_ready(&mut ready);
        assert_eq!(ready, [(0, 1)]);

        let mut done = Vec::new();
        rb.scan_done(5, 4, &mut done);
        assert_eq!(done, [(2, 3)], "done_at 7 is not due at cycle 5");

        done.clear();
        rb.scan_done(7, 0, &mut done);
        assert!(done.is_empty(), "limit 0 selects nothing");
    }

    #[test]
    fn circular_wraparound_preserves_age_order() {
        // Pop/push enough that the physical window wraps the lane ends.
        let mut rb = ReorderBuffer::new(4);
        for s in 1..=4 {
            rb.push(entry(s));
        }
        for s in 1..=3 {
            assert_eq!(rb.head().unwrap().seq(), s);
            rb.drop_head();
        }
        for s in 5..=7 {
            rb.push(entry(s));
        }
        assert!(rb.is_full());
        let seqs: Vec<_> = rb.iter().map(|e| e.seq()).collect();
        assert_eq!(seqs, [4, 5, 6, 7]);
        assert!(rb.is_outstanding(6));
        rb.broadcast(42); // must not touch dead slots
        assert_eq!(rb.squash_younger(5), 2);
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.iter().map(|e| e.seq()).collect::<Vec<_>>(), [4, 5]);
    }
}
