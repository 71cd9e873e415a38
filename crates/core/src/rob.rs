//! The Reorder Buffer: in-order allocate / out-of-order complete /
//! in-order commit window of the simulated processor.
//!
//! ReSim's simulated architecture "is based on reservation stations"
//! with a Reorder Buffer (Figure 1); this model folds the reservation
//! stations into the RB entries (an RUU-style organization, as in
//! SimpleScalar): each entry tracks the producers it still waits on,
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
//! # Producer handles
//!
//! Every entry is named by a [`Producer`] handle, its age tag plus the
//! physical slot it was allocated to, which [`ReorderBuffer::push`]
//! returns. The rename table, the pending sets and the LSQ's
//! address/data dependences all hold handles, so "is this producer
//! still outstanding?" ([`ReorderBuffer::is_outstanding`]) is one slot
//! read: the slot is live, its tag lane still holds the handle's tag,
//! and it has not completed. The tag acts as the slot's generation: once
//! the entry commits or is squashed and a younger one reuses the slot,
//! the old handle reads as not outstanding, as it must.
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
//!   awaited operand's edge into the waiter list of the slot its handle
//!   names; completion ([`RobEntryMut::complete`]) walks only that list
//!   and empties it; a squash unlinks the squashed consumers' edges.
//!
//! Every lane is sized at construction, so none of this allocates.
//! Invariant: a [`PendingSet`] slot holds a handle exactly when its edge
//! is linked into the list of a live, older producer.

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

/// Sentinel tag for an empty [`PendingSet`] slot and for "no LSQ
/// entry". Age tags start at 1 and could not reach this value in any
/// conceivable simulation length.
const NO_TAG: u64 = u64::MAX;

/// An O(1) handle on a Reorder Buffer entry: its age tag and the
/// physical slot it was allocated to (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Producer {
    /// Age tag of the entry; also the slot's generation.
    pub seq: u64,
    /// Physical slot the entry was allocated to.
    pub slot: u32,
}

/// The empty [`PendingSet`] slot.
const NO_PRODUCER: Producer = Producer {
    seq: NO_TAG,
    slot: NIL,
};

/// The (≤ 2) producers an instruction still waits on.
///
/// A fixed two-slot set rather than a `Vec`: an instruction has at most
/// two source operands, and dispatch runs once per instruction on the
/// hottest path of the simulator — this keeps the reservation-station
/// wait list allocation-free. Slots hold a sentinel rather than an
/// `Option` so the wakeup's emptiness check is a single AND-compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingSet([Producer; 2]);

impl Default for PendingSet {
    fn default() -> Self {
        Self([NO_PRODUCER; 2])
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
        self.0[0].seq & self.0[1].seq == NO_TAG
    }

    /// Whether `producer` is awaited.
    pub fn contains(&self, producer: Producer) -> bool {
        self.0[0] == producer || self.0[1] == producer
    }

    /// Adds `producer` to the set.
    ///
    /// # Panics
    ///
    /// Panics if both slots are taken — an instruction has at most two
    /// source operands.
    pub fn push(&mut self, producer: Producer) {
        debug_assert_ne!(producer.seq, NO_TAG, "tag collides with the empty sentinel");
        let slot = self
            .0
            .iter_mut()
            .find(|s| s.seq == NO_TAG)
            .expect("an instruction waits on at most two producers");
        *slot = producer;
    }

    /// The awaited producers' age tags, in insertion order.
    pub fn tags(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(|p| p.seq).filter(|&t| t != NO_TAG)
    }
}

impl FromIterator<Producer> for PendingSet {
    fn from_iter<I: IntoIterator<Item = Producer>>(iter: I) -> Self {
        let mut set = PendingSet::new();
        for producer in iter {
            set.push(producer);
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
    /// Producers this instruction still waits on (≤ 2).
    pub pending: PendingSet,
    /// Ordinal of the instruction's LSQ entry
    /// ([`LoadStoreQueue::push`](crate::LoadStoreQueue::push)), for a
    /// memory instruction.
    pub lsq_ordinal: Option<u64>,
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

    /// The entry's producer handle.
    pub fn handle(&self) -> Producer {
        Producer {
            seq: self.seq(),
            slot: self.phys as u32,
        }
    }

    /// Producers this instruction still waits on.
    pub fn pending(&self) -> &PendingSet {
        &self.rob.pending[self.phys]
    }

    /// Ordinal of the instruction's LSQ entry, if it has one.
    pub fn lsq_ordinal(&self) -> Option<u64> {
        let ordinal = self.rob.lsq_ordinal[self.phys];
        (ordinal != NO_TAG).then_some(ordinal)
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
            .field("lsq_ordinal", &self.lsq_ordinal())
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

    /// Writes the entry back at cycle `at` (the wakeup of §III's
    /// Writeback): marks it completed, clears it from the pending set of
    /// every consumer on its waiter list, and empties the list.
    pub fn complete(&mut self, at: u64) {
        self.set_state(InstState::Completed { at });
        self.rob.wake(self.phys);
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
    /// LSQ-ordinal lane ([`NO_TAG`] for a non-memory instruction).
    lsq_ordinal: Box<[u64]>,
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
            lsq_ordinal: vec![NO_TAG; capacity].into_boxed_slice(),
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
        if p >= self.capacity() {
            p - self.capacity()
        } else {
            p
        }
    }

    /// Logical (age-order) index of live physical slot `p`.
    #[inline]
    fn logical(&self, p: usize) -> usize {
        if p >= self.head {
            p - self.head
        } else {
            p + self.capacity() - self.head
        }
    }

    /// Allocates at the tail and returns the new entry's handle.
    ///
    /// Each pending producer that is still outstanding (see
    /// [`ReorderBuffer::is_outstanding`]) gets the operand's edge linked
    /// into its slot's waiter list; any other is dropped, its result
    /// being available already.
    ///
    /// # Panics
    ///
    /// Panics if full or if `entry.seq` does not exceed the current tail
    /// seq (ages must be monotone).
    pub fn push(&mut self, entry: RobEntry) -> Producer {
        assert!(!self.is_full(), "RB overflow");
        if self.len > 0 {
            let tail_seq = self.seq[self.phys(self.len - 1)];
            assert!(entry.seq > tail_seq, "RB ages must increase");
        }
        let p = self.phys(self.len);
        let mut pending = entry.pending;
        for (k, producer) in pending.0.iter_mut().enumerate() {
            if producer.seq == NO_TAG {
                continue;
            }
            if self.is_outstanding(*producer) {
                self.link(2 * p + k, producer.slot as usize);
            } else {
                *producer = NO_PRODUCER;
            }
        }
        self.seq[p] = entry.seq;
        self.pending[p] = pending;
        self.lsq_ordinal[p] = entry.lsq_ordinal.unwrap_or(NO_TAG);
        self.mispredicted[p] = entry.mispredicted_branch;
        self.record[p] = entry.record;
        self.set_state_at(p, entry.state);
        self.len += 1;
        Producer {
            seq: entry.seq,
            slot: p as u32,
        }
    }

    /// Writes slot `p`'s state lanes and its select-bitset membership.
    fn set_state_at(&mut self, p: usize, state: InstState) {
        let (code, time) = pack_state(state);
        self.state[p] = code;
        self.time[p] = time;
        self.executing.set(p, code == ST_EXECUTING);
        self.ready
            .set(p, code == ST_WAITING && self.pending[p].is_empty());
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
            self.pending[consumer].0[e % 2] = NO_PRODUCER;
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

    /// Whether `producer` names an entry whose result is still
    /// outstanding: its slot is live, still holds its tag, and has not
    /// completed. A committed or squashed producer is not outstanding,
    /// nor is one whose slot a younger entry has reused. O(1) — this is
    /// the allocation-time operand probe and the LSQ's dependence check.
    pub fn is_outstanding(&self, producer: Producer) -> bool {
        let slot = producer.slot as usize;
        self.seq.get(slot) == Some(&producer.seq)
            && self.state[slot] != ST_COMPLETED
            && self.logical(slot) < self.len
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
                if self.pending[p].0[k].seq != NO_TAG {
                    self.unlink(2 * p + k);
                }
            }
            debug_assert_eq!(
                self.waiters[p], NIL,
                "a squashed producer's waiters are squashed"
            );
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
            lsq_ordinal: None,
            mispredicted_branch: false,
        }
    }

    fn waiting_on(seq: u64, producers: &[Producer]) -> RobEntry {
        RobEntry {
            pending: producers.iter().copied().collect(),
            ..entry(seq)
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
    fn completion_clears_pending() {
        let mut rb = ReorderBuffer::new(4);
        let p1 = rb.push(entry(1));
        let p2 = rb.push(waiting_on(2, &[p1]));
        rb.push(waiting_on(3, &[p1, p2]));
        rb.at_mut(0).unwrap().complete(7);
        assert_eq!(rb.at(0).unwrap().state(), InstState::Completed { at: 7 });
        assert!(rb.at(1).unwrap().operands_ready());
        assert_eq!(rb.at(2).unwrap().pending().tags().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn pending_set_semantics() {
        let (a, b) = (Producer { seq: 7, slot: 0 }, Producer { seq: 9, slot: 1 });
        let mut p = PendingSet::new();
        assert!(p.is_empty());
        p.push(a);
        p.push(b);
        assert!(!p.is_empty());
        assert!(p.contains(a) && p.contains(b));
        assert!(!p.contains(Producer { seq: 8, slot: 0 }));
        assert_eq!(p.tags().collect::<Vec<_>>(), [7, 9]);
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn pending_set_overflow_panics() {
        let mut p = PendingSet::new();
        for seq in 1..=3 {
            p.push(Producer { seq, slot: 0 });
        }
    }

    #[test]
    fn positional_access_matches_age_order() {
        let mut rb = ReorderBuffer::new(4);
        let handles: Vec<Producer> = (1..=3).map(|s| rb.push(entry(s))).collect();
        assert_eq!(rb.at(0).unwrap().seq(), 1);
        assert_eq!(rb.at(2).unwrap().seq(), 3);
        assert!(rb.at(3).is_none());
        assert_eq!(rb.at(1).unwrap().handle(), handles[1]);
        rb.at_mut(1)
            .unwrap()
            .set_state(InstState::Completed { at: 9 });
        assert!(rb.at(1).unwrap().is_completed());
        assert!(!rb.is_outstanding(handles[1]), "position 1 holds age tag 2");
        assert!(rb.is_outstanding(handles[2]));
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
        let p1 = rb.push(entry(1));
        assert!(rb.is_outstanding(p1));
        rb.at_mut(0)
            .unwrap()
            .set_state(InstState::Completed { at: 5 });
        assert!(!rb.is_outstanding(p1));
        let absent = Producer { seq: 99, slot: 3 };
        assert!(
            !rb.is_outstanding(absent),
            "absent entries are not outstanding"
        );
        let out_of_range = Producer { seq: 1, slot: 40 };
        assert!(!rb.is_outstanding(out_of_range));
    }

    #[test]
    fn stale_handles_are_not_outstanding() {
        let mut rb = ReorderBuffer::new(2);
        let committed = rb.push(entry(1));
        let squashed = rb.push(entry(2));
        // Commit the head without completing it, as a drained window
        // might: a producer that left the window is not outstanding.
        rb.drop_head();
        assert!(!rb.is_outstanding(committed), "committed producer");
        assert!(rb.is_outstanding(squashed));
        rb.squash_younger(1);
        assert!(!rb.is_outstanding(squashed), "squashed producer");
        // The allocator resumes after the squash point; the new entries
        // reuse both slots.
        let reused = rb.push(entry(2));
        let younger = rb.push(entry(3));
        assert_eq!(reused.slot, squashed.slot);
        assert_eq!(younger.slot, committed.slot);
        assert!(rb.is_outstanding(reused) && rb.is_outstanding(younger));
        assert!(
            !rb.is_outstanding(committed),
            "slot reused by a younger entry"
        );
        // A consumer handed a stale handle does not wait on it.
        rb.drop_head();
        let consumer = rb.push(waiting_on(4, &[committed, younger]));
        assert_eq!(consumer.slot, reused.slot);
        assert_eq!(rb.at(1).unwrap().pending().tags().collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn lane_scans_match_entry_predicates() {
        let mut rb = ReorderBuffer::new(8);
        let p1 = rb.push(entry(1)); // waiting, ready
        rb.push(waiting_on(2, &[p1])); // waiting, not ready
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
        let handles: Vec<Producer> = (5..=7).map(|s| rb.push(entry(s))).collect();
        assert!(rb.is_full());
        let seqs: Vec<_> = rb.iter().map(|e| e.seq()).collect();
        assert_eq!(seqs, [4, 5, 6, 7]);
        assert!(rb.is_outstanding(handles[1]));
        assert_eq!(rb.squash_younger(5), 2);
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.iter().map(|e| e.seq()).collect::<Vec<_>>(), [4, 5]);
        assert!(!rb.is_outstanding(handles[1]));
    }
}
