//! The instrument identifiers and event kinds of
//! [`MetricsRecorder`](crate::MetricsRecorder).
//!
//! Identifiers are plain enums (not strings) so the recorder can back
//! every instrument with a fixed-index array — no hashing, no
//! allocation, nothing on the hot path but an indexed add.

/// Monotonic counters: the engine's, derived from what it feeds the
/// recorder, and the serve counters `resim-serve` adds itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Instructions fetched into the IFQ (wrong path included).
    Fetched,
    /// Instructions dispatched into the RB/LSQ.
    Dispatched,
    /// Instructions issued to functional units.
    Issued,
    /// Instructions written back (result broadcast).
    WrittenBack,
    /// LSQ entries the `Lsq_refresh` stage covers each cycle (the live
    /// queue length). The engine computes load readiness on demand in
    /// Issue, so this counts the hardware stage's scan, not host work.
    LsqRefreshed,
    /// Instructions committed in order.
    Committed,
    /// Direction-misprediction recoveries.
    MispredictRecoveries,
    /// Instructions squashed by recoveries.
    Squashed,
    /// Fetch-time target misfetches.
    Misfetches,
    /// L1 instruction-cache misses observed at fetch.
    IcacheMisses,
    /// L1 data-cache misses observed at issue/commit.
    DcacheMisses,
    /// Protocol requests a `resim-serve` server answered.
    ServeRequests,
    /// Malformed/unknown requests answered with a typed error response.
    ServeErrors,
    /// Scenario submissions accepted into the serve job queue.
    ServeJobsSubmitted,
    /// Serve jobs run to completion (success or failure).
    ServeJobsCompleted,
    /// Grid cells the server actually simulated (result-cache misses).
    ServeCellsSimulated,
    /// Grid cells answered from the in-memory result cache.
    ServeCellsMemHits,
    /// Grid cells answered from the on-disk result cache.
    ServeCellsDiskHits,
    /// On-disk result-cache entries rejected as corrupt (and honestly
    /// re-simulated).
    ServeCacheRejected,
}

impl Counter {
    /// Every counter, in stable export order.
    pub const ALL: [Counter; 19] = [
        Counter::Fetched,
        Counter::Dispatched,
        Counter::Issued,
        Counter::WrittenBack,
        Counter::LsqRefreshed,
        Counter::Committed,
        Counter::MispredictRecoveries,
        Counter::Squashed,
        Counter::Misfetches,
        Counter::IcacheMisses,
        Counter::DcacheMisses,
        Counter::ServeRequests,
        Counter::ServeErrors,
        Counter::ServeJobsSubmitted,
        Counter::ServeJobsCompleted,
        Counter::ServeCellsSimulated,
        Counter::ServeCellsMemHits,
        Counter::ServeCellsDiskHits,
        Counter::ServeCacheRejected,
    ];

    /// Stable machine-readable name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Fetched => "fetched",
            Counter::Dispatched => "dispatched",
            Counter::Issued => "issued",
            Counter::WrittenBack => "written_back",
            Counter::LsqRefreshed => "lsq_refreshed",
            Counter::Committed => "committed",
            Counter::MispredictRecoveries => "mispredict_recoveries",
            Counter::Squashed => "squashed",
            Counter::Misfetches => "misfetches",
            Counter::IcacheMisses => "icache_misses",
            Counter::DcacheMisses => "dcache_misses",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeErrors => "serve_errors",
            Counter::ServeJobsSubmitted => "serve_jobs_submitted",
            Counter::ServeJobsCompleted => "serve_jobs_completed",
            Counter::ServeCellsSimulated => "serve_cells_simulated",
            Counter::ServeCellsMemHits => "serve_cells_served_mem",
            Counter::ServeCellsDiskHits => "serve_cells_served_disk",
            Counter::ServeCacheRejected => "serve_cache_rejected",
        }
    }
}

/// Sampled values (one observation per simulated cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// IFQ fill at end of cycle.
    IfqOccupancy,
    /// Reorder-buffer fill at end of cycle.
    RbOccupancy,
    /// LSQ fill at end of cycle.
    LsqOccupancy,
}

impl Gauge {
    /// Every gauge, in stable export order.
    pub const ALL: [Gauge; 3] = [Gauge::IfqOccupancy, Gauge::RbOccupancy, Gauge::LsqOccupancy];

    /// Stable machine-readable name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::IfqOccupancy => "ifq_occupancy",
            Gauge::RbOccupancy => "rb_occupancy",
            Gauge::LsqOccupancy => "lsq_occupancy",
        }
    }
}

/// Power-of-two-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Instructions fetched per cycle the Fetch stage ran.
    FetchedPerCycle,
    /// Instructions issued per cycle.
    IssuedPerCycle,
    /// Instructions committed per cycle.
    CommittedPerCycle,
    /// Instructions squashed per misprediction recovery.
    SquashDepth,
}

impl Hist {
    /// Every histogram, in stable export order.
    pub const ALL: [Hist; 4] = [
        Hist::FetchedPerCycle,
        Hist::IssuedPerCycle,
        Hist::CommittedPerCycle,
        Hist::SquashDepth,
    ];

    /// Stable machine-readable name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Hist::FetchedPerCycle => "fetched_per_cycle",
            Hist::IssuedPerCycle => "issued_per_cycle",
            Hist::CommittedPerCycle => "committed_per_cycle",
            Hist::SquashDepth => "squash_depth",
        }
    }
}

/// Wall-time spans: the engine's six stage units, timed per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanId {
    /// The Commit stage evaluation.
    Commit,
    /// The Writeback stage evaluation.
    Writeback,
    /// The `Lsq_refresh` stage evaluation. Load readiness is computed on
    /// demand inside Issue, so this span holds only the activity count;
    /// the memory-dependence check's host time shows under
    /// [`SpanId::Issue`].
    LsqRefresh,
    /// The Issue stage evaluation.
    Issue,
    /// The Dispatch stage evaluation.
    Dispatch,
    /// The Fetch stage evaluation.
    Fetch,
}

impl SpanId {
    /// Every span, in the scheduler's architectural evaluation order.
    pub const ALL: [SpanId; 6] = [
        SpanId::Commit,
        SpanId::Writeback,
        SpanId::LsqRefresh,
        SpanId::Issue,
        SpanId::Dispatch,
        SpanId::Fetch,
    ];

    /// Stable machine-readable name (JSON key; matches the stage roster
    /// spelling).
    pub fn name(self) -> &'static str {
        match self {
            SpanId::Commit => "Commit",
            SpanId::Writeback => "Writeback",
            SpanId::LsqRefresh => "Lsq_refresh",
            SpanId::Issue => "Issue",
            SpanId::Dispatch => "Dispatch",
            SpanId::Fetch => "Fetch",
        }
    }
}

/// Which simulated cache a [`EventKind::CacheMiss`] event names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// L1 instruction cache.
    L1i,
    /// L1 data cache.
    L1d,
}

impl CacheKind {
    /// Stable machine-readable name (JSONL value).
    pub fn name(self) -> &'static str {
        match self {
            CacheKind::L1i => "l1i",
            CacheKind::L1d => "l1d",
        }
    }
}

/// A structured event, journaled with the simulated cycle it occurred
/// in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// End-of-cycle pipeline occupancy sample (IFQ/RB/LSQ fill).
    Occupancy {
        /// IFQ entries occupied.
        ifq: u16,
        /// Reorder-buffer entries occupied.
        rb: u16,
        /// LSQ entries occupied.
        lsq: u16,
    },
    /// A branch direction misprediction recovered at writeback.
    MispredictRecovery {
        /// Sequence number of the recovering branch.
        seq: u64,
        /// Instructions squashed from the pipeline.
        squashed: u32,
    },
    /// A fetch-time target misfetch (right direction, wrong target).
    Misfetch {
        /// PC of the misfetching branch.
        pc: u32,
    },
    /// A cache miss.
    CacheMiss {
        /// Which cache missed.
        cache: CacheKind,
        /// The missing address (PC for L1i, effective address for L1d).
        addr: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_names_are_stable_and_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        names.extend(SpanId::ALL.iter().map(|s| s.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "instrument names must be unique");
    }
}
