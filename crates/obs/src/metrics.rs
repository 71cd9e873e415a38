//! The collecting recorder: fixed-index instrument arrays, the bounded
//! event journal, and the streaming occupancy track.

use crate::journal::{Event, EventJournal, DEFAULT_JOURNAL_CAPACITY};
use crate::recorder::{CacheKind, Counter, EventKind, Gauge, Hist, SpanId};

/// Power-of-two bucket count: bucket 0 holds the value 0, bucket `k`
/// holds `2^(k-1) <= v < 2^k`, and the last bucket saturates.
pub const POW2_BUCKETS: usize = 17;

/// A histogram with power-of-two buckets — constant-time insert, fixed
/// memory, and a faithful shape for the long-tailed distributions the
/// engine produces (squash depths, per-cycle throughput).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pow2Histogram {
    buckets: [u64; POW2_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Pow2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; POW2_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index for `value`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(POW2_BUCKETS - 1)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; POW2_BUCKETS] {
        &self.buckets
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }
}

impl Default for Pow2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Min/max/mean summary of a sampled gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSummary {
    /// Smallest observation (0 when never sampled).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub avg: f64,
    /// Observations recorded.
    pub samples: u64,
}

#[derive(Debug, Clone, Copy)]
struct GaugeAgg {
    min: u64,
    max: u64,
    sum: u64,
    samples: u64,
}

impl GaugeAgg {
    const EMPTY: GaugeAgg = GaugeAgg {
        min: u64::MAX,
        max: 0,
        sum: 0,
        samples: 0,
    };

    fn record(&mut self, v: u64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.samples += 1;
    }

    fn summary(&self) -> GaugeSummary {
        GaugeSummary {
            min: if self.samples == 0 { 0 } else { self.min },
            max: self.max,
            avg: if self.samples == 0 {
                0.0
            } else {
                self.sum as f64 / self.samples as f64
            },
            samples: self.samples,
        }
    }
}

/// Accumulated wall time of one span id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Stage evaluations timed, one per observed cycle.
    pub calls: u64,
    /// Total wall time across calls, in nanoseconds.
    pub wall_ns: u64,
}

/// A streaming, bounded-memory record of pipeline occupancy over
/// simulated cycles, for the text heatmap.
///
/// Cycles are folded into up to [`OccupancyTrack::MAX_BINS`] equal-width
/// time bins; when the run outgrows the bins, adjacent pairs merge and
/// the bin width doubles — deterministic, allocation-free after
/// construction, and O(1) amortized per cycle.
#[derive(Debug, Clone)]
pub struct OccupancyTrack {
    /// Per-bin sums: ifq, rb, lsq, cycles.
    bins: Vec<[u64; 4]>,
    /// Cycles each completed bin covers.
    cycles_per_bin: u64,
}

impl OccupancyTrack {
    /// Maximum time bins retained (also the heatmap column budget).
    pub const MAX_BINS: usize = 96;

    /// An empty track.
    pub fn new() -> Self {
        Self {
            bins: Vec::with_capacity(Self::MAX_BINS),
            cycles_per_bin: 1,
        }
    }

    /// Folds one cycle's occupancy sample into the track.
    pub fn record(&mut self, ifq: u64, rb: u64, lsq: u64) {
        match self.bins.last_mut() {
            Some(last) if last[3] < self.cycles_per_bin => {
                last[0] += ifq;
                last[1] += rb;
                last[2] += lsq;
                last[3] += 1;
            }
            _ => {
                if self.bins.len() == Self::MAX_BINS {
                    // Merge adjacent pairs: half the bins, double the width.
                    for i in 0..Self::MAX_BINS / 2 {
                        let a = self.bins[2 * i];
                        let b = self.bins[2 * i + 1];
                        self.bins[i] = [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]];
                    }
                    self.bins.truncate(Self::MAX_BINS / 2);
                    self.cycles_per_bin *= 2;
                }
                self.bins.push([ifq, rb, lsq, 1]);
            }
        }
    }

    /// Cycles recorded so far.
    pub fn cycles(&self) -> u64 {
        self.bins.iter().map(|b| b[3]).sum()
    }

    /// Cycles each full bin (heatmap column) covers.
    pub fn cycles_per_bin(&self) -> u64 {
        self.cycles_per_bin
    }

    /// Current bin count.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether no cycle has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Mean occupancy per bin for one series (0 = IFQ, 1 = RB, 2 = LSQ).
    fn series(&self, idx: usize) -> Vec<f64> {
        self.bins
            .iter()
            .map(|b| {
                if b[3] == 0 {
                    0.0
                } else {
                    b[idx] as f64 / b[3] as f64
                }
            })
            .collect()
    }

    /// Renders the three-row ASCII heatmap (darker = fuller), each row
    /// shaded against its own capacity.
    ///
    /// `capacities` are the structure sizes (IFQ, RB, LSQ) the shading
    /// normalizes to; pass the configured sizes so a full structure is
    /// always the darkest glyph.
    pub fn render(&self, capacities: [u64; 3]) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        if self.bins.is_empty() {
            return "occupancy heatmap: no cycles recorded\n".to_string();
        }
        let mut out = format!(
            "occupancy heatmap over {} cycles ({} cycles/column, left to right):\n",
            self.cycles(),
            self.cycles_per_bin,
        );
        for (row, label) in ["IFQ", "RB", "LSQ"].iter().enumerate() {
            let series = self.series(row);
            let cap = capacities[row].max(1) as f64;
            let mut line = format!("  {label:<4}|");
            for v in &series {
                let norm = (v / cap).clamp(0.0, 1.0);
                let idx = ((norm * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                line.push(RAMP[idx] as char);
            }
            let avg = series.iter().sum::<f64>() / series.len() as f64;
            out.push_str(&format!("{line}|  avg {avg:.2} of {}\n", capacities[row]));
        }
        out
    }
}

impl Default for OccupancyTrack {
    fn default() -> Self {
        Self::new()
    }
}

/// The counter each stage's per-cycle operations feed, aligned with
/// [`SpanId::ALL`].
const STAGE_COUNTERS: [Counter; 6] = [
    Counter::Committed,
    Counter::WrittenBack,
    Counter::LsqRefreshed,
    Counter::Issued,
    Counter::Dispatched,
    Counter::Fetched,
];

/// What an engine observes: counters, gauges, histograms and spans in
/// fixed-index arrays, events in a bounded ring journal, and the
/// occupancy track for the heatmap.
///
/// The engine feeds it twice: [`MetricsRecorder::event`] for each rare
/// event as it happens (cache misses, misfetches, recoveries), and
/// [`MetricsRecorder::end_cycle`] once per simulated cycle with what
/// each stage did. Every instrument is derived from those two calls.
#[derive(Debug)]
pub struct MetricsRecorder {
    counters: [u64; Counter::ALL.len()],
    gauges: [GaugeAgg; Gauge::ALL.len()],
    hists: [Pow2Histogram; Hist::ALL.len()],
    spans: [SpanSummary; SpanId::ALL.len()],
    journal: EventJournal,
    track: OccupancyTrack,
}

impl MetricsRecorder {
    /// A recorder with the default journal capacity.
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A recorder whose event journal retains at most `capacity` events.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self {
            counters: [0; Counter::ALL.len()],
            gauges: [GaugeAgg::EMPTY; Gauge::ALL.len()],
            hists: [Pow2Histogram::new(); Hist::ALL.len()],
            spans: [SpanSummary::default(); SpanId::ALL.len()],
            journal: EventJournal::new(capacity),
            track: OccupancyTrack::new(),
        }
    }

    /// Adds `delta` to a counter.
    pub fn add(&mut self, c: Counter, delta: u64) {
        self.counters[c as usize] += delta;
    }

    /// Journals `kind` at simulated `cycle` and bumps the instruments
    /// that go with it: the miss, misfetch, recovery and squash
    /// counters, the squash-depth histogram, or the occupancy track.
    pub fn event(&mut self, cycle: u64, kind: EventKind) {
        match kind {
            EventKind::Occupancy { ifq, rb, lsq } => {
                self.track
                    .record(u64::from(ifq), u64::from(rb), u64::from(lsq));
            }
            EventKind::MispredictRecovery { squashed, .. } => {
                self.add(Counter::MispredictRecoveries, 1);
                self.add(Counter::Squashed, u64::from(squashed));
                self.hists[Hist::SquashDepth as usize].record(u64::from(squashed));
            }
            EventKind::Misfetch { .. } => self.add(Counter::Misfetches, 1),
            EventKind::CacheMiss { cache, .. } => match cache {
                CacheKind::L1i => self.add(Counter::IcacheMisses, 1),
                CacheKind::L1d => self.add(Counter::DcacheMisses, 1),
            },
        }
        self.journal.push(Event { cycle, kind });
    }

    /// Closes simulated `cycle`: `ops` and `wall_ns` are what each stage
    /// did and how long its evaluation took, in [`SpanId::ALL`] order;
    /// `fetch_ran` is false when Fetch stalled without looking at the
    /// trace; `occupancy` is the end-of-cycle IFQ, RB and LSQ fill.
    ///
    /// Feeds the six stage counters and spans, the per-cycle issue and
    /// commit histograms (and the fetch one when Fetch ran), the three
    /// gauges, and one [`EventKind::Occupancy`] event.
    pub fn end_cycle(
        &mut self,
        cycle: u64,
        ops: [u64; 6],
        wall_ns: [u64; 6],
        fetch_ran: bool,
        occupancy: [u64; 3],
    ) {
        for stage in 0..SpanId::ALL.len() {
            self.counters[STAGE_COUNTERS[stage] as usize] += ops[stage];
            self.spans[stage].calls += 1;
            self.spans[stage].wall_ns += wall_ns[stage];
        }
        self.hists[Hist::CommittedPerCycle as usize].record(ops[SpanId::Commit as usize]);
        self.hists[Hist::IssuedPerCycle as usize].record(ops[SpanId::Issue as usize]);
        if fetch_ran {
            self.hists[Hist::FetchedPerCycle as usize].record(ops[SpanId::Fetch as usize]);
        }
        for (gauge, value) in self.gauges.iter_mut().zip(occupancy) {
            gauge.record(value);
        }
        let [ifq, rb, lsq] = occupancy.map(|v| v.min(u64::from(u16::MAX)) as u16);
        self.event(cycle, EventKind::Occupancy { ifq, rb, lsq });
    }

    /// Current value of a counter.
    pub fn counter_value(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Summary of a gauge's observations.
    pub fn gauge_summary(&self, g: Gauge) -> GaugeSummary {
        self.gauges[g as usize].summary()
    }

    /// A histogram's current contents.
    pub fn histogram_of(&self, h: Hist) -> &Pow2Histogram {
        &self.hists[h as usize]
    }

    /// Accumulated wall time of a span.
    pub fn span_summary(&self, s: SpanId) -> SpanSummary {
        self.spans[s as usize]
    }

    /// The event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The occupancy track (heatmap source).
    pub fn occupancy(&self) -> &OccupancyTrack {
        &self.track
    }

    /// Renders the per-stage wall-time breakdown table from the span
    /// aggregates, widest consumer first.
    pub fn render_span_table(&self) -> String {
        let mut rows: Vec<(&'static str, SpanSummary)> = SpanId::ALL
            .iter()
            .map(|s| (s.name(), self.span_summary(*s)))
            .collect();
        let total_ns: u64 = rows.iter().map(|(_, s)| s.wall_ns).sum();
        rows.sort_by(|a, b| b.1.wall_ns.cmp(&a.1.wall_ns).then(a.0.cmp(b.0)));
        let mut out = String::from("stage wall time (engine-side, per stage evaluation):\n");
        out.push_str("  stage         calls        wall_ms    share\n");
        for (name, s) in rows {
            let share = if total_ns == 0 {
                0.0
            } else {
                100.0 * s.wall_ns as f64 / total_ns as f64
            };
            out.push_str(&format!(
                "  {name:<12} {calls:>8} {ms:>13.3} {share:>7.1}%\n",
                calls = s.calls,
                ms = s.wall_ns as f64 / 1e6,
            ));
        }
        out.push_str(&format!(
            "  total                   {:>13.3} {:>7.1}%\n",
            total_ns as f64 / 1e6,
            if total_ns == 0 { 0.0 } else { 100.0 },
        ));
        out
    }
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::CacheKind;

    #[test]
    fn pow2_bucket_boundaries() {
        assert_eq!(Pow2Histogram::bucket_of(0), 0);
        assert_eq!(Pow2Histogram::bucket_of(1), 1);
        assert_eq!(Pow2Histogram::bucket_of(2), 2);
        assert_eq!(Pow2Histogram::bucket_of(3), 2);
        assert_eq!(Pow2Histogram::bucket_of(4), 3);
        assert_eq!(Pow2Histogram::bucket_of(1 << 15), 16);
        assert_eq!(Pow2Histogram::bucket_of(u64::MAX), POW2_BUCKETS - 1);
        let mut h = Pow2Histogram::new();
        for v in [0, 1, 3, 4, 4] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 4);
        assert!((h.mean() - 2.4).abs() < 1e-12);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[3], 2);
    }

    #[test]
    fn gauge_summary_tracks_min_max_avg() {
        let mut r = MetricsRecorder::new();
        for (cycle, rb) in [4, 2, 9].into_iter().enumerate() {
            r.end_cycle(cycle as u64, [0; 6], [0; 6], true, [1, rb, 0]);
        }
        let s = r.gauge_summary(Gauge::RbOccupancy);
        assert_eq!((s.min, s.max, s.samples), (2, 9, 3));
        assert!((s.avg - 5.0).abs() < 1e-12);
        let ifq = r.gauge_summary(Gauge::IfqOccupancy);
        assert_eq!((ifq.min, ifq.max, ifq.samples), (1, 1, 3));
        let empty = MetricsRecorder::new().gauge_summary(Gauge::IfqOccupancy);
        assert_eq!((empty.min, empty.max, empty.samples), (0, 0, 0));
        assert_eq!(empty.avg, 0.0);
    }

    #[test]
    fn occupancy_track_merges_bins_deterministically() {
        let mut t = OccupancyTrack::new();
        let cycles = (OccupancyTrack::MAX_BINS as u64) * 3 + 7;
        for c in 0..cycles {
            t.record(c % 8, c % 16, c % 4);
        }
        assert_eq!(t.cycles(), cycles);
        assert!(t.len() <= OccupancyTrack::MAX_BINS);
        assert!(t.cycles_per_bin() >= 2, "bins must have merged");
        let render = t.render([8, 16, 4]);
        assert!(render.contains("IFQ"));
        assert!(render.contains("LSQ"));
        assert!(render.contains(&format!("over {cycles} cycles")));
    }

    #[test]
    fn events_feed_journal_track_and_counters() {
        let mut r = MetricsRecorder::with_journal_capacity(8);
        r.event(
            1,
            EventKind::Occupancy {
                ifq: 2,
                rb: 5,
                lsq: 1,
            },
        );
        for cache in [CacheKind::L1d, CacheKind::L1d, CacheKind::L1i] {
            r.event(2, EventKind::CacheMiss { cache, addr: 0x80 });
        }
        r.event(3, EventKind::Misfetch { pc: 0x40 });
        for squashed in [6, 3] {
            r.event(4, EventKind::MispredictRecovery { seq: 9, squashed });
        }
        assert_eq!(r.journal().recorded(), 7);
        assert_eq!(r.occupancy().cycles(), 1);
        assert_eq!(r.counter_value(Counter::DcacheMisses), 2);
        assert_eq!(r.counter_value(Counter::IcacheMisses), 1);
        assert_eq!(r.counter_value(Counter::Misfetches), 1);
        assert_eq!(r.counter_value(Counter::MispredictRecoveries), 2);
        assert_eq!(r.counter_value(Counter::Squashed), 9);
        let depth = r.histogram_of(Hist::SquashDepth);
        assert_eq!((depth.count(), depth.max()), (2, 6));
    }

    #[test]
    fn end_cycle_derives_the_stage_instruments() {
        let mut r = MetricsRecorder::with_journal_capacity(8);
        // Stage order: Commit, Writeback, Lsq_refresh, Issue, Dispatch, Fetch.
        r.end_cycle(
            0,
            [1, 2, 3, 4, 5, 6],
            [10, 20, 30, 40, 50, 60],
            true,
            [6, 5, 3],
        );
        // Fetch stalled: no fetched-per-cycle observation.
        r.end_cycle(
            1,
            [2, 0, 3, 1, 0, 0],
            [10, 20, 30, 40, 50, 60],
            false,
            [6, 7, 3],
        );
        for (counter, value) in [
            (Counter::Committed, 3),
            (Counter::WrittenBack, 2),
            (Counter::LsqRefreshed, 6),
            (Counter::Issued, 5),
            (Counter::Dispatched, 5),
            (Counter::Fetched, 6),
        ] {
            assert_eq!(r.counter_value(counter), value, "{counter:?}");
        }
        assert_eq!(r.histogram_of(Hist::CommittedPerCycle).count(), 2);
        assert_eq!(r.histogram_of(Hist::IssuedPerCycle).max(), 4);
        assert_eq!(r.histogram_of(Hist::FetchedPerCycle).count(), 1);
        assert_eq!(r.gauge_summary(Gauge::RbOccupancy).max, 7);
        assert_eq!(r.occupancy().cycles(), 2);
        let cycles: Vec<u64> = r.journal().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [0, 1]);
        let fetch = r.span_summary(SpanId::Fetch);
        assert_eq!((fetch.calls, fetch.wall_ns), (2, 120));
        let table = r.render_span_table();
        assert!(table.starts_with("stage wall time"));
        assert!(table.contains("Fetch"));
        assert!(table.contains("Lsq_refresh"));
    }
}
