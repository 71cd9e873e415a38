//! # resim-obs
//!
//! The observability layer of ReSim: a zero-overhead-when-off
//! instrumentation seam the timing engine is threaded through.
//!
//! The simulator's job is explaining where cycles go, yet without this
//! crate the simulator itself is a black box at runtime: the only
//! introspection is the scheduler's per-stage activity totals. This
//! crate adds the reporting discipline of the simulator-evaluation
//! literature (per-configuration speed *and* accuracy, machine-readable
//! statistics) to ReSim's own runtime:
//!
//! * [`Recorder`] — the trait the engine emits into: counters, gauges,
//!   power-of-two-bucket histograms, per-stage timed spans, and
//!   structured events. Every hook is monomorphized, so with the
//!   default [`NullRecorder`] (whose methods are inherent `#[inline]`
//!   no-ops) the hot loop pays **nothing** — the calls compile away.
//! * [`MetricsRecorder`] — the collecting implementation: fixed-index
//!   counter/gauge/histogram arrays (no hashing on the hot path), a
//!   bounded ring-buffered [`EventJournal`] of per-cycle pipeline
//!   occupancy and speculation/cache events, and a streaming
//!   [`OccupancyTrack`] that renders a text heatmap over simulated
//!   cycles in bounded memory.
//! * [`MetricsDoc`] — the versioned, golden-pinned machine-readable
//!   export schema ([`METRICS_SCHEMA`] JSON, [`EVENTS_SCHEMA`] JSONL)
//!   that `resim profile` writes and a future `resim-serve` streams.
//!
//! The crate depends only on `resim-toml` (for its JSON string escaper)
//! and knows nothing about the engine; the
//! engine (`resim-core`) is generic over `R: Recorder` and defaults to
//! [`NullRecorder`], which is what keeps the bit-identity contract
//! trivial: a recorder only ever *observes*, it never feeds back into
//! simulated state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod doc;
mod journal;
mod json;
mod metrics;
mod recorder;

pub use doc::{
    write_events_jsonl, GaugeDoc, HistogramDoc, JournalDoc, MetricsDoc, SpanDoc, TraceDoc,
    EVENTS_SCHEMA, METRICS_SCHEMA,
};
pub use journal::{Event, EventJournal, DEFAULT_JOURNAL_CAPACITY};
pub use json::JsonObject;
pub use metrics::{GaugeSummary, MetricsRecorder, OccupancyTrack, Pow2Histogram, SpanSummary};
pub use recorder::{CacheKind, Counter, EventKind, Gauge, Hist, NullRecorder, Recorder, SpanId};
