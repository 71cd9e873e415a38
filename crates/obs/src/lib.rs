//! # resim-obs
//!
//! The observability layer of ReSim: what an engine records when one is
//! watching it, and the versioned documents that export it.
//!
//! The simulator's job is explaining where cycles go, yet without this
//! crate the simulator itself is a black box at runtime: the only
//! introspection is the scheduler's per-stage activity totals. This
//! crate adds the reporting discipline of the simulator-evaluation
//! literature (per-configuration speed *and* accuracy, machine-readable
//! statistics) to ReSim's own runtime:
//!
//! * [`MetricsRecorder`] — the one recorder: fixed-index
//!   counter/gauge/histogram/span arrays (no hashing on the hot path), a
//!   bounded ring-buffered [`EventJournal`] of per-cycle pipeline
//!   occupancy and speculation/cache events, and a streaming
//!   [`OccupancyTrack`] that renders a text heatmap over simulated
//!   cycles in bounded memory. The engine feeds it rare events as they
//!   happen ([`MetricsRecorder::event`]) and each cycle's stage
//!   operations, stage wall times and occupancy once per cycle
//!   ([`MetricsRecorder::end_cycle`]); every instrument is derived from
//!   those two calls.
//! * [`MetricsDoc`] — the versioned, golden-pinned machine-readable
//!   export schema ([`METRICS_SCHEMA`] JSON, [`EVENTS_SCHEMA`] JSONL)
//!   that `resim profile` writes and a future `resim-serve` streams.
//!
//! The crate depends only on `resim-toml` (for its JSON string escaper)
//! and knows nothing about the engine. The engine (`resim-core`) holds
//! an optional recorder (`Engine::observed` attaches one) and checks for
//! it once per simulated cycle; with none attached it records nothing.
//! A recorder only ever *observes*, it never feeds back into simulated
//! state, which is what keeps observed and unobserved statistics
//! bit-identical.

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
pub use recorder::{CacheKind, Counter, EventKind, Gauge, Hist, SpanId};
