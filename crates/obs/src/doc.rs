//! The versioned, machine-readable export documents.
//!
//! Two formats, both golden-pinned byte for byte:
//!
//! * [`METRICS_SCHEMA`] — one pretty-printed JSON document summarizing a
//!   profiled run (counters, gauge summaries, histograms, per-stage
//!   wall-time spans, derived rates, trace-frontend counters, journal
//!   accounting).
//! * [`EVENTS_SCHEMA`] — JSONL: a header line followed by one compact
//!   JSON object per retained journal event, oldest first.

use crate::journal::EventJournal;
use crate::json::JsonObject;
use crate::metrics::{MetricsRecorder, Pow2Histogram};
use crate::recorder::{Counter, EventKind, Gauge, Hist, SpanId};
use std::fmt::Write as _;

/// Schema identifier of the metrics JSON document.
pub const METRICS_SCHEMA: &str = "resim.metrics/1";

/// Schema identifier of the events JSONL stream.
pub const EVENTS_SCHEMA: &str = "resim.events/1";

/// One per-stage wall-time span in the export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDoc {
    /// Stage name (roster spelling).
    pub name: String,
    /// Completed evaluations timed.
    pub calls: u64,
    /// Total wall time, nanoseconds.
    pub wall_ns: u64,
}

/// One gauge summary in the export.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeDoc {
    /// Gauge name.
    pub name: String,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub avg: f64,
    /// Observations recorded.
    pub samples: u64,
}

/// One histogram in the export.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDoc {
    /// Histogram name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Largest observation.
    pub max: u64,
    /// Power-of-two bucket counts (bucket 0 = value 0).
    pub buckets: Vec<u64>,
}

/// Trace-frontend counters in the export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDoc {
    /// Human-readable source description.
    pub source: String,
    /// Trace records consumed by the engine.
    pub records: u64,
    /// Trace-cache hits (generated workloads).
    pub cache_hits: u64,
    /// Trace-cache misses (generated workloads).
    pub cache_misses: u64,
    /// Records decoded by the file codec (file sources).
    pub decoded: u64,
    /// Batch fills served by the file codec (file sources).
    pub fills: u64,
}

/// Event-journal accounting in the export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalDoc {
    /// Maximum events retained.
    pub capacity: u64,
    /// Total events ever pushed.
    pub recorded: u64,
    /// Events currently retained.
    pub retained: u64,
    /// Events lost to the bound.
    pub dropped: u64,
}

/// The complete `resim.metrics/1` document.
///
/// Built by the profiling front end from a [`MetricsRecorder`] plus the
/// run's engine statistics; [`MetricsDoc::to_json`] renders it
/// deterministically (field order fixed, floats at six decimals) so the
/// schema can be golden-pinned.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// Scenario path or built-in name.
    pub scenario: String,
    /// Pipeline organization the engine ran.
    pub organization: String,
    /// Simulated (major) cycles.
    pub cycles: u64,
    /// Total wall time of the run, nanoseconds.
    pub wall_ns: u64,
    /// Derived rates, name → value (insertion order preserved).
    pub rates: Vec<(String, f64)>,
    /// Counter values in [`Counter::ALL`] order.
    pub counters: Vec<(String, u64)>,
    /// Gauge summaries in [`Gauge::ALL`] order.
    pub gauges: Vec<GaugeDoc>,
    /// Histograms in [`Hist::ALL`] order.
    pub histograms: Vec<HistogramDoc>,
    /// Per-stage spans in [`SpanId::ALL`] order.
    pub spans: Vec<SpanDoc>,
    /// Trace-frontend counters.
    pub trace: TraceDoc,
    /// Event-journal accounting.
    pub journal: JournalDoc,
}

impl MetricsDoc {
    /// An empty document for `scenario` running `organization`.
    pub fn new(scenario: &str, organization: &str) -> Self {
        Self {
            scenario: scenario.to_string(),
            organization: organization.to_string(),
            cycles: 0,
            wall_ns: 0,
            rates: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
            trace: TraceDoc::default(),
            journal: JournalDoc::default(),
        }
    }

    /// Adds a derived rate (exported in insertion order).
    pub fn rate(&mut self, name: &str, value: f64) -> &mut Self {
        self.rates.push((name.to_string(), value));
        self
    }

    /// Fills counters, gauges, histograms, spans and journal accounting
    /// from a recorder's collected state.
    pub fn populate(&mut self, recorder: &MetricsRecorder) -> &mut Self {
        self.counters = Counter::ALL
            .iter()
            .map(|c| (c.name().to_string(), recorder.counter_value(*c)))
            .collect();
        self.gauges = Gauge::ALL
            .iter()
            .map(|g| {
                let s = recorder.gauge_summary(*g);
                GaugeDoc {
                    name: g.name().to_string(),
                    min: s.min,
                    max: s.max,
                    avg: s.avg,
                    samples: s.samples,
                }
            })
            .collect();
        self.histograms = Hist::ALL
            .iter()
            .map(|h| Self::histogram_doc(h.name(), recorder.histogram_of(*h)))
            .collect();
        self.spans = SpanId::ALL
            .iter()
            .map(|s| {
                let sum = recorder.span_summary(*s);
                SpanDoc {
                    name: s.name().to_string(),
                    calls: sum.calls,
                    wall_ns: sum.wall_ns,
                }
            })
            .collect();
        let j = recorder.journal();
        self.journal = JournalDoc {
            capacity: j.capacity() as u64,
            recorded: j.recorded(),
            retained: j.len() as u64,
            dropped: j.dropped(),
        };
        self
    }

    fn histogram_doc(name: &str, h: &Pow2Histogram) -> HistogramDoc {
        // Trim trailing empty buckets so the export stays compact.
        let mut buckets: Vec<u64> = h.buckets().to_vec();
        while buckets.len() > 1 && buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramDoc {
            name: name.to_string(),
            count: h.count(),
            mean: h.mean(),
            max: h.max(),
            buckets,
        }
    }

    /// Renders the document as deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut j = JsonObject::new();
        j.string("schema", METRICS_SCHEMA)
            .string("scenario", &self.scenario)
            .string("organization", &self.organization)
            .u64("cycles", self.cycles)
            .u64("wall_ns", self.wall_ns);
        j.open_object("rates");
        for (name, value) in &self.rates {
            j.f64(name, *value);
        }
        j.close_object();
        j.open_object("counters");
        for (name, value) in &self.counters {
            j.u64(name, *value);
        }
        j.close_object();
        j.open_object("gauges");
        for g in &self.gauges {
            j.open_object(&g.name)
                .u64("min", g.min)
                .u64("max", g.max)
                .f64("avg", g.avg)
                .u64("samples", g.samples)
                .close_object();
        }
        j.close_object();
        j.open_object("histograms");
        for h in &self.histograms {
            j.open_object(&h.name)
                .u64("count", h.count)
                .f64("mean", h.mean)
                .u64("max", h.max);
            j.open_array("buckets");
            for b in &h.buckets {
                j.element_u64(*b);
            }
            j.close_array();
            j.close_object();
        }
        j.close_object();
        j.open_array("spans");
        for s in &self.spans {
            j.open_element()
                .string("name", &s.name)
                .u64("calls", s.calls)
                .u64("wall_ns", s.wall_ns)
                .close_object();
        }
        j.close_array();
        j.open_object("trace");
        j.string("source", &self.trace.source)
            .u64("records", self.trace.records)
            .u64("cache_hits", self.trace.cache_hits)
            .u64("cache_misses", self.trace.cache_misses)
            .u64("decoded", self.trace.decoded)
            .u64("fills", self.trace.fills);
        j.close_object();
        j.open_object("journal");
        j.u64("capacity", self.journal.capacity)
            .u64("recorded", self.journal.recorded)
            .u64("retained", self.journal.retained)
            .u64("dropped", self.journal.dropped);
        j.close_object();
        j.finish()
    }
}

/// Renders the `resim.events/1` JSONL stream: a header line with the
/// schema and journal accounting, then one compact object per retained
/// event, oldest first. Ends with a newline.
pub fn write_events_jsonl(journal: &EventJournal) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"{}\",\"recorded\":{},\"retained\":{},\"dropped\":{}}}",
        EVENTS_SCHEMA,
        journal.recorded(),
        journal.len(),
        journal.dropped(),
    );
    for event in journal.iter() {
        let _ = match event.kind {
            EventKind::Occupancy { ifq, rb, lsq } => writeln!(
                out,
                "{{\"cycle\":{},\"kind\":\"occupancy\",\"ifq\":{ifq},\"rb\":{rb},\"lsq\":{lsq}}}",
                event.cycle,
            ),
            EventKind::MispredictRecovery { seq, squashed } => writeln!(
                out,
                "{{\"cycle\":{},\"kind\":\"mispredict_recovery\",\"seq\":{seq},\"squashed\":{squashed}}}",
                event.cycle,
            ),
            EventKind::Misfetch { pc } => writeln!(
                out,
                "{{\"cycle\":{},\"kind\":\"misfetch\",\"pc\":{pc}}}",
                event.cycle,
            ),
            EventKind::CacheMiss { cache, addr } => writeln!(
                out,
                "{{\"cycle\":{},\"kind\":\"cache_miss\",\"cache\":\"{}\",\"addr\":{addr}}}",
                event.cycle,
                cache.name(),
            ),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Event;
    use crate::recorder::CacheKind;

    fn synthetic_doc() -> MetricsDoc {
        let mut r = MetricsRecorder::with_journal_capacity(8);
        // Two cycles in which Commit retires 3 then 4, Fetch stalls
        // after fetching 10, and the RB holds 3 then 5.
        r.end_cycle(
            0,
            [3, 0, 0, 0, 0, 10],
            [300, 0, 0, 0, 0, 0],
            true,
            [0, 3, 0],
        );
        r.end_cycle(
            1,
            [4, 0, 0, 0, 0, 0],
            [500, 0, 0, 0, 0, 0],
            false,
            [0, 5, 0],
        );
        let mut doc = MetricsDoc::new("demo.toml", "paper-2n3");
        doc.cycles = 5;
        doc.wall_ns = 1_000;
        doc.rate("ipc", 1.4).rate("mispredict_rate", 0.125);
        doc.populate(&r);
        doc.trace = TraceDoc {
            source: "generated gzip".to_string(),
            records: 12,
            cache_hits: 1,
            cache_misses: 0,
            decoded: 0,
            fills: 0,
        };
        doc
    }

    #[test]
    fn metrics_json_is_golden() {
        let json = synthetic_doc().to_json();
        let expected = concat!(
            "{\n",
            "  \"schema\": \"resim.metrics/1\",\n",
            "  \"scenario\": \"demo.toml\",\n",
            "  \"organization\": \"paper-2n3\",\n",
            "  \"cycles\": 5,\n",
            "  \"wall_ns\": 1000,\n",
            "  \"rates\": {\n",
            "    \"ipc\": 1.400000,\n",
            "    \"mispredict_rate\": 0.125000\n",
            "  },\n",
            "  \"counters\": {\n",
            "    \"fetched\": 10,\n",
            "    \"dispatched\": 0,\n",
            "    \"issued\": 0,\n",
            "    \"written_back\": 0,\n",
            "    \"lsq_refreshed\": 0,\n",
            "    \"committed\": 7,\n",
            "    \"mispredict_recoveries\": 0,\n",
            "    \"squashed\": 0,\n",
            "    \"misfetches\": 0,\n",
            "    \"icache_misses\": 0,\n",
            "    \"dcache_misses\": 0,\n",
            "    \"serve_requests\": 0,\n",
            "    \"serve_errors\": 0,\n",
            "    \"serve_jobs_submitted\": 0,\n",
            "    \"serve_jobs_completed\": 0,\n",
            "    \"serve_cells_simulated\": 0,\n",
            "    \"serve_cells_served_mem\": 0,\n",
            "    \"serve_cells_served_disk\": 0,\n",
            "    \"serve_cache_rejected\": 0\n",
            "  },\n",
            "  \"gauges\": {\n",
            "    \"ifq_occupancy\": {\n",
            "      \"min\": 0,\n",
            "      \"max\": 0,\n",
            "      \"avg\": 0.000000,\n",
            "      \"samples\": 2\n",
            "    },\n",
            "    \"rb_occupancy\": {\n",
            "      \"min\": 3,\n",
            "      \"max\": 5,\n",
            "      \"avg\": 4.000000,\n",
            "      \"samples\": 2\n",
            "    },\n",
            "    \"lsq_occupancy\": {\n",
            "      \"min\": 0,\n",
            "      \"max\": 0,\n",
            "      \"avg\": 0.000000,\n",
            "      \"samples\": 2\n",
            "    }\n",
            "  },\n",
            "  \"histograms\": {\n",
            "    \"fetched_per_cycle\": {\n",
            "      \"count\": 1,\n",
            "      \"mean\": 10.000000,\n",
            "      \"max\": 10,\n",
            "      \"buckets\": [\n",
            "        0,\n",
            "        0,\n",
            "        0,\n",
            "        0,\n",
            "        1\n",
            "      ]\n",
            "    },\n",
            "    \"issued_per_cycle\": {\n",
            "      \"count\": 2,\n",
            "      \"mean\": 0.000000,\n",
            "      \"max\": 0,\n",
            "      \"buckets\": [\n",
            "        2\n",
            "      ]\n",
            "    },\n",
            "    \"committed_per_cycle\": {\n",
            "      \"count\": 2,\n",
            "      \"mean\": 3.500000,\n",
            "      \"max\": 4,\n",
            "      \"buckets\": [\n",
            "        0,\n",
            "        0,\n",
            "        1,\n",
            "        1\n",
            "      ]\n",
            "    },\n",
            "    \"squash_depth\": {\n",
            "      \"count\": 0,\n",
            "      \"mean\": 0.000000,\n",
            "      \"max\": 0,\n",
            "      \"buckets\": [\n",
            "        0\n",
            "      ]\n",
            "    }\n",
            "  },\n",
            "  \"spans\": [\n",
            "    {\n",
            "      \"name\": \"Commit\",\n",
            "      \"calls\": 2,\n",
            "      \"wall_ns\": 800\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"Writeback\",\n",
            "      \"calls\": 2,\n",
            "      \"wall_ns\": 0\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"Lsq_refresh\",\n",
            "      \"calls\": 2,\n",
            "      \"wall_ns\": 0\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"Issue\",\n",
            "      \"calls\": 2,\n",
            "      \"wall_ns\": 0\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"Dispatch\",\n",
            "      \"calls\": 2,\n",
            "      \"wall_ns\": 0\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"Fetch\",\n",
            "      \"calls\": 2,\n",
            "      \"wall_ns\": 0\n",
            "    }\n",
            "  ],\n",
            "  \"trace\": {\n",
            "    \"source\": \"generated gzip\",\n",
            "    \"records\": 12,\n",
            "    \"cache_hits\": 1,\n",
            "    \"cache_misses\": 0,\n",
            "    \"decoded\": 0,\n",
            "    \"fills\": 0\n",
            "  },\n",
            "  \"journal\": {\n",
            "    \"capacity\": 8,\n",
            "    \"recorded\": 2,\n",
            "    \"retained\": 2,\n",
            "    \"dropped\": 0\n",
            "  }\n",
            "}\n",
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn events_jsonl_is_golden() {
        let mut j = EventJournal::new(8);
        j.push(Event {
            cycle: 1,
            kind: EventKind::Occupancy {
                ifq: 2,
                rb: 5,
                lsq: 1,
            },
        });
        j.push(Event {
            cycle: 3,
            kind: EventKind::MispredictRecovery {
                seq: 42,
                squashed: 7,
            },
        });
        j.push(Event {
            cycle: 4,
            kind: EventKind::Misfetch { pc: 64 },
        });
        j.push(Event {
            cycle: 5,
            kind: EventKind::CacheMiss {
                cache: CacheKind::L1d,
                addr: 128,
            },
        });
        let text = write_events_jsonl(&j);
        let expected = concat!(
            "{\"schema\":\"resim.events/1\",\"recorded\":4,\"retained\":4,\"dropped\":0}\n",
            "{\"cycle\":1,\"kind\":\"occupancy\",\"ifq\":2,\"rb\":5,\"lsq\":1}\n",
            "{\"cycle\":3,\"kind\":\"mispredict_recovery\",\"seq\":42,\"squashed\":7}\n",
            "{\"cycle\":4,\"kind\":\"misfetch\",\"pc\":64}\n",
            "{\"cycle\":5,\"kind\":\"cache_miss\",\"cache\":\"l1d\",\"addr\":128}\n",
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn journal_header_accounts_for_drops() {
        let mut j = EventJournal::new(2);
        for c in 0..5 {
            j.push(Event {
                cycle: c,
                kind: EventKind::Misfetch { pc: 0 },
            });
        }
        let text = write_events_jsonl(&j);
        assert!(text.starts_with(
            "{\"schema\":\"resim.events/1\",\"recorded\":5,\"retained\":2,\"dropped\":3}\n"
        ));
        assert_eq!(text.lines().count(), 3);
    }
}
