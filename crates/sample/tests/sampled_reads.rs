//! How a sampled run reads its trace source.
//!
//! Warm gaps and detailed windows pull records in blocks through
//! [`TraceSource::fill`], and bounded-warmup gaps jump through
//! [`TraceSource::skip`]. `next_record` serves only the one-record
//! lookahead at each sampling point and the wrong-path residue that the
//! lookahead drains: on a codec-backed source every `next_record` is a
//! separate decode call, so a per-record read path would put that cost
//! on every warmed and detailed record.

use resim_core::EngineConfig;
use resim_mem::MemorySystemConfig;
use resim_sample::{run_sampled, SamplePlan, WarmupMode};
use resim_trace::{SliceSource, TraceRecord, TraceSource};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

/// Wraps a slice source and counts each kind of read.
struct Counting<'a> {
    inner: SliceSource<'a>,
    fills: u64,
    filled: u64,
    singles: u64,
    single_records: u64,
    skipped: u64,
}

impl TraceSource for Counting<'_> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.singles += 1;
        let r = self.inner.next_record();
        self.single_records += u64::from(r.is_some());
        r
    }

    fn fill(&mut self, buf: &mut [TraceRecord]) -> usize {
        self.fills += 1;
        let n = self.inner.fill(buf);
        self.filled += n as u64;
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        let s = self.inner.skip(n);
        self.skipped += s;
        s
    }
}

#[test]
fn sampled_runs_read_through_fill() {
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Bzip2, 2009),
        100_000,
        &TraceGenConfig::paper(),
    );
    let config = EngineConfig {
        memory: MemorySystemConfig::l1_32k(),
        ..EngineConfig::paper_4wide()
    };
    for warmup in [WarmupMode::Functional, WarmupMode::Bounded(3_000)] {
        let plan = SamplePlan::systematic(8_000, 1_000, 3)
            .with_offset(1)
            .with_warmup(warmup);
        let mut src = Counting {
            inner: SliceSource::new(trace.records()),
            fills: 0,
            filled: 0,
            singles: 0,
            single_records: 0,
            skipped: 0,
        };
        let counted = run_sampled(&config, &mut src, &plan).unwrap();
        let plain = run_sampled(&config, trace.source(), &plan).unwrap();
        assert_eq!(counted, plain, "{warmup:?}: the wrapper changed the run");
        assert!(counted.windows.len() >= 4, "{warmup:?}: {counted:?}");

        // Each sampling point peeks once, then once more per wrong-path
        // record it drains: the records between the window's nominal
        // start and its first record.
        let lookahead: u64 = counted
            .windows
            .iter()
            .map(|w| 1 + w.start_record - w.interval * plan.interval_records)
            .sum();
        assert_eq!(src.singles, lookahead, "{warmup:?}: next_record calls");
        assert_eq!(
            src.filled + src.single_records + src.skipped,
            counted.records_total,
            "{warmup:?}: every record read once"
        );
        assert!(
            src.filled >= 128 * src.fills,
            "{warmup:?}: {} records in {} fills",
            src.filled,
            src.fills
        );
    }
}
