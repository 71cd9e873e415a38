//! Differential proof that the ring-buffered batch frontend is
//! behavior-invisible: a run through the default batched [`TraceCursor`]
//! is bit-identical to a forced batch-size-1 cursor (the historical
//! one-record-lookahead frontend) across every workload model and
//! several seeds, over both the slice and the bit-codec frontends; and
//! that the engine reads its source only in whole batches.

use resim_core::{Engine, EngineConfig, SimStats, TraceCursor};
use resim_trace::{TraceRecord, TraceSource};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

fn drain_with_batch(config: &EngineConfig, src: impl TraceSource, batch: usize) -> SimStats {
    let mut engine = Engine::new(config.clone()).unwrap();
    let mut cursor = TraceCursor::with_batch_size(src, batch);
    engine.drain(&mut cursor)
}

#[test]
fn batched_run_is_bit_identical_to_batch_size_one() {
    let config = EngineConfig::paper_4wide();
    for &benchmark in &SpecBenchmark::ALL {
        for seed in [1u64, 2, 3] {
            let trace = generate_trace(
                Workload::spec(benchmark, seed),
                8_000,
                &TraceGenConfig::paper(),
            );
            let via_run = Engine::new(config.clone()).unwrap().run(trace.source());
            let batch1 = drain_with_batch(&config, trace.source(), 1);
            let batch7 = drain_with_batch(&config, trace.source(), 7);
            let batch_default =
                drain_with_batch(&config, trace.source(), resim_core::DEFAULT_BATCH);
            assert_eq!(
                batch1, via_run,
                "{benchmark:?} seed {seed}: batch-1 cursor vs Engine::run"
            );
            assert_eq!(
                batch7, via_run,
                "{benchmark:?} seed {seed}: odd batch size vs Engine::run"
            );
            assert_eq!(
                batch_default, via_run,
                "{benchmark:?} seed {seed}: default batch vs Engine::run"
            );
        }
    }
}

#[test]
fn batched_run_is_bit_identical_over_the_codec_frontend() {
    // Same differential over the bit-packed stream, where the batched
    // path exercises the specialized block decoder.
    let config = EngineConfig::paper_4wide();
    for &benchmark in &SpecBenchmark::ALL {
        let trace = generate_trace(
            Workload::spec(benchmark, 5),
            8_000,
            &TraceGenConfig::paper(),
        );
        let encoded = trace.encode();
        let batch1 = drain_with_batch(&config, encoded.source(), 1);
        let batched = drain_with_batch(&config, encoded.source(), resim_core::DEFAULT_BATCH);
        let via_slice = Engine::new(config.clone()).unwrap().run(trace.source());
        assert_eq!(batched, batch1, "{benchmark:?}: codec batched vs batch-1");
        assert_eq!(batched, via_slice, "{benchmark:?}: codec vs slice frontend");
    }
}

#[test]
fn windowed_batched_run_replays_run_exactly() {
    // Windowed execution threads one ring-buffered cursor through many
    // run_window calls; records read ahead into the ring must survive
    // window boundaries at any batch size.
    let config = EngineConfig::paper_4wide();
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Parser, 23),
        10_000,
        &TraceGenConfig::paper(),
    );
    let full = Engine::new(config.clone()).unwrap().run(trace.source());
    for batch in [1usize, 3, 64, 256] {
        let mut engine = Engine::new(config.clone()).unwrap();
        let mut cursor = TraceCursor::with_batch_size(trace.source(), batch);
        let mut last = u64::MAX;
        while cursor.consumed() != last {
            last = cursor.consumed();
            engine.run_window(&mut cursor, 937);
        }
        let windowed = engine.drain(&mut cursor);
        assert_eq!(windowed, full, "batch {batch} windowed replay");
        assert_eq!(cursor.consumed(), trace.len() as u64);
    }
}

/// Wraps a source and counts what the engine asks of it: the length of
/// every `fill` buffer, and any `next_record` or `skip` call.
struct Counting<'a> {
    inner: Box<dyn TraceSource + 'a>,
    fills: Vec<usize>,
    records: usize,
    singles: usize,
}

impl<'a> Counting<'a> {
    fn new(inner: impl TraceSource + 'a) -> Self {
        Self {
            inner: Box::new(inner),
            fills: Vec::new(),
            records: 0,
            singles: 0,
        }
    }
}

impl TraceSource for Counting<'_> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.singles += 1;
        self.inner.next_record()
    }

    fn fill(&mut self, buf: &mut [TraceRecord]) -> usize {
        self.fills.push(buf.len());
        let n = self.inner.fill(buf);
        self.records += n;
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        self.singles += 1;
        self.inner.skip(n)
    }
}

#[test]
fn engine_reads_its_source_once_per_batch() {
    // The cursor is the engine's only reader of the source: one `fill`
    // per `DEFAULT_BATCH` records, then the one short call (the remainder,
    // or empty when `n` is a whole number of batches) that ends the
    // trace; never a per-record call.
    let config = EngineConfig::paper_4wide();
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Vpr, 9),
        10_000,
        &TraceGenConfig::paper(),
    );
    let encoded = trace.encode();
    let n = trace.len();
    let batch = resim_core::DEFAULT_BATCH;
    let expected = n / batch + 1;
    let full = Engine::new(config.clone()).unwrap().run(trace.source());
    for (frontend, mut src) in [
        ("slice", Counting::new(trace.source())),
        ("codec", Counting::new(encoded.source())),
    ] {
        let stats = Engine::new(config.clone()).unwrap().run(&mut src);
        assert_eq!(stats, full, "{frontend}: counting wrapper changed the run");
        assert_eq!(src.records, n, "{frontend}: every record read once");
        assert_eq!(
            src.fills.len(),
            expected,
            "{frontend}: fill calls for {n} records"
        );
        assert!(
            src.fills.iter().all(|&len| len == batch),
            "{frontend}: every fill asks for a whole batch"
        );
        assert_eq!(src.singles, 0, "{frontend}: next_record or skip called");
    }
}
