//! Cross-crate integration tests: the full flow from program/workload to
//! simulated MIPS, exercising every crate together.

use resim::prelude::*;

/// Functional simulator → trace generator → engine → throughput model.
#[test]
fn program_to_mips_pipeline() {
    let program = programs::sieve(400);
    let mut functional = FunctionalSimulator::new(&program);
    let stream = functional.run(10_000_000).expect("sieve halts");
    assert_eq!(functional.reg(2), 78, "pi(399) = 78 primes");

    let n = stream.len();
    let trace = generate_trace(stream, usize::MAX, &TraceGenConfig::paper());
    assert_eq!(trace.correct_path_len(), n);

    let config = EngineConfig::paper_4wide();
    let mut engine = Engine::new(config.clone()).unwrap();
    let stats = engine.run(trace.source());
    assert_eq!(stats.committed, n as u64);
    assert!(stats.ipc() > 0.3 && stats.ipc() <= 4.0);

    let ts = trace.stats();
    let speed = ThroughputModel::new(FpgaDevice::Virtex4Lx40).speed(&config, &stats, Some(&ts));
    assert!(
        speed.mips > 0.0 && speed.mips <= 48.0,
        "mips {}",
        speed.mips
    );
}

/// The encoded wire format round-trips through the engine identically to
/// the in-memory record path.
#[test]
fn encoded_trace_reproduces_timing() {
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Parser, 5),
        20_000,
        &TraceGenConfig::paper(),
    );
    let decoded = trace.encode().decode().expect("well-formed");
    assert_eq!(trace, decoded);

    let a = Engine::new(EngineConfig::paper_4wide())
        .unwrap()
        .run(trace.source());
    let b = Engine::new(EngineConfig::paper_4wide())
        .unwrap()
        .run(decoded.source());
    assert_eq!(a, b);
}

/// Batch and streaming (on-the-fly) trace generation feed the engine the
/// exact same records and therefore the exact same timing.
#[test]
fn streaming_equals_batch_timing() {
    let n = 15_000;
    let batch = generate_trace(
        Workload::spec(SpecBenchmark::Vpr, 9),
        n,
        &TraceGenConfig::paper(),
    );
    let a = Engine::new(EngineConfig::paper_4wide())
        .unwrap()
        .run(batch.source());

    struct Capped<S> {
        inner: S,
        left: usize,
    }
    impl<S: TraceSource> TraceSource for Capped<S> {
        fn next_record(&mut self) -> Option<TraceRecord> {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            self.inner.next_record()
        }
    }
    let stream = TraceStream::new(
        Workload::spec(SpecBenchmark::Vpr, 9).take(n),
        TraceGenConfig::paper(),
    );
    let b = Engine::new(EngineConfig::paper_4wide())
        .unwrap()
        .run(Capped {
            inner: stream,
            left: batch.len(),
        });
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.cycles, b.cycles);
}

/// Every sample program runs through the full pipeline without error.
#[test]
fn all_sample_programs_simulate() {
    let progs = [
        ("fibonacci", programs::fibonacci(15)),
        ("recursive_fib", programs::recursive_fib(10)),
        ("bubble_sort", programs::bubble_sort(20)),
        ("matmul", programs::matmul(6)),
        ("sieve", programs::sieve(100)),
        ("string_search", programs::string_search(256)),
        ("pointer_chase", programs::pointer_chase(32, 64)),
    ];
    for (name, p) in progs {
        let mut f = FunctionalSimulator::new(&p);
        let stream = f.run(10_000_000).unwrap_or_else(|e| panic!("{name}: {e}"));
        let trace = generate_trace(stream, usize::MAX, &TraceGenConfig::paper());
        let stats = Engine::new(EngineConfig::paper_4wide())
            .unwrap()
            .run(trace.source());
        assert_eq!(
            stats.committed,
            trace.correct_path_len() as u64,
            "{name}: all correct-path instructions must commit"
        );
    }
}

/// Pointer chasing is latency-bound: it must be much slower with caches
/// once the node pool exceeds L1 than with perfect memory.
#[test]
fn pointer_chase_is_cache_sensitive() {
    let p = programs::pointer_chase(1024, 4096); // 64 KB of nodes
    let mut f = FunctionalSimulator::new(&p);
    let stream = f.run(10_000_000).unwrap();
    let trace = generate_trace(stream, usize::MAX, &TraceGenConfig::perfect());

    let perfect = Engine::new(EngineConfig {
        predictor: PredictorConfig::perfect(),
        ..EngineConfig::paper_4wide()
    })
    .unwrap()
    .run(trace.source());

    let cached = Engine::new(EngineConfig {
        predictor: PredictorConfig::perfect(),
        memory: MemorySystemConfig::l1_32k(),
        pipeline: PipelineDescription::improved(),
        ..EngineConfig::paper_4wide()
    })
    .unwrap()
    .run(trace.source());

    assert!(
        perfect.ipc() > cached.ipc() * 1.3,
        "perfect {} vs cached {}",
        perfect.ipc(),
        cached.ipc()
    );
}

/// The area model admits several paper engines on the large part, the
/// paper's multi-core projection (§VI).
#[test]
fn several_engines_fit_on_the_large_part() {
    let area = AreaModel::new().estimate(&EngineConfig::paper_4wide());
    assert!(
        area.instances_on(FpgaDevice::Virtex4Lx160) >= 4,
        "the paper's multi-core projection needs several instances to fit"
    );
}
