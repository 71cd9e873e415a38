//! The observability contract: a recorder only ever observes.
//!
//! Observing an engine (`Engine::observed` with a `MetricsRecorder`)
//! must leave every `SimStats` field bit-identical to an unobserved
//! engine's — on every SPEC workload profile — while the recorder itself
//! fills with data consistent with those statistics.

use resim_core::{Engine, EngineConfig, MetricsRecorder};
use resim_obs::{Counter, Gauge, Hist, SpanId};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

const BUDGET: usize = 20_000;

fn run_both(config: &EngineConfig, bench: SpecBenchmark) -> (resim_core::SimStats, Engine) {
    let trace = generate_trace(
        Workload::spec(bench, 2009),
        BUDGET,
        &TraceGenConfig::paper(),
    );
    let mut unobserved = Engine::new(config.clone()).expect("valid config");
    let plain_stats = unobserved.run(trace.source());
    assert!(unobserved.recorder().is_none());
    let mut observed =
        Engine::observed(config.clone(), MetricsRecorder::new()).expect("valid config");
    let observed_stats = observed.run(trace.source());
    assert_eq!(
        plain_stats.to_words(),
        observed_stats.to_words(),
        "{bench:?}: observed run diverged from the unobserved run"
    );
    assert_eq!(plain_stats.digest(), observed_stats.digest());
    (observed_stats, observed)
}

#[test]
fn stats_bit_identical_with_metrics_recorder_all_workloads() {
    let config = EngineConfig::paper_4wide();
    for bench in SpecBenchmark::ALL {
        run_both(&config, bench);
    }
}

#[test]
fn stats_bit_identical_under_caches_and_real_predictor() {
    // The cached profile exercises the I/D-cache miss emission paths:
    // every miss the caches count is an event the recorder counted.
    let config = EngineConfig::paper_2wide_cached();
    let (stats, engine) = run_both(&config, SpecBenchmark::Vortex);
    let rec = engine.into_recorder().expect("the engine is observed");
    assert!(stats.memory.l1d.misses() > 0);
    assert_eq!(
        rec.counter_value(Counter::IcacheMisses),
        stats.memory.l1i.misses()
    );
    assert_eq!(
        rec.counter_value(Counter::DcacheMisses),
        stats.memory.l1d.misses()
    );
}

#[test]
fn recorder_collects_consistently_with_stats() {
    let config = EngineConfig::paper_4wide();
    let (stats, engine) = run_both(&config, SpecBenchmark::Gzip);
    let rec = engine.recorder().expect("the engine is observed");

    // Counters agree with the statistics they mirror, and the stage
    // counters with the scheduler's activity totals.
    assert_eq!(rec.counter_value(Counter::Fetched), stats.fetched);
    assert_eq!(rec.counter_value(Counter::Committed), stats.committed);
    assert_eq!(rec.counter_value(Counter::Issued), stats.issued);
    assert_eq!(
        rec.counter_value(Counter::MispredictRecoveries),
        stats.mispredict_recoveries
    );
    assert_eq!(rec.counter_value(Counter::Squashed), stats.squashed);
    assert_eq!(rec.counter_value(Counter::Misfetches), stats.misfetches);
    let stage_counters = [
        Counter::Committed,
        Counter::WrittenBack,
        Counter::LsqRefreshed,
        Counter::Issued,
        Counter::Dispatched,
        Counter::Fetched,
    ];
    for ((stage, ops), counter) in engine
        .scheduler()
        .activity()
        .into_iter()
        .zip(stage_counters)
    {
        assert_eq!(rec.counter_value(counter), ops, "{stage}");
    }

    // One occupancy sample per cycle, gauges match the occupancy sums.
    let rb = rec.gauge_summary(Gauge::RbOccupancy);
    assert_eq!(rb.samples, stats.cycles);
    assert_eq!(rec.occupancy().cycles(), stats.cycles);
    assert!((rb.avg - stats.avg_rb_occupancy()).abs() < 1e-9);

    // Histogram mass equals the recoveries that fed it, and one
    // observation per cycle for issue and commit.
    assert_eq!(
        rec.histogram_of(Hist::SquashDepth).count(),
        stats.mispredict_recoveries
    );
    assert_eq!(rec.histogram_of(Hist::IssuedPerCycle).count(), stats.cycles);
    assert_eq!(
        rec.histogram_of(Hist::CommittedPerCycle).count(),
        stats.cycles
    );

    // Every stage span was timed once per cycle.
    for span in SpanId::ALL {
        assert_eq!(rec.span_summary(span).calls, stats.cycles, "{span:?}");
    }

    // The journal holds at least the occupancy stream (or hit its bound).
    let j = rec.journal();
    assert!(j.recorded() >= stats.cycles);
}
