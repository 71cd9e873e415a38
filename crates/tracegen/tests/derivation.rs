//! Deriving one tagged trace from another's correct path is exact.
//!
//! Tagging replays the predictor over the correct-path stream and
//! splices synthesised wrong-path blocks after each mispredict; the
//! correct-path records pass through untouched. So the untagged records
//! of any trace generated with budget `n` are the first `n` records of
//! its stream, and tagging them again under another configuration gives
//! the trace generating from the stream would. Sweeps rely on this to
//! walk each workload once per `(workload, seed, budget)` point and
//! derive every other predictor's trace from the first one.

use resim_bpred::{DirectionConfig, PredictorConfig};
use resim_trace::{Trace, TraceRecord};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

/// The correct path of `trace`: its untagged records, in order.
fn correct_path(trace: &Trace) -> impl Iterator<Item = TraceRecord> + '_ {
    trace.records().iter().filter(|r| !r.wrong_path()).copied()
}

/// Two-level, perfect, bimodal and always-taken, each at wrong-path
/// block lengths 8 and 32.
fn configs() -> Vec<TraceGenConfig> {
    let directions = [
        PredictorConfig::paper_two_level(),
        PredictorConfig::perfect(),
        PredictorConfig {
            direction: DirectionConfig::Bimodal { size: 2048 },
            ..PredictorConfig::paper_two_level()
        },
        PredictorConfig {
            direction: DirectionConfig::Taken,
            ..PredictorConfig::paper_two_level()
        },
    ];
    directions
        .into_iter()
        .flat_map(|predictor| {
            [8, 32].map(|wrong_path_len| TraceGenConfig {
                predictor,
                wrong_path_len,
                ..TraceGenConfig::paper()
            })
        })
        .collect()
}

/// Checks `derive(a → b) == generate(b)` for every ordered pair of
/// [`configs`] over the stream `make()` yields, with budget `n`.
fn check_every_pair<I: IntoIterator<Item = TraceRecord>>(
    what: &str,
    n: usize,
    make: impl Fn() -> I,
) {
    let configs = configs();
    let direct: Vec<Trace> = configs
        .iter()
        .map(|c| generate_trace(make(), n, c))
        .collect();
    for (a, from) in direct.iter().enumerate() {
        for (b, config) in configs.iter().enumerate() {
            let derived = generate_trace(correct_path(from), n, config);
            assert!(
                derived == direct[b],
                "{what}: deriving config {b} from config {a}'s trace differs from generating it"
            );
        }
    }
}

#[test]
fn the_configs_tag_differently() {
    // The pairs only test something if the configurations disagree. The
    // perfect predictor inserts no blocks, so its two block lengths are
    // the one exception.
    let w = || Workload::spec(SpecBenchmark::Vpr, 2009);
    let configs = configs();
    let traces: Vec<Trace> = configs
        .iter()
        .map(|c| generate_trace(w(), 20_000, c))
        .collect();
    let perfect = |i: usize| configs[i].predictor == PredictorConfig::perfect();
    for i in 0..traces.len() {
        for j in i + 1..traces.len() {
            assert_eq!(
                traces[i] == traces[j],
                perfect(i) && perfect(j),
                "configs {i} and {j}"
            );
        }
    }
}

#[test]
fn derivation_is_exact_for_every_pair_of_configs() {
    for (bench, seed) in [(SpecBenchmark::Vpr, 2009), (SpecBenchmark::Parser, 7)] {
        check_every_pair(bench.name(), 20_000, || Workload::spec(bench, seed));
    }
}

#[test]
fn derivation_is_exact_for_a_stream_shorter_than_the_budget() {
    let stream: Vec<TraceRecord> = Workload::spec(SpecBenchmark::Gzip, 11).generate(5_000);
    check_every_pair("finite gzip", 8_000, || stream.clone());
    let trace = generate_trace(stream.clone(), 8_000, &TraceGenConfig::paper());
    assert_eq!(
        trace.correct_path_len(),
        5_000,
        "the trace ends with its stream"
    );
}
