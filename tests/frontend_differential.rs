//! Frontend differential: the engine must be bit-identical on `SimStats`
//! whether it consumes a trace from memory, from an on-disk layout-v1
//! container, or from an on-disk layout-v2 (delta/run-length) container.
//!
//! The codec and the container are pure transport — if any of the three
//! paths diverges by even one statistics word, records were dropped,
//! reordered, or mis-decoded somewhere in the framing. All five paper
//! workloads, three seeds each.

use resim::prelude::*;
use resim_trace::{FileSource, TraceFileHeader};

const BUDGET: usize = 8_000;

fn run_stats(config: &EngineConfig, source: impl TraceSource) -> SimStats {
    Engine::new(config.clone())
        .expect("paper config is valid")
        .run(source)
}

#[test]
fn memory_v1_and_v2_frontends_are_bit_identical() {
    let config = EngineConfig::paper_4wide();
    let tracegen = TraceGenConfig::paper();
    for bench in SpecBenchmark::ALL {
        for seed in [1u64, 2009, 0xDA7E] {
            let trace = generate_trace(Workload::spec(bench, seed), BUDGET, &tracegen);
            let reference = run_stats(&config, trace.source());

            for (label, encoded) in [("v1", trace.encode()), ("v2", trace.encode_v2())] {
                let header = TraceFileHeader::for_trace(
                    &encoded,
                    bench.name(),
                    seed,
                    tracegen.fingerprint(),
                )
                .with_correct_records(trace.correct_path_len() as u64);
                let mut container = Vec::new();
                header.write_trace(&mut container, &encoded).unwrap();

                let mut src = FileSource::from_reader(&container[..]).unwrap();
                let stats = run_stats(&config, &mut src);
                assert!(
                    src.error().is_none(),
                    "{} seed {seed} {label}: container stream errored: {:?}",
                    bench.name(),
                    src.error()
                );
                assert_eq!(
                    stats,
                    reference,
                    "{} seed {seed}: {label} container diverged from the in-memory run \
                     (digest {:#018x} vs {:#018x})",
                    bench.name(),
                    stats.digest(),
                    reference.digest()
                );
            }
        }
    }
}
