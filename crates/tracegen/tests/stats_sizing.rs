//! `Trace::stats` sizes records in closed form, without encoding. On
//! every SPEC workload model, tagged with wrong-path blocks as the
//! sweeps generate them, it must agree with the encoder exactly.

use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

#[test]
fn closed_form_stats_match_the_encoder_on_every_spec_model() {
    for bench in SpecBenchmark::ALL {
        for config in [TraceGenConfig::paper(), TraceGenConfig::perfect()] {
            let trace = generate_trace(Workload::spec(bench, 2009), 20_000, &config);
            let encoded = trace.encode();
            assert_eq!(&trace.stats(), encoded.stats(), "{bench}");
            assert_eq!(trace.stats().total_bits(), encoded.len_bits(), "{bench}");
        }
    }
}
