//! On-the-fly trace generation — the FAST-style coupled mode the paper
//! proposes in §I and §VI: "produce the trace on the fly directly from a
//! functional simulator".
//!
//! Instead of materialising a trace, a [`TraceStream`] adapter tags and
//! expands the workload's records as the engine pulls them, and the
//! trace-link model checks whether the host-to-FPGA channel could keep up
//! with the measured record rate.
//!
//! Run with: `cargo run --release --example on_the_fly [instructions]`

use resim::prelude::*;

/// A capped adapter so the infinite synthetic stream ends.
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);

    let config = EngineConfig::paper_4wide();
    let workload = Workload::spec(SpecBenchmark::Vpr, 2009);

    // The coupled pipeline: workload -> tagger/wrong-path synthesis ->
    // engine, one record at a time, no trace buffer anywhere.
    let stream = TraceStream::new(workload, TraceGenConfig::paper());
    let mut engine = Engine::new(config.clone())?;
    let stats = engine.run(Capped {
        inner: stream,
        left: n * 2, // cap on *total* records incl. wrong path
    });

    println!(
        "on-the-fly simulation of vpr ({} records consumed)",
        stats.trace_records_consumed()
    );
    println!(
        "IPC {:.3}, wrong-path fraction {:.1}%\n",
        stats.ipc(),
        100.0 * stats.wrong_path_fraction()
    );

    // Would the link keep up? Encode a window of the same stream to
    // measure its bit rate.
    let sample = generate_trace(
        Workload::spec(SpecBenchmark::Vpr, 2009),
        50_000,
        &TraceGenConfig::paper(),
    );
    let bits = sample.stats().bits_per_instruction();
    for device in FpgaDevice::PAPER {
        let speed = ThroughputModel::new(device).speed(&config, &stats, None);
        let demand = speed.mips_including_wrong_path;
        println!(
            "{device}: engine wants {demand:.2} M records/s ({:.2} Gb/s)",
            demand * bits / 1000.0
        );
        for link in [TraceLink::GigabitEthernet, TraceLink::DrcHyperTransport] {
            let eff = effective_mips(demand, bits, link);
            println!(
                "  {:20} delivers {:>6.2} MIPS{}",
                link.to_string(),
                eff,
                if eff + 1e-9 < demand {
                    "  <- link-bound"
                } else {
                    ""
                }
            );
        }
    }
    Ok(())
}
