//! # resim-bench
//!
//! The ReSim paper report and the host-throughput harness (Fytraki &
//! Pnevmatikatos, DATE 2009).
//!
//! Binaries:
//!
//! | binary | writes |
//! |---|---|
//! | `paper_report` | [`report`]: Tables 1–4, Figures 1–4, the §IV ablations, the §V link analysis, calibration, codec density and sampling error, paper vs ours, as the Markdown of `docs/paper_report.md` |
//! | `throughput_table` | host throughput: frontends, workloads, recorder, components |
//! | `bench_guard` | CI gate: engine throughput per frontend vs `BENCH_BASELINE.json` |
//!
//! A failed write (a closed pipe, say) ends each binary with exit status
//! 1 and a one-line message, not a panic: see [`exit_on_write_error`].
//!
//! Both host-speed binaries time through [`timing`]: best-of-N rates
//! over one trace supplied as a slice, a v1 encoding and a file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod timing;

use std::io::{self, Write};

use resim_core::EngineConfig;
use resim_tracegen::TraceGenConfig;

/// `println!` for the host-speed binaries, through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes `args` to stdout and flushes, through [`exit_on_write_error`].
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    let mut out = io::stdout().lock();
    exit_on_write_error(out.write_fmt(args).and_then(|()| out.flush()));
}

/// Ends the process when `result` is a failed write: `cannot write
/// output: <error>` on stderr and exit status 1, as `resim` does, rather
/// than a panic.
pub fn exit_on_write_error(result: io::Result<()>) {
    if let Err(e) = result {
        let _ = writeln!(io::stderr(), "cannot write output: {e}");
        std::process::exit(1);
    }
}

/// Default workload seed — fixed so every table is reproducible.
pub const DEFAULT_SEED: u64 = 2009;

/// The Table 1 (left) experiment configuration: 4-issue, two-level BP,
/// perfect memory, optimized N+3 pipeline.
pub fn table1_left() -> (EngineConfig, TraceGenConfig) {
    (EngineConfig::paper_4wide(), TraceGenConfig::paper())
}

/// The Table 1 (right) experiment configuration: 2-issue, perfect BP,
/// 32 KB L1 caches, improved N+4 pipeline.
pub fn table1_right() -> (EngineConfig, TraceGenConfig) {
    (
        EngineConfig::paper_2wide_cached(),
        TraceGenConfig::perfect(),
    )
}
