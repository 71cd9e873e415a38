//! Regenerates **Figure 2**: the simple serial pipeline (2N+3 minor
//! cycles per major cycle), shown for a 4-wide processor.

use resim_bench::outln;
use resim_core::PipelineDescription;

fn main() {
    let width = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    outln!(
        "{}",
        PipelineDescription::simple()
            .schedule(width)
            .expect("a schedule needs width >= 1")
            .render()
    );
    outln!("Writeback and Lsq_refresh minor cycles precede Issue (paper SIV.A);");
    outln!("DPL and CA stand for Decouple and Cache Access.");
}
