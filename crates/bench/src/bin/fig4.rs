//! Regenerates **Figure 4**: the optimized pipeline — Lsq_refresh executes
//! in parallel with the first Issue slot, which carries no load, giving
//! N+3 minor cycles (requires at most N-1 memory ports).

use resim_bench::outln;
use resim_core::PipelineDescription;

fn main() {
    let width = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    outln!(
        "{}",
        PipelineDescription::optimized()
            .schedule(width)
            .expect("a schedule needs width >= 1")
            .render()
    );
    outln!("The first Issue slot considers no loads, so it needs no cache access and");
    outln!("can share its minor cycle with Lsq_refresh (paper SIV.B).");
}
