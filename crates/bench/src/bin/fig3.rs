//! Regenerates **Figure 3**: the improved (efficient) pipeline including
//! the L1 D-cache — N+4 minor cycles per major cycle.

use resim_bench::outln;
use resim_core::PipelineDescription;

fn main() {
    let width = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    outln!(
        "{}",
        PipelineDescription::improved()
            .schedule(width)
            .expect("a schedule needs width >= 1")
            .render()
    );
    outln!("Writeback is scheduled one cycle early (pipelined control, paper SIV.B);");
    outln!("the cache access precedes writeback; bookkeeping fills the last minor cycle.");
}
