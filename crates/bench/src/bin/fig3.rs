//! Regenerates **Figure 3**: the improved (efficient) pipeline including
//! the L1 D-cache — N+4 minor cycles per major cycle.

use resim_core::PipelineDescription;

fn main() {
    let width = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    println!(
        "{}",
        PipelineDescription::improved()
            .schedule(width)
            .expect("a schedule needs width >= 1")
            .render()
    );
    println!("Writeback is scheduled one cycle early (pipelined control, paper SIV.B);");
    println!("the cache access precedes writeback; bookkeeping fills the last minor cycle.");
}
