//! Regenerates **Figure 1**: the ReSim block diagram (simulated
//! microarchitecture) for both evaluated configurations.

use resim_bench::outln;
use resim_core::{block_diagram, EngineConfig};

fn main() {
    outln!("{}", block_diagram(&EngineConfig::paper_4wide()));
    outln!("{}", block_diagram(&EngineConfig::paper_2wide_cached()));
}
