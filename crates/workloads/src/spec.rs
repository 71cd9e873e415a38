//! Calibrated profiles for the five SPECINT CPU2000 benchmarks of the
//! paper's evaluation (gzip, bzip2, parser, vortex, vpr — train inputs).
//!
//! Calibration targets are the IPCs implied by Table 1 (simulation MIPS ÷
//! major-cycle rate), the wrong-path overheads implied by Table 3 ÷
//! Table 1, and each benchmark's published SPECINT character (instruction
//! mix, code footprint, working set, call depth, branch predictability).
//! The numbers below were tuned against this repository's own engine; the
//! mapping is documented per-benchmark.

use crate::profile::WorkloadProfile;

/// The five SPECINT CPU2000 programs used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecBenchmark {
    /// `164.gzip` — LZ77 compression: streaming memory, small hot loops.
    Gzip,
    /// `256.bzip2` — BWT compression: high ILP, large working set.
    Bzip2,
    /// `197.parser` — link-grammar parser: branchy, pointer-chasing.
    Parser,
    /// `255.vortex` — OO database: call-heavy, large code and data.
    Vortex,
    /// `175.vpr` — FPGA place & route: data-dependent branches.
    Vpr,
}

impl SpecBenchmark {
    /// All five benchmarks in the paper's table order.
    pub const ALL: [SpecBenchmark; 5] = [
        SpecBenchmark::Gzip,
        SpecBenchmark::Bzip2,
        SpecBenchmark::Parser,
        SpecBenchmark::Vortex,
        SpecBenchmark::Vpr,
    ];

    /// The benchmark's display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SpecBenchmark::Gzip => "gzip",
            SpecBenchmark::Bzip2 => "bzip2",
            SpecBenchmark::Parser => "parser",
            SpecBenchmark::Vortex => "vortex",
            SpecBenchmark::Vpr => "vpr",
        }
    }

    /// Looks a benchmark up by its display name (`"gzip"`, `"bzip2"`,
    /// `"parser"`, `"vortex"`, `"vpr"`) — the inverse of
    /// [`SpecBenchmark::name`], used by scenario files and the CLI.
    ///
    /// ```
    /// use resim_workloads::SpecBenchmark;
    ///
    /// assert_eq!(SpecBenchmark::by_name("vpr"), Some(SpecBenchmark::Vpr));
    /// assert_eq!(SpecBenchmark::by_name("mcf"), None);
    /// ```
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The calibrated synthetic profile for this benchmark.
    pub fn profile(self) -> WorkloadProfile {
        match self {
            // gzip: streaming compressor. Tight, small, predictable loops
            // over a window that mostly fits in L1; moderate branch rate.
            SpecBenchmark::Gzip => WorkloadProfile {
                name: "gzip",
                frac_load: 0.20,
                frac_store: 0.09,
                frac_mult: 0.005,
                frac_div: 0.0005,
                frac_nop: 0.01,
                num_blocks: 400,
                block_len_min: 3,
                block_len_max: 8,
                frac_jump: 0.08,
                frac_call: 0.03,
                frac_fallthrough: 0.18,
                frac_loop_branches: 0.55,
                frac_random_branches: 0.005,
                bias_strength: 0.975,
                mean_loop_trips: 55,
                num_functions: 12,
                func_len_blocks: 4,
                dep_distance_mean: 0.50,
                frac_src2: 0.55,
                frac_addr_dep: 0.40,
                working_set_bytes: 48 * 1024,
                frac_seq_access: 0.50,
                frac_stack_access: 0.20,
                seq_stride: 4,
                frac_random_hot: 0.85,
                hot_bytes: 12 * 1024,
            },
            // bzip2: block-sorting compressor. Long predictable loops and
            // wide ILP, but a working set that overflows a 32 KB L1 —
            // which is why its Table 1 ranking flips between the perfect-
            // memory and cached configurations.
            SpecBenchmark::Bzip2 => WorkloadProfile {
                name: "bzip2",
                frac_load: 0.28,
                frac_store: 0.13,
                frac_mult: 0.008,
                frac_div: 0.0005,
                frac_nop: 0.01,
                num_blocks: 500,
                block_len_min: 4,
                block_len_max: 10,
                frac_jump: 0.06,
                frac_call: 0.02,
                frac_fallthrough: 0.22,
                frac_loop_branches: 0.65,
                frac_random_branches: 0.005,
                bias_strength: 0.985,
                mean_loop_trips: 75,
                num_functions: 8,
                func_len_blocks: 4,
                dep_distance_mean: 1.50,
                frac_src2: 0.50,
                frac_addr_dep: 0.60,
                working_set_bytes: 96 * 1024,
                frac_seq_access: 0.55,
                frac_stack_access: 0.10,
                seq_stride: 4,
                frac_random_hot: 0.93,
                hot_bytes: 16 * 1024,
            },
            // parser: link-grammar parsing. Short blocks, lots of
            // data-dependent branches, pointer-chasing list traversal,
            // short dependence chains — the lowest-IPC benchmark.
            SpecBenchmark::Parser => WorkloadProfile {
                name: "parser",
                frac_load: 0.24,
                frac_store: 0.10,
                frac_mult: 0.004,
                frac_div: 0.001,
                frac_nop: 0.01,
                num_blocks: 1500,
                block_len_min: 2,
                block_len_max: 6,
                frac_jump: 0.12,
                frac_call: 0.08,
                frac_fallthrough: 0.20,
                frac_loop_branches: 0.40,
                frac_random_branches: 0.006,
                bias_strength: 0.975,
                mean_loop_trips: 50,
                num_functions: 40,
                func_len_blocks: 4,
                dep_distance_mean: 0.30,
                frac_src2: 0.55,
                frac_addr_dep: 0.72,
                working_set_bytes: 96 * 1024,
                frac_seq_access: 0.30,
                frac_stack_access: 0.30,
                seq_stride: 8,
                frac_random_hot: 0.97,
                hot_bytes: 12 * 1024,
            },
            // vortex: object-oriented database. Very predictable control
            // flow (lowest wrong-path overhead in Table 3), deep call
            // chains, the heaviest memory traffic and the largest code
            // footprint (I-cache pressure) — and the highest trace
            // bits/instruction.
            SpecBenchmark::Vortex => WorkloadProfile {
                name: "vortex",
                frac_load: 0.31,
                frac_store: 0.20,
                frac_mult: 0.003,
                frac_div: 0.0002,
                frac_nop: 0.01,
                num_blocks: 3000,
                block_len_min: 3,
                block_len_max: 8,
                frac_jump: 0.10,
                frac_call: 0.12,
                frac_fallthrough: 0.12,
                frac_loop_branches: 0.30,
                frac_random_branches: 0.001,
                bias_strength: 0.999,
                mean_loop_trips: 150,
                num_functions: 60,
                func_len_blocks: 5,
                dep_distance_mean: 0.50,
                frac_src2: 0.50,
                frac_addr_dep: 0.68,
                working_set_bytes: 128 * 1024,
                frac_seq_access: 0.40,
                frac_stack_access: 0.25,
                seq_stride: 4,
                frac_random_hot: 0.98,
                hot_bytes: 16 * 1024,
            },
            // vpr: placement & routing. Cost-comparison branches driven by
            // data (the highest wrong-path overhead in Table 3), moderate
            // memory behaviour.
            SpecBenchmark::Vpr => WorkloadProfile {
                name: "vpr",
                frac_load: 0.27,
                frac_store: 0.11,
                frac_mult: 0.012,
                frac_div: 0.002,
                frac_nop: 0.01,
                num_blocks: 800,
                block_len_min: 3,
                block_len_max: 8,
                frac_jump: 0.08,
                frac_call: 0.05,
                frac_fallthrough: 0.14,
                frac_loop_branches: 0.42,
                frac_random_branches: 0.010,
                bias_strength: 0.96,
                mean_loop_trips: 25,
                num_functions: 20,
                func_len_blocks: 4,
                dep_distance_mean: 0.35,
                frac_src2: 0.55,
                frac_addr_dep: 0.35,
                working_set_bytes: 48 * 1024,
                frac_seq_access: 0.40,
                frac_stack_access: 0.25,
                seq_stride: 4,
                frac_random_hot: 0.98,
                hot_bytes: 12 * 1024,
            },
        }
    }
}

impl std::fmt::Display for SpecBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Workload;
    use resim_trace::Trace;

    #[test]
    fn all_profiles_validate() {
        for b in SpecBenchmark::ALL {
            b.profile().validate();
            assert_eq!(b.profile().name, b.name());
        }
    }

    #[test]
    fn vortex_is_most_memory_heavy() {
        let frac_mem = |b: SpecBenchmark| {
            let recs = Workload::spec(b, 1).generate(40_000);
            recs.iter().filter(|r| r.is_load() || r.is_store()).count() as f64 / 40_000.0
        };
        let vortex = frac_mem(SpecBenchmark::Vortex);
        for b in [
            SpecBenchmark::Gzip,
            SpecBenchmark::Bzip2,
            SpecBenchmark::Vpr,
        ] {
            assert!(
                vortex > frac_mem(b),
                "vortex must have the largest memory fraction (vs {b})"
            );
        }
    }

    #[test]
    fn vortex_has_highest_bits_per_instruction() {
        // Table 3 ordering: vortex tops bits/instruction because memory
        // records carry full addresses.
        let bits = |b: SpecBenchmark| {
            let recs = Workload::spec(b, 2).generate(40_000);
            let t: Trace = recs.into_iter().collect();
            t.stats().bits_per_instruction()
        };
        let vortex = bits(SpecBenchmark::Vortex);
        for b in [SpecBenchmark::Gzip, SpecBenchmark::Bzip2] {
            assert!(vortex > bits(b), "vortex bits/instr must exceed {b}");
        }
        // And everything sits in a plausible pre-decoded-trace band.
        for b in SpecBenchmark::ALL {
            let v = bits(b);
            assert!((25.0..60.0).contains(&v), "{b}: {v} bits/instr");
        }
    }

    #[test]
    fn code_footprints_ordered() {
        // vortex has the paper-famous large code footprint.
        let code = |b: SpecBenchmark| Workload::spec(b, 3).cfg().code_bytes();
        assert!(code(SpecBenchmark::Vortex) > code(SpecBenchmark::Gzip));
        assert!(code(SpecBenchmark::Parser) > code(SpecBenchmark::Bzip2));
    }

    #[test]
    fn display_names() {
        assert_eq!(SpecBenchmark::Gzip.to_string(), "gzip");
        assert_eq!(SpecBenchmark::Vpr.to_string(), "vpr");
    }
}
