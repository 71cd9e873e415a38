//! Calibration helper: prints measured IPC / wrong-path / bits-per-instr
//! per benchmark against the targets implied by the paper's tables.
use resim_bench::*;
use resim_workloads::SpecBenchmark;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);
    // Targets implied by Table 1 / Table 3 (see DESIGN.md).
    let t_left = [
        ("gzip", 1.94),
        ("bzip2", 2.30),
        ("parser", 1.66),
        ("vortex", 1.96),
        ("vpr", 1.70),
    ];
    let t_right = [
        ("gzip", 1.46),
        ("bzip2", 1.32),
        ("parser", 1.19),
        ("vortex", 1.20),
        ("vpr", 1.37),
    ];
    let t_wp = [
        ("gzip", 0.118),
        ("bzip2", 0.064),
        ("parser", 0.127),
        ("vortex", 0.037),
        ("vpr", 0.166),
    ];
    let t_bits = [
        ("gzip", 41.74),
        ("bzip2", 41.16),
        ("parser", 43.66),
        ("vortex", 47.14),
        ("vpr", 43.52),
    ];

    outln!(
        "{:8} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>8}",
        "bench",
        "ipc4",
        "tgt",
        "ipc2c",
        "tgt",
        "wp%",
        "tgt%",
        "bits",
        "tgt",
        "dl1 hit"
    );
    for (i, b) in SpecBenchmark::ALL.iter().enumerate() {
        let (cfg_l, tg_l) = table1_left();
        let rl = run_spec(*b, &cfg_l, &tg_l, n, DEFAULT_SEED);
        let (cfg_r, tg_r) = table1_right();
        let rr = run_spec(*b, &cfg_r, &tg_r, n, DEFAULT_SEED);
        outln!("{:8} | {:>7.3} {:>7.2} | {:>7.3} {:>7.2} | {:>7.3} {:>7.3} | {:>7.2} {:>7.2} | {:>8.3}",
            b.name(),
            rl.stats.ipc(), t_left[i].1,
            rr.stats.ipc(), t_right[i].1,
            rl.stats.wrong_path_fraction()*100.0, t_wp[i].1*100.0,
            rl.trace_stats.bits_per_instruction(), t_bits[i].1,
            rr.stats.memory.l1d.hit_rate());
    }
}
