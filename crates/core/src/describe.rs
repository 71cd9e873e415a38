//! Textual rendering of the simulated microarchitecture — the content of
//! the paper's Figure 1 (ReSim block diagram).

use crate::config::EngineConfig;
use crate::scheduler::MinorCycleScheduler;
use resim_bpred::DirectionConfig;
use resim_mem::MemorySystemConfig;
use std::fmt::Write as _;

/// Renders the block diagram of the simulated machine (Figure 1) for a
/// given configuration: the stages, the structures between them and
/// their configured sizes.
///
/// Invalid configurations render as a one-line diagnosis instead of a
/// diagram — this function never panics.
pub fn block_diagram(config: &EngineConfig) -> String {
    let scheduler: MinorCycleScheduler = match MinorCycleScheduler::new(config) {
        Ok(s) => s,
        Err(e) => return format!("invalid configuration: {e}\n"),
    };
    let dir = match config.predictor.direction {
        DirectionConfig::Perfect => "perfect".to_owned(),
        DirectionConfig::Taken => "static-taken".to_owned(),
        DirectionConfig::NotTaken => "static-not-taken".to_owned(),
        DirectionConfig::Bimodal { size } => format!("bimodal[{size}]"),
        DirectionConfig::TwoLevel(t) => format!(
            "2-level[BHT {} x {}b -> PHT {}]",
            t.l1_size, t.history_bits, t.l2_size
        ),
    };
    let mem = match config.memory {
        MemorySystemConfig::Perfect { latency } => format!("perfect memory ({latency}-cycle)"),
        MemorySystemConfig::Split { l1i, l1d } => format!(
            "L1-I {}KB/{}-way/{}B + L1-D {}KB/{}-way/{}B",
            l1i.size_bytes / 1024,
            l1i.associativity,
            l1i.block_bytes,
            l1d.size_bytes / 1024,
            l1d.associativity,
            l1d.block_bytes,
        ),
    };
    let width = config.width;
    let rows = [
        format!(
            "  FETCH  --> IFQ[{}] --> Decouple --> DISPATCH",
            config.ifq_size
        ),
        "    |                            |          |".to_owned(),
        "    v                            v          v".to_owned(),
        format!(
            "  Branch Predictor          Rename Table   RB[{}]",
            config.rb_size
        ),
        format!("{:<42} LSQ[{}]", format!("   ({dir})"), config.lsq_size),
        format!(
            "   BTB[{}] RAS[{}]",
            config.predictor.btb.entries, config.predictor.ras_entries
        ),
        String::new(),
        format!(
            "  ISSUE/EX: {}xALU(lat {}) {}xMUL(lat {}) {}xDIV(lat {})",
            config.fus.alus,
            config.fus.alu_latency,
            config.fus.mults,
            config.fus.mult_latency,
            config.fus.divs,
            config.fus.div_latency
        ),
        "  Lsq_refresh -> load wakeup, store-to-load forwarding".to_owned(),
        format!("  WRITEBACK ({width}/cycle) --> COMMIT ({width}/cycle)"),
        format!(
            "  mem ports: {} read / {} write",
            config.mem_read_ports, config.mem_write_ports
        ),
    ];
    // The box widens to its longest row, keeping two columns of margin.
    let inner = rows.iter().map(|r| r.len() + 2).max().unwrap_or(0).max(56);
    let border = format!("           +{}+\n", "-".repeat(inner));
    let mut out = format!("ReSim simulated microarchitecture (Figure 1), {width}-wide\n\n{border}");
    for (i, row) in rows.iter().enumerate() {
        let lead = if i == 0 { "  trace -> " } else { "           " };
        let _ = writeln!(out, "{lead}|{row:<inner$}|");
    }
    out.push_str(&border);
    let _ = write!(
        out,
        "  memory:  {mem}\n  penalties: misfetch {}, mispredict {}\n  \
         engine pipeline: {} ({} minor cycles per simulated cycle)\n  \
         stage roster: {} (evaluation order)\n",
        config.misfetch_penalty,
        config.mispredict_penalty,
        config.pipeline,
        config.minor_cycles_per_major(),
        scheduler.roster().join(" -> "),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagram_mentions_all_structures() {
        let d = block_diagram(&EngineConfig::paper_4wide());
        for needle in [
            "FETCH",
            "IFQ[16]",
            "DISPATCH",
            "RB[16]",
            "LSQ[8]",
            "BTB[512]",
            "RAS[16]",
            "4xALU",
            "1xMUL",
            "1xDIV",
            "COMMIT",
            "Lsq_refresh",
            "perfect memory",
            "optimized",
            "7 minor cycles",
            "Commit -> Writeback -> Lsq_refresh -> Issue -> Dispatch -> Fetch",
        ] {
            assert!(d.contains(needle), "diagram must mention {needle}:\n{d}");
        }
    }

    #[test]
    fn every_row_reaches_the_right_border() {
        let mut bimodal = EngineConfig::paper_4wide();
        bimodal.predictor.direction = DirectionConfig::Bimodal { size: 2048 };
        let mut gshare = EngineConfig::paper_4wide();
        gshare.predictor.direction =
            DirectionConfig::TwoLevel(resim_bpred::TwoLevelConfig::gshare(12, 4096));
        for config in [
            EngineConfig::paper_4wide(),
            EngineConfig::paper_2wide_cached(),
            bimodal,
            gshare,
        ] {
            let d = block_diagram(&config);
            let lines: Vec<&str> = d.lines().collect();
            let borders: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].trim_start().starts_with('+'))
                .collect();
            let [top, bottom] = borders[..] else {
                panic!("two border lines expected:\n{d}");
            };
            assert!(bottom > top + 1, "{d}");
            for line in &lines[top..=bottom] {
                assert_eq!(line.len(), lines[top].len(), "{line:?} in\n{d}");
                assert!(line.ends_with(['|', '+']), "{line:?} in\n{d}");
            }
        }
    }

    #[test]
    fn cached_config_mentions_caches() {
        let d = block_diagram(&EngineConfig::paper_2wide_cached());
        assert!(d.contains("L1-I 32KB/8-way/64B"));
        assert!(d.contains("perfect"), "perfect branch prediction");
    }
}
