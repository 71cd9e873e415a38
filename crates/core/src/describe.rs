//! Textual rendering of the simulated microarchitecture — the content of
//! the paper's Figure 1 (ReSim block diagram).

use crate::config::EngineConfig;
use crate::scheduler::MinorCycleScheduler;
use resim_bpred::DirectionConfig;
use resim_mem::MemorySystemConfig;

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
    format!(
        r#"ReSim simulated microarchitecture (Figure 1), {width}-wide

           +--------------------------------------------------------+
  trace -> |  FETCH  --> IFQ[{ifq}] --> Decouple --> DISPATCH         |
           |    |                            |          |           |
           |    v                            v          v           |
           |  Branch Predictor          Rename Table   RB[{rb}]       |
           |   ({dir})                                  LSQ[{lsq}]      |
           |   BTB[{btb}] RAS[{ras}]                                     |
           |                                                        |
           |  ISSUE/EX: {alus}xALU(lat {alat}) {mults}xMUL(lat {mlat}) {divs}xDIV(lat {dlat})    |
           |  Lsq_refresh -> load wakeup, store-to-load forwarding  |
           |  WRITEBACK ({width}/cycle) --> COMMIT ({width}/cycle)            |
           |  mem ports: {rport} read / {wport} write                          |
           +--------------------------------------------------------+
  memory:  {mem}
  penalties: misfetch {mfp}, mispredict {mpp}
  engine pipeline: {pipe} ({minor} minor cycles per simulated cycle)
  stage roster: {roster} (evaluation order)
"#,
        width = config.width,
        ifq = config.ifq_size,
        rb = config.rb_size,
        lsq = config.lsq_size,
        dir = dir,
        btb = config.predictor.btb.entries,
        ras = config.predictor.ras_entries,
        alus = config.fus.alus,
        alat = config.fus.alu_latency,
        mults = config.fus.mults,
        mlat = config.fus.mult_latency,
        divs = config.fus.divs,
        dlat = config.fus.div_latency,
        rport = config.mem_read_ports,
        wport = config.mem_write_ports,
        mem = mem,
        mfp = config.misfetch_penalty,
        mpp = config.mispredict_penalty,
        pipe = config.pipeline,
        minor = config.minor_cycles_per_major(),
        roster = scheduler.roster().join(" -> "),
    )
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
    fn cached_config_mentions_caches() {
        let d = block_diagram(&EngineConfig::paper_2wide_cached());
        assert!(d.contains("L1-I 32KB/8-way/64B"));
        assert!(d.contains("perfect"), "perfect branch prediction");
    }
}
