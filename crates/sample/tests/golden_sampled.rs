//! Golden regression fixture for sampled runs on real caches.
//!
//! The sampled path carries warm predictor and cache state from the
//! functional warmer into every detailed window and back. This fixture
//! pins the merged [`SimStats::digest`] and every [`WindowStats`] of
//! sampled plans over split 32K L1 caches under each replacement policy
//! (Random exercises the replacement RNG state), the paper's two-level
//! predictor, both warmup modes and a non-zero offset. Any change to how
//! warm state crosses a window boundary that is not exactly equivalent
//! turns this red.

use resim_core::EngineConfig;
use resim_mem::{CacheConfig, MemorySystemConfig, Replacement};
use resim_sample::{run_sampled, SamplePlan, WarmupMode, WindowStats};
use resim_trace::Trace;
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

fn golden_trace() -> Trace {
    generate_trace(
        Workload::spec(SpecBenchmark::Bzip2, 2009),
        100_000,
        &TraceGenConfig::paper(),
    )
}

fn config(replacement: Replacement) -> EngineConfig {
    let cache = CacheConfig {
        replacement,
        ..CacheConfig::l1_32k()
    };
    EngineConfig {
        memory: MemorySystemConfig::Split {
            l1i: cache,
            l1d: cache,
        },
        ..EngineConfig::paper_4wide()
    }
}

fn plan(warmup: WarmupMode) -> SamplePlan {
    SamplePlan::systematic(8_000, 1_000, 3)
        .with_offset(1)
        .with_warmup(warmup)
}

/// `(interval, start_record, records, committed, cycles)` per window.
type WindowPin = (u64, u64, u64, u64, u64);

struct Pin {
    replacement: Replacement,
    warmup: WarmupMode,
    digest: u64,
    windows: &'static [WindowPin],
}

/// Captured while each window still copied the warm tables in and out;
/// handing the live objects over by move must reproduce them exactly.
const PINS: &[Pin] = &[
    Pin {
        replacement: Replacement::Lru,
        warmup: WarmupMode::Functional,
        digest: 0x07f701178a14b7b0,
        windows: &[
            (1, 8000, 1000, 936, 538),
            (4, 32000, 1000, 936, 604),
            (7, 56000, 1000, 478, 553),
            (10, 80000, 1000, 936, 657),
            (13, 104000, 1000, 872, 597),
        ],
    },
    Pin {
        replacement: Replacement::Lru,
        warmup: WarmupMode::Bounded(3000),
        digest: 0x4060835c4dffee2e,
        windows: &[
            (1, 8000, 1000, 936, 909),
            (4, 32000, 1000, 936, 648),
            (7, 56000, 1000, 478, 533),
            (10, 80000, 1000, 936, 638),
            (13, 104000, 1000, 872, 578),
        ],
    },
    Pin {
        replacement: Replacement::Fifo,
        warmup: WarmupMode::Functional,
        digest: 0xeeea486e6a4ec657,
        windows: &[
            (1, 8000, 1000, 936, 538),
            (4, 32000, 1000, 936, 728),
            (7, 56000, 1000, 478, 615),
            (10, 80000, 1000, 936, 797),
            (13, 104000, 1000, 872, 863),
        ],
    },
    Pin {
        replacement: Replacement::Fifo,
        warmup: WarmupMode::Bounded(3000),
        digest: 0x7df1c4947ccd6822,
        windows: &[
            (1, 8000, 1000, 936, 909),
            (4, 32000, 1000, 936, 648),
            (7, 56000, 1000, 478, 536),
            (10, 80000, 1000, 936, 804),
            (13, 104000, 1000, 872, 691),
        ],
    },
    Pin {
        replacement: Replacement::Random,
        warmup: WarmupMode::Functional,
        digest: 0x192a07c71e3515c5,
        windows: &[
            (1, 8000, 1000, 936, 538),
            (4, 32000, 1000, 936, 722),
            (7, 56000, 1000, 478, 653),
            (10, 80000, 1000, 936, 694),
            (13, 104000, 1000, 872, 750),
        ],
    },
    Pin {
        replacement: Replacement::Random,
        warmup: WarmupMode::Bounded(3000),
        digest: 0x857b542a3126914c,
        windows: &[
            (1, 8000, 1000, 936, 909),
            (4, 32000, 1000, 936, 648),
            (7, 56000, 1000, 478, 516),
            (10, 80000, 1000, 936, 676),
            (13, 104000, 1000, 872, 655),
        ],
    },
];

fn window_pin(w: &WindowStats) -> WindowPin {
    (w.interval, w.start_record, w.records, w.committed, w.cycles)
}

#[test]
fn sampled_cached_runs_match_pins() {
    let trace = golden_trace();
    let mut actual = String::new();
    let mut ok = true;
    for replacement in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
        for warmup in [WarmupMode::Functional, WarmupMode::Bounded(3_000)] {
            let s = run_sampled(&config(replacement), trace.source(), &plan(warmup)).unwrap();
            assert!(!s.full_coverage);
            let digest = s.sim.digest();
            let windows: Vec<WindowPin> = s.windows.iter().map(window_pin).collect();
            actual.push_str(&format!(
                "    Pin {{\n        replacement: Replacement::{replacement:?},\n        \
                 warmup: WarmupMode::{warmup:?},\n        digest: {digest:#018x},\n        \
                 windows: &{windows:?},\n    }},\n"
            ));
            let pin = PINS
                .iter()
                .find(|p| p.replacement == replacement && p.warmup == warmup);
            ok &= pin.is_some_and(|p| p.digest == digest && p.windows == windows.as_slice());
        }
    }
    assert!(ok, "sampled stats drifted; actual pins:\n{actual}");
}
