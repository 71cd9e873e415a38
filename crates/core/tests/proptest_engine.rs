//! Property tests over the engine's architectural invariants, driven by
//! randomly-parameterised synthetic workloads.

use proptest::prelude::*;
use resim_core::{Engine, EngineConfig, FuConfig, PipelineDescription};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload, WorkloadProfile};

/// A randomised but always-valid workload profile.
fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        0.05f64..0.30, // frac_load
        0.02f64..0.15, // frac_store
        0.0f64..0.03,  // frac_mult
        0.0f64..0.005, // frac_div
        0.2f64..3.0,   // dep_distance_mean
        0.0f64..0.8,   // frac_addr_dep
        0.0f64..0.15,  // frac_random_branches
        0.80f64..0.99, // bias_strength
        2u32..60,      // mean_loop_trips
        50usize..400,  // num_blocks
    )
        .prop_map(
            |(load, store, mult, div, dep, addr, random, bias, trips, blocks)| WorkloadProfile {
                frac_load: load,
                frac_store: store,
                frac_mult: mult,
                frac_div: div,
                dep_distance_mean: dep,
                frac_addr_dep: addr,
                frac_random_branches: random,
                bias_strength: bias,
                mean_loop_trips: trips,
                num_blocks: blocks,
                ..WorkloadProfile::generic()
            },
        )
}

/// The `[pipeline]` sections of every shipped `examples/pipelines/*.toml`.
fn example_pipelines() -> Vec<PipelineDescription> {
    ["simple", "improved", "optimized", "fused"]
        .into_iter()
        .map(|name| {
            let path = format!(
                "{}/../../examples/pipelines/{name}.toml",
                env!("CARGO_MANIFEST_DIR")
            );
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let doc = resim_toml::parse(&text).expect("example parses");
            let table = doc
                .opt_table("pipeline")
                .unwrap()
                .expect("example has [pipeline]");
            PipelineDescription::from_table(table).expect("example pipeline is valid")
        })
        .collect()
}

fn arb_config() -> impl Strategy<Value = EngineConfig> {
    (
        prop_oneof![Just(2usize), Just(4), Just(8)],
        prop_oneof![Just(8usize), Just(16), Just(32)],
        prop_oneof![Just(4usize), Just(8), Just(16)],
    )
        .prop_map(|(width, rb, lsq)| EngineConfig {
            width,
            rb_size: rb.max(width),
            lsq_size: lsq,
            ifq_size: 16,
            fus: FuConfig {
                alus: width,
                ..FuConfig::paper()
            },
            mem_read_ports: (width - 1).max(1),
            pipeline: if width == 1 {
                PipelineDescription::improved()
            } else {
                PipelineDescription::optimized()
            },
            ..EngineConfig::paper_4wide()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation laws: every fetched instruction either commits or is
    /// squashed wrong-path work; every trace record is consumed; IPC
    /// never exceeds the width; occupancies never exceed capacities.
    #[test]
    fn conservation_and_bounds(
        profile in arb_profile(),
        config in arb_config(),
        seed in 0u64..1000,
    ) {
        let n = 6_000usize;
        let trace = generate_trace(Workload::new(&profile, seed), n, &TraceGenConfig::paper());
        let mut engine = Engine::new(config.clone()).expect("generated configs are valid");
        let stats = engine.run(trace.source());

        prop_assert_eq!(stats.committed, n as u64);
        prop_assert_eq!(stats.fetched, stats.committed + stats.wrong_path_fetched);
        prop_assert_eq!(stats.trace_records_consumed(), trace.len() as u64);
        prop_assert!(stats.ipc() <= config.width as f64 + 1e-9);
        prop_assert!(stats.avg_rb_occupancy() <= config.rb_size as f64);
        prop_assert!(stats.avg_lsq_occupancy() <= config.lsq_size as f64);
        prop_assert!(stats.avg_ifq_occupancy() <= config.ifq_size as f64);
        // Wrong-path work only exists if something mispredicted.
        if stats.wrong_path_fetched > 0 {
            prop_assert!(stats.mispredict_recoveries > 0);
        }
    }

    /// The §IV pipeline organizations — the three built-ins and the four
    /// shipped `examples/pipelines/*.toml` descriptions, `fused`
    /// included — produce identical simulated timing (given the
    /// optimized port precondition): every statistic matches once the
    /// minor-cycle count is re-costed, on the perfect-memory machine and
    /// on the cached `paper-2wide-cached` preset. This is the invariant
    /// that lets a sweep simulate such configurations once; these runs
    /// go through the engine directly, so that sharing cannot hide a
    /// divergence.
    #[test]
    fn pipeline_organizations_agree(
        profile in arb_profile(),
        seed in 0u64..1000,
        width in prop_oneof![Just(2usize), Just(4)],
    ) {
        let perfect = EngineConfig {
            width,
            fus: FuConfig { alus: width, ..FuConfig::paper() },
            mem_read_ports: width - 1,
            ..EngineConfig::paper_4wide()
        };
        let machines = [
            (perfect, TraceGenConfig::paper()),
            (EngineConfig::paper_2wide_cached(), TraceGenConfig::perfect()),
        ];
        for (machine, tracegen) in machines {
            let trace = generate_trace(Workload::new(&profile, seed), 4_000, &tracegen);
            let run = |pipeline: &PipelineDescription| {
                let config = EngineConfig { pipeline: pipeline.clone(), ..machine.clone() };
                let stats = Engine::new(config.clone()).unwrap().run(trace.source());
                (config.minor_cycles_per_major(), stats)
            };
            let (_, base) = run(&machine.pipeline);
            for pipeline in PipelineDescription::builtins().into_iter().chain(example_pipelines()) {
                let (cost, stats) = run(&pipeline);
                prop_assert_eq!(
                    stats,
                    base.with_minor_cycle_cost(cost),
                    "{} at width {}: timing differs", pipeline.name(), machine.width
                );
            }
        }
    }

    /// A queue that never filled is invisible: the run is the same at
    /// any size above the queue's largest occupancy. For every queue of
    /// a SPEC run whose maximum stayed below its size, a run at
    /// `max + 1` and one at a random larger size (at least the width)
    /// under another organization equal the first run re-costed, in
    /// every field, and [`SimStats::covers`] says so. It says no to a
    /// saturated queue asked one entry larger, and to a machine that
    /// differs anywhere but the organization and the queue sizes. This
    /// is the rule that lets a sweep serve several queue sizes from one
    /// run; these runs go through the engine directly, so that sharing
    /// cannot hide a divergence.
    ///
    /// [`SimStats::covers`]: resim_core::SimStats::covers
    #[test]
    fn unsaturated_queues_are_invisible(
        bench in 0usize..SpecBenchmark::ALL.len(),
        seed in 0u64..1000,
        budget in 2_000usize..=20_000,
        cached in 0u8..2,
        organization in 0usize..3,
        ifq in prop_oneof![Just(4usize), Just(8), Just(32), Just(64)],
        rb in prop_oneof![Just(8usize), Just(16), Just(128), Just(256)],
        lsq in prop_oneof![Just(4usize), Just(8), Just(64), Just(128)],
        larger in 0usize..200,
    ) {
        let organizations = PipelineDescription::builtins();
        let workload = Workload::spec(SpecBenchmark::ALL[bench], seed);
        let trace = generate_trace(workload, budget, &TraceGenConfig::paper());
        let ran = EngineConfig {
            ifq_size: ifq,
            rb_size: rb,
            lsq_size: lsq,
            memory: if cached == 1 {
                resim_mem::MemorySystemConfig::l1_32k()
            } else {
                resim_mem::MemorySystemConfig::perfect()
            },
            pipeline: organizations[organization].clone(),
            ..EngineConfig::paper_4wide()
        };
        let stats = Engine::new(ran.clone()).unwrap().run(trace.source());
        let width = ran.width;
        let other_pipeline = organizations[(organization + 1) % 3].clone();

        type Size = fn(&EngineConfig) -> usize;
        type Resize = fn(&mut EngineConfig, usize);
        let queues: [(&str, Size, Resize, u64); 3] = [
            ("ifq", |c| c.ifq_size, |c, n| c.ifq_size = n, stats.ifq_occupancy_max),
            ("rb", |c| c.rb_size, |c, n| c.rb_size = n, stats.rb_occupancy_max),
            ("lsq", |c| c.lsq_size, |c, n| c.lsq_size = n, stats.lsq_occupancy_max),
        ];
        for (name, size, set, max) in queues {
            let resized = |n: usize, pipeline: &PipelineDescription| {
                let mut c = EngineConfig { pipeline: pipeline.clone(), ..ran.clone() };
                set(&mut c, n);
                c
            };
            if max < size(&ran) as u64 {
                let max = max as usize;
                // The IFQ and RB must hold at least one fetch group.
                let floor = if name == "lsq" { 1 } else { width };
                for n in [(max + 1).max(floor), (max + 2 + larger).max(floor)] {
                    let other = resized(n, &other_pipeline);
                    let rerun = Engine::new(other.clone()).unwrap().run(trace.source());
                    prop_assert_eq!(
                        rerun,
                        stats.with_minor_cycle_cost(other.minor_cycles_per_major()),
                        "{} {} -> {} (max {}) changed the run", name, size(&ran), n, max
                    );
                    prop_assert!(stats.covers(&ran, &other), "{} {} -> {}", name, size(&ran), n);
                }
            } else {
                prop_assert_eq!(max, size(&ran) as u64, "{} overflowed", name);
                let other = resized(size(&ran) + 1, &ran.pipeline);
                prop_assert!(!stats.covers(&ran, &other), "saturated {} covered", name);
            }
        }
        let other_machine = EngineConfig {
            mispredict_penalty: ran.mispredict_penalty + 1,
            ..ran.clone()
        };
        prop_assert!(!stats.covers(&ran, &other_machine));
        prop_assert!(stats.covers(&ran, &ran));
    }

    /// Determinism: identical inputs produce identical statistics.
    #[test]
    fn engine_is_deterministic(profile in arb_profile(), seed in 0u64..1000) {
        let trace = generate_trace(Workload::new(&profile, seed), 3_000, &TraceGenConfig::paper());
        let a = Engine::new(EngineConfig::paper_4wide()).unwrap().run(trace.source());
        let b = Engine::new(EngineConfig::paper_4wide()).unwrap().run(trace.source());
        prop_assert_eq!(a, b);
    }

    /// A perfect branch predictor never loses to the real one on the same
    /// (untagged) trace, and perfect memory never loses to caches.
    #[test]
    fn oracle_dominance(profile in arb_profile(), seed in 0u64..500) {
        let trace = generate_trace(Workload::new(&profile, seed), 5_000, &TraceGenConfig::perfect());
        let perfect_bp = EngineConfig {
            predictor: resim_bpred::PredictorConfig::perfect(),
            ..EngineConfig::paper_4wide()
        };
        let real_bp = EngineConfig::paper_4wide();
        let a = Engine::new(perfect_bp.clone()).unwrap().run(trace.source());
        let b = Engine::new(real_bp).unwrap().run(trace.source());
        // Same untagged trace: the only difference is misfetch bubbles.
        prop_assert!(a.cycles <= b.cycles, "perfect BP {} vs real {}", a.cycles, b.cycles);

        let cached = EngineConfig {
            memory: resim_mem::MemorySystemConfig::l1_32k(),
            ..perfect_bp.clone()
        };
        let c = Engine::new(cached).unwrap().run(trace.source());
        prop_assert!(a.cycles <= c.cycles, "perfect mem {} vs cached {}", a.cycles, c.cycles);
    }
}
