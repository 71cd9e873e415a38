//! Differential tests: the functional simulator vs. the trace-driven
//! timing engine.
//!
//! For every example program of `resim-isa`, the functional simulator
//! executes the program and emits the dynamic instruction stream; the
//! stream is tagged by `resim-tracegen` and replayed through the
//! `resim-core` engine. The two sides must agree exactly on *what*
//! executed — committed instruction count, the committed instruction mix,
//! and every branch outcome — because the engine models only *when*
//! things happen, never *what* happens.

use resim_core::{Engine, EngineConfig};
use resim_isa::{programs, FunctionalSimulator, Program};
use resim_trace::TraceRecord;
use resim_tracegen::{generate_trace, TraceGenConfig};

const FUEL: u64 = 5_000_000;

fn example_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("fibonacci", programs::fibonacci(20)),
        ("recursive_fib", programs::recursive_fib(10)),
        ("bubble_sort", programs::bubble_sort(16)),
        ("matmul", programs::matmul(6)),
        ("sieve", programs::sieve(100)),
        ("string_search", programs::string_search(256)),
        ("pointer_chase", programs::pointer_chase(32, 64)),
    ]
}

/// Runs one program functionally and returns its dynamic stream.
fn functional_stream(name: &str, program: &Program) -> Vec<TraceRecord> {
    let mut sim = FunctionalSimulator::new(program);
    let stream = sim
        .run(FUEL)
        .unwrap_or_else(|e| panic!("{name}: functional execution failed: {e}"));
    assert!(sim.is_halted(), "{name}: program must halt");
    assert!(!stream.is_empty(), "{name}: program must execute something");
    stream
}

#[test]
fn engine_commits_exactly_the_functional_stream() {
    for (name, program) in example_programs() {
        let stream = functional_stream(name, &program);
        let n = stream.len();
        let trace = generate_trace(stream.clone(), n, &TraceGenConfig::paper());

        // The tagger must pass correct-path records through unmodified.
        let correct: Vec<TraceRecord> = trace
            .records()
            .iter()
            .copied()
            .filter(|r| !r.wrong_path())
            .collect();
        assert_eq!(
            correct, stream,
            "{name}: tagged trace must preserve the functional stream"
        );

        let stats = Engine::new(EngineConfig::paper_4wide())
            .expect("paper config is valid")
            .run(trace.source());

        // Committed-instruction agreement.
        assert_eq!(
            stats.committed, n as u64,
            "{name}: engine must commit every functional instruction"
        );
        let loads = stream.iter().filter(|r| r.is_load()).count() as u64;
        let stores = stream.iter().filter(|r| r.is_store()).count() as u64;
        let branches = stream.iter().filter(|r| r.is_branch()).count() as u64;
        assert_eq!(stats.committed_loads, loads, "{name}: load count");
        assert_eq!(stats.committed_stores, stores, "{name}: store count");
        assert_eq!(stats.committed_branches, branches, "{name}: branch count");
    }
}

#[test]
fn branch_outcomes_agree_between_functional_and_trace_sides() {
    for (name, program) in example_programs() {
        let stream = functional_stream(name, &program);
        let n = stream.len();
        let trace = generate_trace(stream.clone(), n, &TraceGenConfig::paper());

        // Every correct-path branch record in the engine's input carries
        // the functional simulator's resolved outcome, in order.
        let functional: Vec<(u32, bool, u32)> = stream
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Branch(b) => Some((b.pc, b.taken, b.target)),
                _ => None,
            })
            .collect();
        let traced: Vec<(u32, bool, u32)> = trace
            .records()
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Branch(b) if !b.wrong_path => Some((b.pc, b.taken, b.target)),
                _ => None,
            })
            .collect();
        assert_eq!(
            functional, traced,
            "{name}: branch outcome sequences differ"
        );
    }
}

#[test]
fn differential_holds_for_the_cached_two_wide_machine() {
    // Same agreement under the Table 1 right-hand configuration: caches
    // and a narrower pipeline change timing, never the committed stream.
    for (name, program) in example_programs() {
        let stream = functional_stream(name, &program);
        let n = stream.len();
        let trace = generate_trace(stream, n, &TraceGenConfig::perfect());
        let stats = Engine::new(EngineConfig::paper_2wide_cached())
            .expect("paper config is valid")
            .run(trace.source());
        assert_eq!(stats.committed, n as u64, "{name}: 2-wide commit count");
        assert_eq!(
            stats.wrong_path_fetched, 0,
            "{name}: perfect tracegen produces no wrong path"
        );
    }
}
