//! Pins the scenario fingerprint of every corpus scenario.
//!
//! `ScenarioDoc::fingerprint()` is the `resim-serve` result cache's
//! content address: entries written by any past server are looked up
//! under these exact values. A change here silently invalidates every
//! deployed cache (all entries miss and everything re-simulates) — or
//! worse, with a colliding change, serves a *wrong* cached result. So
//! the fingerprint algorithm is pinned the same way the trace
//! container's hex vectors are: changing it must be a deliberate,
//! test-re-pinning decision accompanied by a cache format bump.

use resim::sweep::ScenarioDoc;
use std::fs;

/// Every corpus scenario and its pinned fingerprint (16 lowercase hex
/// digits, the wire and file-name rendering).
const PINNED: &[(&str, &str)] = &[
    // The v1/v2 vortex pair pins fingerprints *and* a design property:
    // the two scenarios differ only in trace-container layout, which
    // is presentation, so they share one fingerprint.
    ("file-v1-vortex", "e4a38fd87685ae96"),
    ("file-v2-vortex", "e4a38fd87685ae96"),
    ("fused-gzip", "7eaba77acfc407a2"),
    ("improved-vpr", "3cc4c52ebb3c99a2"),
    ("optimized-parser", "619a92a374df2530"),
    ("sampled-bzip2", "dc3ac54db2a3bdf2"),
    ("simple-gzip-s1", "c122c79b31385221"),
    ("simple-gzip-s2", "a2a610f127f06aba"),
];

#[test]
fn corpus_scenario_fingerprints_are_pinned() {
    let mut failures = Vec::new();
    for (name, pinned) in PINNED {
        let path = format!("tests/corpus/{name}.toml");
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let doc = ScenarioDoc::parse_str(&text)
            .unwrap_or_else(|e| panic!("{path} no longer parses: {e}"));
        let actual = format!(
            "{:016x}",
            doc.fingerprint()
                .unwrap_or_else(|e| { panic!("{path} no longer resolves to a scenario: {e}") })
        );
        if actual != *pinned {
            failures.push(format!("    (\"{name}\", \"{actual}\"),"));
        }
    }
    assert!(
        failures.is_empty(),
        "scenario fingerprints changed — this silently invalidates every deployed \
         resim-serve result cache (and a colliding change could serve WRONG cached \
         results). If the change is deliberate, re-pin; a deployed cache then misses \
         once per cell and refills, because each entry's key is recomputed from its \
         record on read:\n{}",
        failures.join("\n"),
    );
}

/// The fingerprint must not move when semantically irrelevant inputs
/// do: display names and trace-file paths are presentation, not
/// content.
#[test]
fn fingerprint_ignores_presentation_only_edits() {
    let text = fs::read_to_string("tests/corpus/simple-gzip-s1.toml").expect("corpus file");
    let base = ScenarioDoc::parse_str(&text)
        .expect("parses")
        .fingerprint()
        .expect("resolves");

    let renamed = format!("{text}\n[trace]\nfile = \"elsewhere.trace\"\n");
    let doc = ScenarioDoc::parse_str(&renamed).expect("parses with [trace]");
    assert_eq!(
        doc.fingerprint().expect("resolves"),
        base,
        "a trace-file path must not move the fingerprint"
    );
}

/// And it must move when any simulated-statistics-determining input
/// does — seed is the cheapest witness.
#[test]
fn fingerprint_tracks_content_edits() {
    let a = fs::read_to_string("tests/corpus/simple-gzip-s1.toml").expect("corpus file");
    let b = fs::read_to_string("tests/corpus/simple-gzip-s2.toml").expect("corpus file");
    let fa = ScenarioDoc::parse_str(&a)
        .expect("parses")
        .fingerprint()
        .expect("resolves");
    let fb = ScenarioDoc::parse_str(&b)
        .expect("parses")
        .fingerprint()
        .expect("resolves");
    assert_ne!(fa, fb, "different seeds must give different fingerprints");
}
