//! The golden session corpus: every `tests/corpus/*.rssn` file must
//! replay with bit-identical `SimStats` through the real CLI `replay`
//! code path.
//!
//! These sessions are recorded artifacts, committed like the trace
//! container hex vectors: a divergence here means the simulator's
//! semantics changed for one of the paper organizations (or the fused
//! custom one, a sampled run, or a file-frontend run over a v1/v2
//! container). See `tests/corpus/README.md` for regeneration.

use resim_cli::run_for_test;
use std::fs;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_sessions() -> Vec<PathBuf> {
    let mut sessions: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rssn"))
        .collect();
    sessions.sort();
    sessions
}

#[test]
fn corpus_is_populated() {
    let sessions = corpus_sessions();
    assert!(
        sessions.len() >= 8,
        "expected at least 8 corpus sessions, found {}: {sessions:?}",
        sessions.len()
    );
    // Every session ships its source scenario alongside.
    for s in &sessions {
        assert!(
            s.with_extension("toml").exists(),
            "{} has no sibling scenario file",
            s.display()
        );
    }
}

#[test]
fn every_corpus_session_replays_bit_identically() {
    for session in corpus_sessions() {
        let path = session.to_str().unwrap();
        let (code, out, err) = run_for_test(&["replay", "-s", path]);
        assert_eq!(
            code, 0,
            "{path}: replay failed\nstdout: {out}\nstderr: {err}"
        );
        assert!(
            out.contains("SimStats bit-identical"),
            "{path}: replay did not report bit-identity:\n{out}"
        );
        assert!(out.contains("42/42 fields match"), "{path}:\n{out}");
    }
}

#[test]
fn corpus_covers_the_advertised_shapes() {
    // The corpus is only as good as its coverage: paper organizations,
    // the custom fused pipeline, a sampled run, both container
    // layouts, and a second seed. Guard the inventory so a future
    // "cleanup" cannot silently hollow it out.
    let names: Vec<String> = corpus_sessions()
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    for required in [
        "simple-gzip-s1",
        "simple-gzip-s2",
        "improved-vpr",
        "optimized-parser",
        "fused-gzip",
        "sampled-bzip2",
        "file-v1-vortex",
        "file-v2-vortex",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "corpus is missing the {required:?} session (have: {names:?})"
        );
    }
}
