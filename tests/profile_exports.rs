//! Pins the `resim profile` export documents byte for byte.
//!
//! Every corpus scenario (`tests/corpus/*.toml`) and every pipeline
//! example (`examples/pipelines/*.toml`) is profiled with
//! `--metrics-out` and `--events-out`. The `resim.metrics/1` JSON, with
//! its host wall times zeroed, and the `resim.events/1` JSONL are
//! hashed and compared with the digests below. Everything else in both
//! documents is a deterministic function of the scenario: counters,
//! gauges, histograms, span call counts, journal accounting and the
//! order of every journaled event.

use resim::trace::Fnv64;
use resim_cli::run_for_test;
use std::fs;
use std::path::{Path, PathBuf};

/// Scenario (path relative to the repository root) and the pinned
/// digests of its masked metrics document and its events stream.
const PINNED: &[(&str, &str, &str)] = &[
    (
        "examples/pipelines/fused.toml",
        "cf6954e77a3b7ac5",
        "bad53d8c87e39a59",
    ),
    (
        "examples/pipelines/improved.toml",
        "68c85a876eb644e3",
        "ced57603cdd0312b",
    ),
    (
        "examples/pipelines/optimized.toml",
        "8611dfe1b713d622",
        "f56f97fa187dd53b",
    ),
    (
        "examples/pipelines/simple.toml",
        "817add7a2c378e2f",
        "ced57603cdd0312b",
    ),
    (
        "tests/corpus/cached-vortex.toml",
        "1f2726866316521f",
        "836e907bc00131db",
    ),
    (
        "tests/corpus/file-v1-vortex.toml",
        "748da0b279200d9d",
        "b558936b35b7505e",
    ),
    (
        "tests/corpus/file-v2-vortex.toml",
        "51b0657048d7392a",
        "b558936b35b7505e",
    ),
    (
        "tests/corpus/fused-gzip.toml",
        "3e3abe5b349c7626",
        "ced57603cdd0312b",
    ),
    (
        "tests/corpus/improved-vpr.toml",
        "2b076a48aa113c70",
        "dd5feb552442b990",
    ),
    (
        "tests/corpus/optimized-parser.toml",
        "f4e819a14ce9fe3f",
        "e5a438845666ab44",
    ),
    (
        "tests/corpus/sampled-bzip2.toml",
        "d9abc8ca075aaeb4",
        "0a44793d31fbb863",
    ),
    (
        "tests/corpus/simple-gzip-s1.toml",
        "308dcea88c79a658",
        "f8b55952302da313",
    ),
    (
        "tests/corpus/simple-gzip-s2.toml",
        "631e69d9e5b3aaab",
        "9a80881b13a6e79c",
    ),
];

/// The scenarios the pin must cover, found on disk.
fn scenarios() -> Vec<String> {
    let mut found = Vec::new();
    for dir in ["examples/pipelines", "tests/corpus"] {
        for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {dir}: {e}")) {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "toml") {
                found.push(path.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    found.sort();
    found
}

/// Zeroes every `"wall_ns"` value: the run's and each span's host time.
fn mask_wall_times(metrics: &str) -> String {
    let mut masked = String::with_capacity(metrics.len());
    for line in metrics.lines() {
        match line.find("\"wall_ns\": ") {
            Some(at) => {
                let (head, value) = line.split_at(at + "\"wall_ns\": ".len());
                masked.push_str(head);
                masked.push('0');
                if value.ends_with(',') {
                    masked.push(',');
                }
            }
            None => masked.push_str(line),
        }
        masked.push('\n');
    }
    masked
}

/// Profiles `scenario` into `dir` and returns the masked metrics
/// document and the events stream.
fn profile(scenario: &str, dir: &Path) -> (String, String) {
    let stem = Path::new(scenario).file_stem().unwrap().to_string_lossy();
    let metrics = dir.join(format!("{stem}.json"));
    let events = dir.join(format!("{stem}.jsonl"));
    let (code, out, err) = run_for_test(&[
        "profile",
        "-s",
        scenario,
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--events-out",
        events.to_str().unwrap(),
    ]);
    assert_eq!(
        code, 0,
        "{scenario}: profile failed\nstdout: {out}\nstderr: {err}"
    );
    (
        mask_wall_times(&fs::read_to_string(&metrics).unwrap()),
        fs::read_to_string(&events).unwrap(),
    )
}

fn digest(text: &str) -> String {
    format!("{:016x}", Fnv64::hash_bytes(text.as_bytes()))
}

/// A per-test scratch directory (no tempfile crate in this workspace).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resim-profile-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn profile_exports_are_pinned_for_every_scenario() {
    let pinned: Vec<&str> = PINNED.iter().map(|(s, _, _)| *s).collect();
    assert_eq!(
        scenarios(),
        pinned,
        "the pin table must list every scenario"
    );

    let dir = scratch("pinned");
    let mut actual = String::new();
    let mut failed = false;
    for (scenario, metrics_pin, events_pin) in PINNED {
        let (metrics, events) = profile(scenario, &dir);
        let (m, e) = (digest(&metrics), digest(&events));
        failed |= m != *metrics_pin || e != *events_pin;
        actual.push_str(&format!("    (\"{scenario}\", \"{m}\", \"{e}\"),\n"));
    }
    fs::remove_dir_all(&dir).unwrap();
    assert!(!failed, "profile exports changed; actual pins:\n{actual}");
}

#[test]
fn a_pinned_scenario_journals_every_rare_event() {
    let dir = scratch("rare");
    let (metrics, events) = profile("tests/corpus/cached-vortex.toml", &dir);
    fs::remove_dir_all(&dir).unwrap();
    for kind in [
        "\"kind\":\"cache_miss\",\"cache\":\"l1i\"",
        "\"kind\":\"cache_miss\",\"cache\":\"l1d\"",
        "\"kind\":\"misfetch\"",
        "\"kind\":\"mispredict_recovery\"",
    ] {
        assert!(
            events.contains(kind),
            "no {kind} event journaled:\n{events}"
        );
    }
    for counter in [
        "icache_misses",
        "dcache_misses",
        "misfetches",
        "mispredict_recoveries",
        "squashed",
    ] {
        assert!(
            !metrics.contains(&format!("\"{counter}\": 0,")),
            "counter {counter} is zero:\n{metrics}"
        );
    }
}
