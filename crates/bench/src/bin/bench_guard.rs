//! CI bench-regression guard for engine throughput.
//!
//! Re-measures committed-records-per-second for the two trace
//! frontends (`slice`, `file`) on gzip and compares every row
//! against the checked-in `BENCH_BASELINE.json` at the repository root.
//! A row that drops below `baseline * (1 - allowed_drop)` fails the run
//! (exit 1), which is how CI catches an accidental O(n)-per-record
//! regression in the decode or dispatch path.
//!
//! Usage:
//!
//! ```text
//! bench_guard            # measure and compare against the baseline
//! bench_guard --write    # measure and rewrite the baseline in place
//! ```
//!
//! Besides the human-readable table, the compare mode always ends with
//! one `resim.bench/2` JSON line — pass or fail — carrying every row's
//! measured/baseline/floor numbers under the frontend name, so CI can
//! archive the measurement with a `grep '"schema":"resim.bench/2"'`
//! instead of parsing the table.
//!
//! The measurement is best-of-N wall-clock (N = 5), which is stable to
//! a few percent on an idle machine; the 20% tolerance leaves room for
//! CI-runner noise while still catching step-function regressions.
//! Regenerate the baseline (`--write`, on a quiet machine) whenever a
//! deliberate engine or codec change moves throughput.

use resim_bench::outln;
use resim_bench::timing::{Frontend, SuppliedTrace};
use resim_core::EngineConfig;
use resim_toml::json::parse_json;
use resim_tracegen::TraceGenConfig;
use resim_workloads::SpecBenchmark;
use std::path::{Path, PathBuf};

/// The name of the measured quantity in the baseline and the JSON line.
const BENCH: &str = "engine_throughput";
const BUDGET: usize = 20_000;
const RUNS: usize = 5;

/// One measured row: a frontend (its name is the baseline-JSON key) and
/// its best committed-records-per-second rate.
struct Row {
    frontend: Frontend,
    rate: f64,
}

/// The committed baseline: the tolerated drop and one rate per frontend,
/// in [`Frontend::ALL`] order.
#[derive(Debug, PartialEq)]
struct Baseline {
    allowed_drop: f64,
    rates: [f64; 2],
}

/// One compared row of the `resim.bench/2` line.
struct Checked {
    frontend: &'static str,
    measured: f64,
    baseline: f64,
    floor: f64,
    ok: bool,
}

fn baseline_path() -> PathBuf {
    // crates/bench -> repository root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_BASELINE.json")
}

fn measure_all() -> Vec<Row> {
    let config = EngineConfig::paper_4wide();
    let gzip = SuppliedTrace::generate(SpecBenchmark::Gzip, BUDGET, &TraceGenConfig::paper());
    Frontend::ALL
        .into_iter()
        .map(|frontend| Row {
            frontend,
            rate: gzip.engine_rate(&config, frontend, RUNS),
        })
        .collect()
}

/// Reads the baseline: `allowed_drop` and every frontend's rate under
/// `records_per_sec` must be present and numeric.
fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = parse_json(text).map_err(|e| format!("not JSON: {e}"))?;
    let allowed_drop = doc
        .get("allowed_drop")
        .and_then(|v| v.as_f64())
        .ok_or("\"allowed_drop\" is missing or not a number")?;
    let rates = doc
        .get("records_per_sec")
        .ok_or("\"records_per_sec\" is missing")?;
    let mut out = [0.0; 2];
    for (slot, frontend) in out.iter_mut().zip(Frontend::ALL) {
        *slot = rates
            .get(frontend.name())
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("no numeric rate for {:?}", frontend.name()))?;
    }
    Ok(Baseline {
        allowed_drop,
        rates: out,
    })
}

fn write_baseline(path: &Path, rows: &[Row]) {
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"bench\": \"{BENCH}\",\n"));
    body.push_str(&format!("  \"budget\": {BUDGET},\n"));
    body.push_str(&format!("  \"runs\": {RUNS},\n"));
    body.push_str("  \"allowed_drop\": 0.20,\n");
    body.push_str("  \"records_per_sec\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        body.push_str(&format!(
            "    \"{}\": {:.0}{comma}\n",
            row.frontend.name(),
            row.rate
        ));
    }
    body.push_str("  }\n}\n");
    std::fs::write(path, body).expect("write baseline");
}

/// The machine-readable `resim.bench/2` line, printed pass or fail.
fn bench_line(allowed_drop: f64, results: &[Checked], ok: bool) -> String {
    let body = results
        .iter()
        .map(|r| {
            format!(
                "{{\"frontend\":\"{}\",\"measured\":{:.0},\
                 \"baseline\":{:.0},\"floor\":{:.0},\"ok\":{}}}",
                r.frontend, r.measured, r.baseline, r.floor, r.ok
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"schema\":\"resim.bench/2\",\"bench\":\"{BENCH}\",\
         \"budget\":{BUDGET},\"runs\":{RUNS},\"allowed_drop\":{allowed_drop},\
         \"results\":[{body}],\"ok\":{ok}}}"
    )
}

fn main() {
    let write = std::env::args().any(|a| a == "--write");
    let path = baseline_path();
    let baseline = if write {
        None
    } else {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_baseline(&text));
        match parsed {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!(
                    "bench_guard: cannot use {} ({e}); run `bench_guard --write` to recreate it",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    };

    outln!("bench_guard: {BENCH} ({BUDGET} records, best of {RUNS})");
    let mut rows = measure_all();
    for row in &rows {
        outln!("  {:14} {:10.0} records/s", row.frontend.name(), row.rate);
    }

    let Some(Baseline {
        allowed_drop,
        rates,
    }) = baseline
    else {
        write_baseline(&path, &rows);
        outln!("baseline written to {}", path.display());
        return;
    };
    let floor = |baseline: f64| baseline * (1.0 - allowed_drop);

    // A shared CI host can dip for seconds at a time. Before declaring
    // a regression, remeasure and keep the best rate seen per row —
    // only a *persistent* shortfall survives three measurement passes.
    for _ in 0..2 {
        if rows
            .iter()
            .zip(rates)
            .all(|(row, base)| row.rate >= floor(base))
        {
            break;
        }
        outln!("bench_guard: shortfall on first pass; remeasuring to rule out host noise");
        for (row, fresh) in rows.iter_mut().zip(measure_all()) {
            row.rate = row.rate.max(fresh.rate);
        }
    }

    let results: Vec<Checked> = rows
        .iter()
        .zip(rates)
        .map(|(row, baseline)| Checked {
            frontend: row.frontend.name(),
            measured: row.rate,
            baseline,
            floor: floor(baseline),
            ok: row.rate >= floor(baseline),
        })
        .collect();
    for r in &results {
        let verdict = if r.ok { "ok" } else { "REGRESSION" };
        outln!(
            "  {:14} baseline {:10.0}  floor {:10.0}  measured {:10.0}  {verdict}",
            r.frontend,
            r.baseline,
            r.floor,
            r.measured
        );
    }
    let ok = results.iter().all(|r| r.ok);
    outln!("{}", bench_line(allowed_drop, &results, ok));
    if !ok {
        eprintln!(
            "bench_guard: throughput regressed more than {:.0}% below BENCH_BASELINE.json",
            allowed_drop * 100.0
        );
        std::process::exit(1);
    }
    outln!(
        "bench_guard: all rows within {:.0}% of baseline",
        allowed_drop * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "bench": "engine_throughput",
  "allowed_drop": 0.20,
  "records_per_sec": {"slice": 4000000, "file": 1900000.5}
}"#;

    #[test]
    fn the_committed_baseline_parses_to_two_rows() {
        let text = std::fs::read_to_string(baseline_path()).expect("baseline is committed");
        let baseline = parse_baseline(&text).expect("committed baseline parses");
        assert_eq!(baseline.allowed_drop, 0.20);
        assert_eq!(baseline.rates.len(), Frontend::ALL.len());
        assert!(baseline.rates.iter().all(|&r| r > 0.0), "{baseline:?}");
    }

    #[test]
    fn a_well_formed_baseline_reads_every_frontend() {
        assert_eq!(
            parse_baseline(GOOD),
            Ok(Baseline {
                allowed_drop: 0.20,
                rates: [4e6, 1900000.5]
            })
        );
    }

    #[test]
    fn incomplete_or_malformed_baselines_are_errors() {
        for (case, text) in [
            (
                "no allowed_drop",
                GOOD.replace("\"allowed_drop\": 0.20,", ""),
            ),
            ("string allowed_drop", GOOD.replace("0.20", "\"0.20\"")),
            ("no file row", GOOD.replace(", \"file\": 1900000.5", "")),
            ("string rate", GOOD.replace("4000000", "\"fast\"")),
            ("no rates", GOOD.replace("records_per_sec", "rates")),
            ("not JSON", GOOD.replace('}', "")),
        ] {
            assert!(parse_baseline(&text).is_err(), "{case} must be rejected");
        }
    }

    #[test]
    fn the_bench_line_keeps_its_keys_and_order() {
        let results = [
            Checked {
                frontend: "slice",
                measured: 10.4,
                baseline: 12.0,
                floor: 9.6,
                ok: true,
            },
            Checked {
                frontend: "file",
                measured: 1.0,
                baseline: 2.0,
                floor: 1.6,
                ok: false,
            },
        ];
        assert_eq!(
            bench_line(0.2, &results, false),
            "{\"schema\":\"resim.bench/2\",\"bench\":\"engine_throughput\",\
             \"budget\":20000,\"runs\":5,\"allowed_drop\":0.2,\"results\":[\
             {\"frontend\":\"slice\",\"measured\":10,\"baseline\":12,\"floor\":10,\"ok\":true},\
             {\"frontend\":\"file\",\"measured\":1,\"baseline\":2,\"floor\":2,\"ok\":false}\
             ],\"ok\":false}"
        );
    }
}
