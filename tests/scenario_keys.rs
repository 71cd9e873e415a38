//! The scenario key tables against the user guide and against mutated
//! scenario files.
//!
//! * Guide drift: the key table `docs/guide.md` gives each section
//!   lists exactly the names of the section's `…_KEYS` table, and every
//!   literal default it states resolves like leaving the key out.
//! * Parse-time mutation battery: every integer key set to 0, 1, its
//!   maximum, one past it and `i64::MAX`, and every byte of the corpus
//!   scenarios replaced, parses to a document or to a line-numbered
//!   error, never a panic. Nothing is simulated.

use resim::bpred::{BIMODAL_KEYS, GSHARE_KEYS, PREDICTOR_KEYS, TWO_LEVEL_KEYS};
use resim::core::{EngineConfig, ENGINE_KEYS, FU_KEYS, GRID_KEYS, PIPELINE_KEYS, STAGE_KEYS};
use resim::mem::{CACHE_KEYS, PERFECT_MEMORY_KEYS, SPLIT_MEMORY_KEYS};
use resim::sample::SAMPLE_KEYS;
use resim::sweep::{ScenarioDoc, CONFIG_KEYS, SECTION_KEYS, SWEEP_KEYS, TRACE_KEYS, WORKLOAD_KEYS};
use resim::toml::{Error, Key, Kind};
use resim::tracegen::TRACEGEN_KEYS;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One section: where the guide documents it, its key tables, and a
/// smallest document holding it.
struct Section {
    /// The first code span of the guide heading above its key table.
    heading: &'static str,
    /// The key tables whose names the guide table lists.
    keys: &'static [&'static [Key]],
    /// Lines before the key under test (the section's headers).
    prefix: &'static str,
    /// Required keys, each written unless it is the key under test.
    fill: &'static [&'static str],
    /// Lines after the section.
    suffix: &'static str,
}

const TWO_STAGES: &str = "[[pipeline.stage]]\nname = \"Fetch\"\nslots = \"i\"\n\
                          [[pipeline.stage]]\nname = \"Commit\"\nslots = \"i+1\"";

const SWEEP_AXES_CONFIG: &str = "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [500]\nseeds = [1]\n\
                                 [[sweep.config]]";
const SWEEP_AXES_GRID: &str = "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [500]\nseeds = [1]\n\
                               [sweep.grid]";

const SECTIONS: &[Section] = &[
    Section {
        heading: "[engine]",
        keys: &[ENGINE_KEYS],
        prefix: "[engine]",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "[engine.fu]",
        keys: &[FU_KEYS],
        prefix: "[engine.fu]",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "[engine.predictor]",
        keys: &[PREDICTOR_KEYS],
        prefix: "[engine.predictor]",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "kind = \"two-level\"",
        keys: &[TWO_LEVEL_KEYS],
        prefix: "[engine.predictor]\nkind = \"two-level\"",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "kind = \"gshare\"",
        keys: &[GSHARE_KEYS],
        prefix: "[engine.predictor]\nkind = \"gshare\"",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "kind = \"bimodal\"",
        keys: &[BIMODAL_KEYS],
        prefix: "[engine.predictor]\nkind = \"bimodal\"",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "[engine.memory]",
        keys: &[PERFECT_MEMORY_KEYS, SPLIT_MEMORY_KEYS],
        prefix: "[engine.memory]",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "[engine.memory.l1i]",
        keys: &[CACHE_KEYS],
        prefix: "[engine.memory]\nkind = \"split\"\n[engine.memory.l1d]",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "[tracegen]",
        keys: &[TRACEGEN_KEYS],
        prefix: "[tracegen]",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "[workload]",
        keys: &[WORKLOAD_KEYS],
        prefix: "[workload]",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "[trace]",
        keys: &[TRACE_KEYS],
        prefix: "[trace]",
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "[sample]",
        keys: &[SAMPLE_KEYS],
        prefix: "[sample]",
        fill: &["interval = 1000", "detailed = 100"],
        suffix: "",
    },
    Section {
        heading: "[sweep]",
        keys: &[SWEEP_KEYS],
        prefix: "[sweep]",
        fill: &["workloads = [\"gzip\"]", "budgets = [500]", "seeds = [1]"],
        suffix: "[[sweep.config]]\nname = \"a\"",
    },
    Section {
        heading: "[[sweep.config]]",
        keys: &[CONFIG_KEYS],
        prefix: SWEEP_AXES_CONFIG,
        fill: &["name = \"a\""],
        suffix: "",
    },
    Section {
        heading: "[sweep.grid]",
        keys: &[GRID_KEYS],
        prefix: SWEEP_AXES_GRID,
        fill: &[],
        suffix: "",
    },
    Section {
        heading: "[pipeline]",
        keys: &[PIPELINE_KEYS],
        prefix: "[pipeline]",
        fill: &["name = \"x\""],
        suffix: TWO_STAGES,
    },
    Section {
        heading: "[[pipeline.stage]]",
        keys: &[STAGE_KEYS],
        prefix: "[pipeline]\nname = \"x\"\n[[pipeline.stage]]",
        fill: &["name = \"Decode\"", "slots = \"n+i\""],
        suffix: TWO_STAGES,
    },
];

impl Section {
    /// The section's document with `row` (a `key = value` line) in it,
    /// and the row's line.
    fn doc(&self, row: Option<&str>) -> (String, u32) {
        let key = row.map(|r| r.split(" = ").next().unwrap_or(r));
        let mut lines: Vec<&str> = self.prefix.lines().collect();
        let line = lines.len() as u32 + 1;
        lines.extend(row);
        lines.extend(
            self.fill
                .iter()
                .filter(|f| Some(f.split(" = ").next().unwrap()) != key),
        );
        lines.extend(self.suffix.lines());
        (lines.join("\n") + "\n", line)
    }

    fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&str> = self
            .keys
            .iter()
            .flat_map(|k| k.iter().map(|k| k.0))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// Parses a document and, for a sweep, resolves its grid.
fn parse(text: &str) -> Result<ScenarioDoc, Error> {
    let doc = ScenarioDoc::parse_str(text)?;
    if doc.has_sweep() {
        doc.sweep_scenario()?;
    }
    Ok(doc)
}

/// Everything a document resolves to, rendered for comparison.
fn resolved(text: &str) -> String {
    match parse(text) {
        Err(e) => format!("error: {e}"),
        Ok(doc) => {
            let sweep = doc.has_sweep().then(|| {
                let threads = doc.sweep_threads();
                (doc.fingerprint(), threads, doc.sweep_trace_files())
            });
            format!(
                "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{sweep:?}",
                doc.engine, doc.tracegen, doc.workload, doc.trace_file, doc.sample, doc.pipeline
            )
        }
    }
}

/// A guide key table row: the key's name and its default cell.
struct Row {
    key: String,
    default: String,
}

fn guide() -> String {
    fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/guide.md"))
        .expect("docs/guide.md is readable")
}

/// The guide's `| key | type | default | meaning |` tables in order, each
/// with the first code span of the heading above it.
fn guide_tables() -> Vec<(String, Vec<Row>)> {
    let guide = guide();
    let mut tables = Vec::new();
    let mut heading = "";
    let mut lines = guide.lines().peekable();
    while let Some(line) = lines.next() {
        if line.starts_with('#') {
            heading = line.split('`').nth(1).unwrap_or_default();
        }
        if line != "| key | type | default | meaning |" {
            continue;
        }
        lines.next(); // the |---| rule
        let mut rows = Vec::new();
        while let Some(row) = lines.next_if(|l| l.starts_with('|')) {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            // `[engine.fu]` is the `fu` key of `[engine]`.
            let name = cells[1].trim_matches('`').trim_matches(['[', ']']);
            rows.push(Row {
                key: name.rsplit('.').next().unwrap().to_string(),
                default: cells[3].trim_matches('`').to_string(),
            });
        }
        tables.push((heading.to_string(), rows));
    }
    tables
}

#[test]
fn guide_key_tables_list_exactly_each_sections_keys() {
    let tables = guide_tables();
    let mut headings: Vec<&str> = tables.iter().map(|(h, _)| h.as_str()).collect();
    let mut expected: Vec<&str> = SECTIONS.iter().map(|s| s.heading).collect();
    headings.sort_unstable();
    expected.sort_unstable();
    assert_eq!(
        headings, expected,
        "one key table under each section's heading"
    );
    for (heading, rows) in &tables {
        let section = SECTIONS.iter().find(|s| s.heading == heading).unwrap();
        let mut names: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, section.names(), "the guide's {heading} table");
    }

    // The top-level sections are the guide's `### `[section]`` headings.
    let guide = guide();
    let mut sections: Vec<&str> = guide
        .lines()
        .filter_map(|l| l.strip_prefix("### `["))
        .map(|l| l.split(']').next().unwrap())
        .collect();
    sections.sort_unstable();
    let mut names: Vec<&str> = SECTION_KEYS.iter().map(|k| k.0).collect();
    names.sort_unstable();
    assert_eq!(sections, names);
}

#[test]
fn guide_literal_defaults_resolve_like_omitted_keys() {
    let tables = guide_tables();
    let mut checked = 0;
    let mut drifted = Vec::new();
    for section in SECTIONS {
        // A missing table is the other test's failure.
        let table = tables.iter().find(|(h, _)| h == section.heading);
        for row in table.into_iter().flat_map(|(_, rows)| rows) {
            // Only a literal default ("4", "\"n\"", "[]") can be written back.
            if resim::toml::parse(&format!("v = {}", row.default)).is_err() {
                continue;
            }
            checked += 1;
            let set = format!("{} = {}", row.key, row.default);
            let (with, _) = section.doc(Some(&set));
            let (without, _) = section.doc(None);
            if resolved(&with) != resolved(&without) {
                drifted.push(format!("{} {set}", section.heading));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "guide defaults that do not resolve like the omitted key: {drifted:?}"
    );
    assert!(checked > 40, "only {checked} literal defaults found");
}

/// The largest legal value of an integer key: its table's maximum, or
/// for a key [`EngineConfig::validate`] bounds, the validated one.
/// `None` for a key that takes no integer.
fn max_of(key: &Key) -> Option<i64> {
    let (Kind::Int(_, table_max) | Kind::Pow2(_, table_max) | Kind::Ints(table_max)) = key.1 else {
        return None;
    };
    let validated = match key.0 {
        "ifq_size" | "rb_size" | "lsq_size" | "alus" | "mults" | "divs" | "widths" | "rb_sizes"
        | "lsq_sizes" => EngineConfig::MAX_ENTRIES as u64,
        "misfetch_penalty" | "mispredict_penalty" | "alu_latency" | "mult_latency"
        | "div_latency" | "latency" | "hit_latency" | "miss_penalty" => {
            u64::from(EngineConfig::MAX_LATENCY)
        }
        _ => u64::MAX,
    };
    Some(i64::try_from(table_max.min(validated)).unwrap_or(i64::MAX))
}

/// Parses `text`, catching a panic; a failure names the input.
fn outcome(text: &str) -> Result<Result<(), Error>, String> {
    catch_unwind(AssertUnwindSafe(|| parse(text).map(drop)))
        .map_err(|_| format!("panicked on:\n{text}"))
}

#[test]
fn every_integer_key_at_its_limits_parses_or_points_at_its_line() {
    let mut failures = Vec::new();
    let mut cases = 0;
    for section in SECTIONS {
        for key in section.keys.iter().flat_map(|k| k.iter()) {
            let Some(max) = max_of(key) else {
                continue;
            };
            for value in [0, 1, max, max.saturating_add(1), i64::MAX] {
                let row = match key.1 {
                    Kind::Ints(_) => format!("{} = [{value}]", key.0),
                    _ => format!("{} = {value}", key.0),
                };
                let (text, line) = section.doc(Some(&row));
                // The key's line, or the line of a table holding it.
                let table_lines: Vec<u32> = (1..)
                    .zip(text.lines())
                    .filter(|(_, l)| l.starts_with('['))
                    .map(|(n, _)| n)
                    .collect();
                cases += 1;
                match outcome(&text) {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) if e.line() == line || table_lines.contains(&e.line()) => {}
                    Ok(Err(e)) => failures.push(format!("{row}: {e} in\n{text}")),
                    Err(panic) => failures.push(panic),
                }
            }
        }
    }
    assert!(cases > 150, "only {cases} cases");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn byte_replaced_corpus_scenarios_parse_or_point_at_a_line() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 9, "{paths:?}");
    let mut failures = Vec::new();
    let mut cases = 0;
    for path in &paths {
        let original = fs::read(path).unwrap();
        let lines = original.iter().filter(|&&b| b == b'\n').count() as u32 + 1;
        for i in 0..original.len() {
            for byte in *b"09\"[]=\n#-x ," {
                if byte == original[i] {
                    continue;
                }
                let mut bytes = original.clone();
                bytes[i] = byte;
                let Ok(text) = String::from_utf8(bytes) else {
                    continue;
                };
                cases += 1;
                match outcome(&text) {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) if e.line() <= lines + 1 => {}
                    Ok(Err(e)) => failures.push(format!("{}@{i}: {e}", path.display())),
                    Err(panic) => failures.push(panic),
                }
            }
        }
    }
    assert!(cases > 10_000, "only {cases} cases");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
