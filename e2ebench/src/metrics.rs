//! The metric catalogue, and per-layer metrics computed from spans.

use crate::clock::{median, quantile};
use crate::spans::{layer_of, Tracer, FIXED_PROBE, LAYER_PROBE, SETUP};
use std::collections::BTreeMap;

/// An end-to-end metric: name, unit, regression bound (share of the
/// parent's median). Every bound is the widest allowed: on the reference
/// host, neighbour load moved every host time by up to 1.8x for minutes
/// at a time, and CPU time moved with wall time. Host times are scaled to
/// the reference host's speed (`speed.rs`), which removes most but not
/// all of that (see the clock-noise study in README.md).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_mips",
        unit: "MIPS",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// How a per-layer metric is computed from one group of spans and notes.
pub enum Calc {
    /// Per-iteration sum of the named spans' durations (ms); median over
    /// iterations.
    SumMs(&'static str),
    /// Quantile of the named spans' individual durations (ms).
    Quantile(&'static str, f64),
    /// Million counted records per second over the named spans.
    MegaPerS(&'static str),
    /// Host ns per counted record of the named spans.
    NsPerCount(&'static str),
    /// Host ns of the named spans per unit of the named note.
    NsPerNote(&'static str, &'static str),
    /// Sum of one note over the sum of another.
    Ratio(&'static str, &'static str),
    /// Median of a note.
    Median(&'static str),
    /// A layer's self time per iteration (ms); median over iterations.
    SelfMs(&'static str),
    /// Tracing overhead and coverage, computed from the traced and
    /// untraced iteration times.
    Overhead,
}

/// A per-layer metric.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub calc: Calc,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, calc: Calc) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        calc,
    }
}

use Calc::*;

/// Every per-layer metric a traced run reports.
pub const PER_LAYER: [PerLayer; 47] = [
    m("toml.parse_ms", "ms", "lower", SumMs("toml.parse")),
    m(
        "workloads.stream_ms",
        "ms",
        "lower",
        SumMs("workloads.stream"),
    ),
    m("tracegen.gen_ms", "ms", "lower", SumMs("tracegen.gen")),
    m(
        "tracegen.mrec_per_s",
        "Mrec/s",
        "higher",
        MegaPerS("tracegen.gen"),
    ),
    m(
        "tracegen.expansion",
        "ratio",
        "lower",
        Ratio("tracegen.records", "tracegen.correct"),
    ),
    m("trace.stats_ms", "ms", "lower", SumMs("trace.stats")),
    m(
        "trace.encode_v2_ms",
        "ms",
        "lower",
        SumMs("trace.encode_v2"),
    ),
    m("trace.save_ms", "ms", "lower", SumMs("trace.save")),
    m("trace.fill_ms", "ms", "lower", SumMs("trace.fill")),
    m(
        "trace.decode_mrec_per_s",
        "Mrec/s",
        "higher",
        MegaPerS("trace.fill"),
    ),
    m(
        "trace.bits_per_instr",
        "bits",
        "lower",
        Ratio("trace.bits", "trace.instrs"),
    ),
    m("core.run_ms", "ms", "lower", SumMs("core.run")),
    m("core.mrec_per_s", "Mrec/s", "higher", MegaPerS("core.run")),
    m(
        "core.ns_per_cycle",
        "ns",
        "lower",
        NsPerNote("core.run", "core.cycles"),
    ),
    m(
        "core.ipc",
        "instr/cycle",
        "higher",
        Ratio("core.committed", "core.cycles"),
    ),
    m(
        "core.ipc_err_table1_pct",
        "%",
        "lower",
        Median("core.ipc_err_table1_pct"),
    ),
    m(
        "bpred.warm_ns_per_rec",
        "ns",
        "lower",
        NsPerCount("bpred.warm"),
    ),
    m(
        "bpred.mispredict_rate",
        "ratio",
        "lower",
        Ratio("bpred.dir_mispredicts", "bpred.cond_branches"),
    ),
    m("mem.warm_ns_per_rec", "ns", "lower", NsPerCount("mem.warm")),
    m(
        "mem.dl1_miss_rate",
        "ratio",
        "lower",
        Ratio("mem.dl1_misses", "mem.dl1_accesses"),
    ),
    m("sample.run_ms", "ms", "lower", SumMs("sample.run")),
    m(
        "sample.detailed_frac",
        "ratio",
        "lower",
        Median("sample.detailed_frac"),
    ),
    m(
        "sample.ipc_err_pct",
        "%",
        "lower",
        Median("sample.ipc_err_pct"),
    ),
    m(
        "sweep.overhead_ms",
        "ms",
        "lower",
        Median("sweep.overhead_ms"),
    ),
    m("cli.report_ms", "ms", "lower", SumMs("cli.report")),
    m(
        "serve.ping_p50_ms",
        "ms",
        "lower",
        Quantile("serve.ping", 0.5),
    ),
    m(
        "serve.submit_ms",
        "ms",
        "lower",
        Quantile("serve.submit", 0.5),
    ),
    m("serve.wait_ms", "ms", "lower", Quantile("serve.wait", 0.5)),
    m(
        "serve.cache_hit_ratio",
        "ratio",
        "higher",
        Median("serve.cache_hit_ratio"),
    ),
    m(
        "serve.hit_p50_ms",
        "ms",
        "lower",
        Quantile("serve.hit", 0.5),
    ),
    m(
        "serve.hit_p90_ms",
        "ms",
        "lower",
        Quantile("serve.hit", 0.9),
    ),
    m(
        "serve.miss_p50_ms",
        "ms",
        "lower",
        Quantile("serve.miss", 0.5),
    ),
    m("toml.self_ms", "ms", "lower", SelfMs("toml")),
    m("workloads.self_ms", "ms", "lower", SelfMs("workloads")),
    m("tracegen.self_ms", "ms", "lower", SelfMs("tracegen")),
    m("trace.self_ms", "ms", "lower", SelfMs("trace")),
    m("core.self_ms", "ms", "lower", SelfMs("core")),
    m("bpred.self_ms", "ms", "lower", SelfMs("bpred")),
    m("mem.self_ms", "ms", "lower", SelfMs("mem")),
    m("sample.self_ms", "ms", "lower", SelfMs("sample")),
    m("sweep.self_ms", "ms", "lower", SelfMs("sweep")),
    m("serve.self_ms", "ms", "lower", SelfMs("serve")),
    m("cli.self_ms", "ms", "lower", SelfMs("cli")),
    m("tracing.overhead_ms", "ms", "lower", Overhead),
    m("tracing.overhead_pct", "%", "lower", Overhead),
    m("tracing.coverage_pct", "%", "higher", Overhead),
    m("tracing.other_pct", "%", "lower", Overhead),
];

/// Selects the iteration ids of one span group.
pub type InGroup = fn(u32) -> bool;

/// The span groups a per-layer metric may come from, in order of
/// preference: the timed iterations, the set-up, the workload's layer
/// probes, the fixed probe.
pub const GROUPS: [(&str, InGroup); 4] = [
    ("iterations", |i| i != SETUP && i < LAYER_PROBE),
    ("setup", |i| i == SETUP),
    ("layer probe", |i| i == LAYER_PROBE),
    ("fixed probe", |i| i == FIXED_PROBE),
];

/// Evaluates `calc` over the spans and notes whose iteration satisfies
/// `in_group`; `None` when the group holds no data for it.
pub fn evaluate(tr: &Tracer, calc: &Calc, in_group: InGroup) -> Option<f64> {
    let spans = || tr.spans().iter().filter(move |s| in_group(s.iter));
    let named = |name: &'static str| spans().filter(move |s| s.name == name);
    let note_sum = |name: &str| -> Option<f64> {
        let v: Vec<f64> = tr
            .notes()
            .iter()
            .filter(|(n, i, _)| *n == name && in_group(*i))
            .map(|(_, _, v)| *v)
            .collect();
        (!v.is_empty()).then(|| v.iter().sum())
    };
    let dur_ns = |name: &'static str| -> Option<(f64, f64)> {
        let (mut ns, mut count, mut any) = (0.0, 0.0, false);
        for s in named(name) {
            ns += s.dur_ns() as f64;
            count += s.count as f64;
            any = true;
        }
        any.then_some((ns, count))
    };
    let per_iter_median = |values: BTreeMap<u32, f64>| {
        let v: Vec<f64> = values.into_values().collect();
        (!v.is_empty()).then(|| median(&v))
    };
    match *calc {
        SumMs(name) => {
            let mut per_iter = BTreeMap::new();
            for s in named(name) {
                *per_iter.entry(s.iter).or_insert(0.0) += s.dur_ns() as f64 / 1e6;
            }
            per_iter_median(per_iter)
        }
        Quantile(name, q) => {
            let v: Vec<f64> = named(name).map(|s| s.dur_ns() as f64 / 1e6).collect();
            (!v.is_empty()).then(|| quantile(&v, q))
        }
        MegaPerS(name) => dur_ns(name)
            .filter(|(ns, n)| *ns > 0.0 && *n > 0.0)
            .map(|(ns, n)| n / ns * 1e3),
        NsPerCount(name) => dur_ns(name).filter(|(_, n)| *n > 0.0).map(|(ns, n)| ns / n),
        NsPerNote(name, note) => {
            let (ns, _) = dur_ns(name)?;
            note_sum(note).filter(|d| *d > 0.0).map(|d| ns / d)
        }
        Ratio(num, den) => {
            let d = note_sum(den).filter(|d| *d > 0.0)?;
            Some(note_sum(num)? / d)
        }
        Median(name) => {
            let v: Vec<f64> = tr
                .notes()
                .iter()
                .filter(|(n, i, _)| *n == name && in_group(*i))
                .map(|(_, _, v)| *v)
                .collect();
            (!v.is_empty()).then(|| median(&v))
        }
        SelfMs(layer) => {
            let mut per_iter = BTreeMap::new();
            for (s, own) in tr.spans().iter().zip(tr.self_ns()) {
                if in_group(s.iter) && layer_of(s.name) == layer {
                    *per_iter.entry(s.iter).or_insert(0.0) += own as f64 / 1e6;
                }
            }
            per_iter_median(per_iter)
        }
        Overhead => None,
    }
}

/// Renders `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \
         \"--manifest-path\", \"e2ebench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"e2ebench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS));
    s.push_str("  \"workloads\": [\n");
    let w: Vec<String> = crate::WORKLOADS
        .iter()
        .zip(crate::WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&w.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&e.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let p: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&p.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `-- --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
