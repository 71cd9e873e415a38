//! The resim benchmark: one command from scenario TOML to stable CSV.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload table1 --seed 2009 --seconds 20 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up several times,
//! runs one warm-up iteration, then iterates for `--seconds` seconds and
//! reports the end-to-end metrics as medians. A traced run (`--trace 1`)
//! alternates untraced iterations with traced ones — the same work made through the
//! public crate calls with a span around each — and reports the
//! per-layer metrics. Both check every output; the last line of standard
//! output is one JSON object. See `e2ebench/README.md`.

mod check;
mod clock;
mod metrics;
mod probe;
mod replay;
mod scenarios;
mod serve;
mod spans;
mod speed;
mod sweeps;
mod workload;

use clock::{cv_pct, median, process_cpu_s, quantile};
use metrics::{evaluate, Calc, END_TO_END, GROUPS, PER_LAYER};
use scenarios::DEFAULT_SEED;
use spans::{Tracer, FIXED_PROBE, LAYER_PROBE};
use speed::{at_reference_speed, slowness, Reference};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["table1", "grid-deep", "replay", "serve"];
/// Why each workload is in the benchmark (one line each).
pub const WHY: [&str; 4] = [
    "paper Table 1 grid via resim sweep: 10 cells each generating a 200k trace, so tracegen+encode are ~45% of wall; cached half runs mem",
    "one gzip trace x 24 engine configs: the core hot loop is >=95% of wall; the control where tracegen or codec changes must not move",
    "layout-v2 1M-instruction vpr container replayed by resim run and a 5% sampled run: the only reader of the codec and only user of sample",
    "in-process resim-serve, 1 worker, one closed-loop client: per round a cached and a fresh 4-cell grid, the 1:1 mix of the CI serve smoke; protocol and cache",
];
/// Seconds one run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Where runs keep their files, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(Some(args))
}

fn make_workload(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table1" => Box::new(sweeps::SweepWorkload::new(
            scenarios::table1(seed, scenarios::TABLE1_BUDGET),
            dir,
        )?),
        "grid-deep" => Box::new(sweeps::SweepWorkload::new(scenarios::grid_deep(seed), dir)?),
        "replay" => Box::new(replay::ReplayWorkload::new(
            seed,
            scenarios::REPLAY_BUDGET,
            dir,
        )?),
        "serve" => Box::new(serve::ServeWorkload::new(seed, dir)),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    })
}

/// Set-up runs once before the warm-up, then again after measured
/// iterations past the first `MIN_ITERS`: for `SETUP_SLICE_S` seconds
/// (at least once) each time,
/// while set-up has taken less than `SETUP_SHARE` of the run so far.
/// `setup_s` is the median repetition. On a shared host the speed of a
/// set-up of tens of microseconds changes from one fraction of a second
/// to the next, so repetitions spread over the run are steadier than a
/// burst at its start.
const SETUP_SLICE_S: f64 = 0.01;
const SETUP_SHARE: f64 = 0.1;
const MAX_SETUP_REPS: usize = 100_000;

/// Repeats the set-up for `slice_s` seconds, at least once, adding each
/// repetition's time to `times`.
fn set_up_for(wl: &mut dyn Workload, times: &mut Vec<f64>, slice_s: f64) -> Result<(), String> {
    let t_slice = Instant::now();
    loop {
        let t0 = Instant::now();
        wl.setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if t_slice.elapsed().as_secs_f64() >= slice_s || times.len() >= MAX_SETUP_REPS {
            return Ok(());
        }
    }
}

/// Measured iterations every run makes, however short `--seconds` is.
/// Peak memory is read after the warm-up and these, so it does not
/// depend on how many iterations fit in the run.
const MIN_ITERS: u32 = 3;

/// Operations attempted and failed, plus why anything failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one iteration's operations, failing all of them when its
    /// artifact differs from the reference.
    fn iteration(&mut self, what: &str, out: &workload::IterOut, reference: &str) {
        self.attempted += out.ops;
        if out.artifact != reference {
            self.failed += out.ops;
            self.problems
                .push(format!("{what} artifact differs from the reference"));
        }
    }
}

/// One untraced iteration's host measurements.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    committed: u64,
    /// Host slowness around the iteration: the mean of the reference
    /// blocks before and after it.
    slowness: f64,
}

impl Sample {
    /// CPU time at the reference host's speed.
    fn cpu_norm_s(&self) -> f64 {
        at_reference_speed(self.cpu_s, self.slowness)
    }

    /// Wall time at the reference host's speed: the time the process was
    /// busy is scaled, the time it waited (timers, sockets) is kept.
    fn wall_norm_s(&self) -> f64 {
        let busy = self.cpu_s.min(self.wall_s);
        self.wall_s - busy + at_reference_speed(busy, self.slowness)
    }
}

fn timed(wl: &mut dyn Workload) -> Result<(workload::IterOut, Sample), String> {
    let (t0, c0) = (Instant::now(), process_cpu_s());
    let out = wl.iterate()?;
    let sample = Sample {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - c0,
        committed: out.committed,
        slowness: f64::NAN,
    };
    Ok((out, sample))
}

/// A reference block after each iteration runs for this share of the
/// iteration's wall time, and at least `SPEED_MIN_CHUNKS` chunks.
const SPEED_SHARE: f64 = 0.05;
const SPEED_MIN_CHUNKS: usize = 8;

/// Runs one reference block sized against an iteration of `wall_s`;
/// returns its slowness.
fn speed_block(reference: &mut Reference, wall_s: f64) -> f64 {
    slowness(reference.block(SPEED_SHARE * wall_s, SPEED_MIN_CHUNKS))
}

struct Report {
    tally: Tally,
    /// `(name, value, unit, note)` in catalogue order.
    metrics: Vec<(&'static str, f64, &'static str, String)>,
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let mut wl = make_workload(&args.workload, args.seed, dir)?;
    let mut tally = Tally::default();
    let mut tr = Tracer::new();

    // Host speed is measured by the reference kernel before the first
    // set-up and after every iteration; each set-up repetition and each
    // iteration is scaled by the slowness measured next to it.
    let mut speed = Reference::new();
    let mut slow = speed_block(&mut speed, 0.0);
    let mut setup_s = Vec::new();
    set_up_for(wl.as_mut(), &mut setup_s, 0.0)?;
    let mut setup_norm_s: Vec<f64> = setup_s
        .iter()
        .map(|&t| at_reference_speed(t, slow))
        .collect();
    let setup_rss = clock::peak_rss_mb();
    if args.trace {
        wl.setup_traced(&mut tr)?;
    }

    // Warm-up: lazy set-up (threads, connections, allocator growth)
    // finishes here, and its artifact is the reference.
    let (warm, warm_sample) = timed(wl.as_mut())?;
    let reference = warm.artifact.clone();
    tally.iteration("warm-up", &warm, &reference);
    slow = speed_block(&mut speed, warm_sample.wall_s);

    let mut samples = Vec::new();
    let mut traced_wall_s = Vec::new();
    let mut rss = None;
    let t_run = Instant::now();
    let mut i = 0;
    while i < MIN_ITERS || t_run.elapsed().as_secs_f64() < args.seconds {
        i += 1;
        let (out, mut sample) = timed(wl.as_mut())?;
        tally.iteration("untraced", &out, &reference);
        let slow_after = speed_block(&mut speed, sample.wall_s);
        sample.slowness = (slow + slow_after) / 2.0;
        slow = slow_after;
        samples.push(sample);
        // Not before peak memory is read: the number of repetitions
        // depends on timing, and their allocations would make the
        // reading depend on it too.
        if i > MIN_ITERS
            && setup_s.iter().sum::<f64>() < SETUP_SHARE * t_run.elapsed().as_secs_f64()
        {
            let first = setup_s.len();
            set_up_for(wl.as_mut(), &mut setup_s, SETUP_SLICE_S)?;
            setup_norm_s.extend(
                setup_s[first..]
                    .iter()
                    .map(|&t| at_reference_speed(t, slow)),
            );
        }
        if args.trace {
            tr.set_iter(i);
            let t0 = Instant::now();
            let out = tr.span("bench.iter", |tr| wl.iterate_traced(tr))?;
            traced_wall_s.push(t0.elapsed().as_secs_f64());
            tally.iteration("traced", &out, &reference);
        }
        if i == MIN_ITERS {
            rss = clock::peak_rss_mb();
        }
    }
    if args.trace {
        tr.set_iter(LAYER_PROBE);
        wl.layer_probes(&mut tr)?;
    }
    let (failed, problems) = wl.verify()?;
    tally.failed += failed;
    tally.problems.extend(problems);
    let digest = check::fnv1a64(reference.as_bytes());
    println!(
        "artifact digest {} {} {digest:#018x}",
        args.workload, args.seed
    );
    if args.seed == DEFAULT_SEED && check::pinned_digest(&args.workload, args.seed) != Some(digest)
    {
        // Every iteration reproduced this artifact, so every one is wrong.
        tally.failed = tally.attempted;
        tally.problems.push(format!(
            "artifact digest {digest:#018x} is not the pinned one"
        ));
    }
    wl.finish()?;
    if !args.trace {
        if let Some(summary) = wl.summary() {
            println!("{summary}");
        }
    }
    drop(wl);

    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let n = samples.len();
    println!(
        "clock noise over {n} iterations: cv(wall_s) {:.2}%, cv(cpu_s) {:.2}%",
        cv_pct(&walls),
        cv_pct(&cpus)
    );
    let slows: Vec<f64> = samples.iter().map(|s| s.slowness).collect();
    let chunks = speed.chunk_times();
    println!(
        "host slowness: median {:.4} (p10 {:.4}, p90 {:.4}) over {n} iterations; \
         {} reference chunks, median {:.4} ms against {:.4} ms nominal",
        median(&slows),
        quantile(&slows, 0.1),
        quantile(&slows, 0.9),
        chunks.len(),
        median(chunks) * 1e3,
        speed::NOMINAL_CHUNK_S * 1e3
    );

    let mut metrics = Vec::new();
    if !args.trace {
        let wall_norm: Vec<f64> = samples.iter().map(Sample::wall_norm_s).collect();
        let cpu_norm: Vec<f64> = samples.iter().map(Sample::cpu_norm_s).collect();
        let mips: Vec<f64> = samples
            .iter()
            .map(|s| s.committed as f64 / s.wall_norm_s() / 1e6)
            .collect();
        let raw_mips: Vec<f64> = samples
            .iter()
            .map(|s| s.committed as f64 / s.wall_s / 1e6)
            .collect();
        let (rss, setup_rss) = rss
            .zip(setup_rss)
            .ok_or("cannot read VmHWM from /proc/self/status")?;
        let spread = |v: &[f64], raw: &[f64]| {
            format!(
                "median of n={}, p25 {:.6}, p90 {:.6}; unscaled median {:.6}",
                v.len(),
                quantile(v, 0.25),
                quantile(v, 0.9),
                median(raw)
            )
        };
        let values = [
            (
                median(&setup_norm_s),
                format!(
                    "median of n={}; unscaled median {:.4e}",
                    setup_s.len(),
                    median(&setup_s)
                ),
            ),
            (median(&wall_norm), spread(&wall_norm, &walls)),
            (median(&cpu_norm), spread(&cpu_norm, &cpus)),
            (median(&mips), spread(&mips, &raw_mips)),
            (
                rss,
                format!("VmHWM after warm-up + {MIN_ITERS} iterations; {setup_rss:.1} after the first set-up"),
            ),
        ];
        for (m, (value, note)) in END_TO_END.iter().zip(values) {
            metrics.push((m.name, value, m.unit, note));
        }
    } else {
        tr.set_iter(FIXED_PROBE);
        probe::fixed_probe(&mut tr, args.seed, &dir.join("probe"))?;
        let overhead = tracing_metrics(&tr, median(&walls), &traced_wall_s);
        let coverage = overhead["tracing.coverage_pct"];
        if !(COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&coverage) {
            println!(
                "WARNING: layer self times cover {coverage:.1}% of untraced wall_s, outside \
                 {}-{}%: the traced calls may no longer mirror the program's",
                COVERAGE_BAND.0, COVERAGE_BAND.1
            );
        }
        for m in &PER_LAYER {
            let (value, note) = match m.calc {
                Calc::Overhead => (
                    overhead[m.name],
                    format!("{n} untraced / {} traced", traced_wall_s.len()),
                ),
                ref calc => GROUPS
                    .iter()
                    .find_map(|(group, in_group)| {
                        evaluate(&tr, calc, *in_group).map(|v| (v, group.to_string()))
                    })
                    .ok_or_else(|| format!("no span or note yields {}", m.name))?,
            };
            metrics.push((m.name, value, m.unit, note));
        }
        let spans_path =
            Path::new(WORK_ROOT).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&spans_path).map_err(|e| e.to_string())?;
        println!("spans written to {}", spans_path.display());
    }
    Ok(Report { tally, metrics })
}

/// The coverage a traced run should show when its spanned calls mirror
/// the program's (%); host noise between the traced and untraced
/// iterations moves it by a few points.
const COVERAGE_BAND: (f64, f64) = (85.0, 115.0);

/// Tracing overhead and coverage: traced wall against untraced wall, and
/// the share of untraced wall the layer self times account for.
fn tracing_metrics(
    tr: &Tracer,
    untraced_wall_s: f64,
    traced_wall_s: &[f64],
) -> BTreeMap<&'static str, f64> {
    let traced = median(traced_wall_s);
    let mut covered = Vec::new();
    let iters: std::collections::BTreeSet<u32> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "bench.iter")
        .map(|s| s.iter)
        .collect();
    for i in iters {
        let layers = tr.layer_self_ms(i);
        covered.push(
            layers
                .iter()
                .filter(|(l, _)| **l != "bench")
                .map(|(_, ms)| ms)
                .sum::<f64>(),
        );
    }
    let coverage = 100.0 * median(&covered) / 1e3 / untraced_wall_s;
    BTreeMap::from([
        ("tracing.overhead_ms", (traced - untraced_wall_s) * 1e3),
        (
            "tracing.overhead_pct",
            100.0 * (traced - untraced_wall_s) / untraced_wall_s,
        ),
        ("tracing.coverage_pct", coverage),
        ("tracing.other_pct", 100.0 - coverage),
    ])
}

fn render(report: &Report) -> String {
    let mut s = String::new();
    let t = &report.tally;
    let frac = t.failed as f64 / t.attempted.max(1) as f64;
    let _ = writeln!(
        s,
        "operations attempted {}, failed {} (failed_frac {frac})",
        t.attempted, t.failed
    );
    for p in &t.problems {
        let _ = writeln!(s, "FAILED: {p}");
    }
    for (name, value, unit, note) in &report.metrics {
        let _ = writeln!(s, "  {name:<26} {value:>14.6} {unit:<12} {note}");
    }
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let finite = report.metrics.iter().all(|(_, v, _, _)| v.is_finite());
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0 && t.problems.is_empty() && finite,
        t.attempted.max(1),
        t.failed,
        body.join(", ")
    );
    s
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::manifest());
            return;
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let dir: PathBuf =
        Path::new(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(dir.join("probe")) {
        eprintln!("e2ebench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(report) => println!("{}", render(&report)),
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A changed engine setting changes the artifact, so the reference
    /// comparison fails every operation of the iteration; the traced and
    /// untraced paths agree on both configurations.
    #[test]
    fn a_perturbed_config_is_caught() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(WORK_ROOT)
            .join(format!("test-{}", std::process::id()));
        let run = |text: String, sub: &str| {
            let d = dir.join(sub);
            std::fs::create_dir_all(&d).unwrap();
            let mut wl = sweeps::SweepWorkload::new(text, &d).unwrap();
            wl.setup().unwrap();
            let untraced = wl.iterate().unwrap();
            let traced = wl.iterate_traced(&mut Tracer::new()).unwrap();
            assert_eq!(untraced.artifact, traced.artifact);
            untraced
        };
        let text = scenarios::table1(DEFAULT_SEED, 2_000);
        let perturbed_text = text.replacen(
            "preset = \"paper-4wide\"",
            "preset = \"paper-4wide\"\nrb_size = 24",
            1,
        );
        let reference = run(text, "base");
        let perturbed = run(perturbed_text, "perturbed");
        std::fs::remove_dir_all(&dir).unwrap();

        let mut tally = Tally::default();
        tally.iteration("base", &reference, &reference.artifact);
        assert_eq!(tally.failed, 0);
        tally.iteration("perturbed", &perturbed, &reference.artifact);
        assert_eq!(tally.failed, perturbed.ops);
        assert_eq!(tally.problems.len(), 1);
    }
}
