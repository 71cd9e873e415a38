//! The sampled-simulation driver.

use crate::plan::{PlanError, SamplePlan, WarmupMode};
use crate::stats::{SampledStats, WindowStats};
use crate::warm::FunctionalWarmer;
use resim_core::{ConfigError, Engine, EngineConfig, SimStats, TraceCursor};
use resim_trace::TraceSource;
use std::error::Error;
use std::fmt;

/// Reasons a sampled run cannot start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleError {
    /// The plan is degenerate.
    Plan(PlanError),
    /// The engine configuration is invalid.
    Config(ConfigError),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Plan(e) => write!(f, "invalid sample plan: {e}"),
            SampleError::Config(e) => write!(
                f,
                "cannot build sampling engine: invalid engine configuration: {e}"
            ),
        }
    }
}

impl Error for SampleError {}

impl From<PlanError> for SampleError {
    fn from(e: PlanError) -> Self {
        SampleError::Plan(e)
    }
}

impl From<ConfigError> for SampleError {
    fn from(e: ConfigError) -> Self {
        SampleError::Config(e)
    }
}

/// What one [`simulate`] run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// A full run's statistics, or a sampled run's merged windows.
    pub stats: SimStats,
    /// A sampled run's windows and confidence data.
    pub sampled: Option<SampledStats>,
    /// A full run's operations per scheduler stage, in roster order;
    /// empty for a sampled run, whose engines last one window each.
    pub activity: Vec<(&'static str, u64)>,
}

/// Runs `source` on an engine configured as `config`: every record in
/// detail on one [`Engine`] without a plan, else [`run_sampled`] under
/// it. The `resim` commands and the sweep runner run through here.
///
/// # Errors
///
/// [`SampleError::Config`] for an invalid configuration, with or
/// without a plan; [`SampleError::Plan`] for an invalid plan.
pub fn simulate<S: TraceSource>(
    config: &EngineConfig,
    source: S,
    plan: Option<&SamplePlan>,
) -> Result<RunOutcome, SampleError> {
    let (stats, sampled, activity) = match plan {
        None => {
            let mut engine = Engine::new(config.clone())?;
            (engine.run(source), None, engine.scheduler().activity())
        }
        Some(plan) => {
            let sampled = run_sampled(config, source, plan)?;
            (sampled.sim, Some(sampled), Vec::new())
        }
    };
    Ok(RunOutcome {
        stats,
        sampled,
        activity,
    })
}

/// Runs `source` under `plan` on an engine configured as `config`.
///
/// Two execution paths, chosen by the plan:
///
/// * **100 % coverage** ([`SamplePlan::is_full_coverage`]) — one engine,
///   one [`TraceCursor`], windowed contiguously with
///   [`Engine::run_window`]: the returned `sim` statistics are
///   **bit-identical** to a single [`Engine::run`] over the same source,
///   and every interval still yields a [`WindowStats`] for the CI
///   machinery.
/// * **sampled** — between detailed windows the records are functionally
///   warmed (or skipped, per [`WarmupMode`]); at each sampling point the
///   warmer's live predictor and memory system move into a detailed
///   engine ([`Engine::resume`], which zeroes their counters), the engine
///   runs its window to drain, and [`Engine::into_warm`] hands the same
///   (further-trained) objects back to the warmer. Per-window statistics
///   merge through [`SimStats::merge`].
///
/// # Errors
///
/// [`SampleError`] if the plan fails validation or the configuration is
/// invalid. A well-formed plan over any source never errors mid-run.
pub fn run_sampled<S: TraceSource>(
    config: &EngineConfig,
    source: S,
    plan: &SamplePlan,
) -> Result<SampledStats, SampleError> {
    plan.validate()?;
    if plan.is_full_coverage() {
        run_full_coverage(config, source, plan)
    } else {
        run_windows(config, source, plan)
    }
}

/// The contiguous fast path: one engine, no warmup, exact statistics.
fn run_full_coverage<S: TraceSource>(
    config: &EngineConfig,
    source: S,
    plan: &SamplePlan,
) -> Result<SampledStats, SampleError> {
    let mut engine = Engine::new(config.clone())?;
    let mut cursor = TraceCursor::new(source);
    let mut windows: Vec<WindowStats> = Vec::new();
    let mut prev = SimStats::default();
    loop {
        let start = cursor.consumed();
        engine.run_window(&mut cursor, plan.interval_records);
        let taken = cursor.consumed() - start;
        if taken == 0 {
            break;
        }
        let now = engine.stats();
        windows.push(WindowStats {
            index: windows.len() as u64,
            interval: windows.len() as u64,
            start_record: start,
            records: taken,
            committed: now.committed - prev.committed,
            cycles: now.cycles - prev.cycles,
        });
        prev = now;
    }
    let sim = engine.drain(&mut cursor);
    // The drain tail (in-flight work after the last fetched record)
    // belongs to the last window.
    if let Some(last) = windows.last_mut() {
        last.committed += sim.committed - prev.committed;
        last.cycles += sim.cycles - prev.cycles;
    }
    let total = cursor.consumed();
    Ok(SampledStats {
        windows,
        sim,
        records_total: total,
        records_detailed: total,
        records_warmed: 0,
        records_skipped: 0,
        full_coverage: true,
    })
}

/// One-record lookahead over a [`TraceSource`]: the sampled runner
/// must see whether a window boundary landed inside a wrong-path block
/// without losing the record it peeked at. Everything else reads
/// through the source's own `fill` and `skip`.
struct Peekable<S: TraceSource> {
    src: S,
    buf: Option<resim_trace::TraceRecord>,
}

impl<S: TraceSource> Peekable<S> {
    fn peek(&mut self) -> Option<&resim_trace::TraceRecord> {
        if self.buf.is_none() {
            self.buf = self.src.next_record();
        }
        self.buf.as_ref()
    }
}

impl<S: TraceSource> TraceSource for Peekable<S> {
    fn next_record(&mut self) -> Option<resim_trace::TraceRecord> {
        self.buf.take().or_else(|| self.src.next_record())
    }

    fn fill(&mut self, buf: &mut [resim_trace::TraceRecord]) -> usize {
        if let (Some(r), Some((first, rest))) = (self.buf, buf.split_first_mut()) {
            self.buf = None;
            *first = r;
            return 1 + self.src.fill(rest);
        }
        self.src.fill(buf)
    }

    fn skip(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let buffered = u64::from(self.buf.take().is_some());
        buffered + self.src.skip(n - buffered)
    }
}

/// The sampled path: warm/skip the gaps, move the warm state into a
/// detailed engine at each sampling point and take it back after.
fn run_windows<S: TraceSource>(
    config: &EngineConfig,
    source: S,
    plan: &SamplePlan,
) -> Result<SampledStats, SampleError> {
    let mut source = Peekable {
        src: source,
        buf: None,
    };
    let mut warmer = FunctionalWarmer::new(config);
    let mut windows: Vec<WindowStats> = Vec::new();
    let mut merged = SimStats::default();
    let mut position: u64 = 0;
    let (mut detailed, mut warmed, mut skipped) = (0u64, 0u64, 0u64);
    let mut interval = plan.offset;

    while let Some(window_start) = interval.checked_mul(plan.interval_records) {
        // --- the gap up to the next sampling point ---
        // (`saturating_sub` because wrong-path residue, below, can push
        // `position` slightly past a window's nominal start)
        let gap = window_start.saturating_sub(position);
        let (to_skip, to_warm) = match plan.warmup {
            WarmupMode::Functional => (0, gap),
            WarmupMode::Bounded(n) => (gap.saturating_sub(n), gap.min(n)),
        };
        if to_skip > 0 {
            let s = source.skip(to_skip);
            position += s;
            skipped += s;
            if s < to_skip {
                break;
            }
        }
        if to_warm > 0 {
            let w = warmer.warm_from(&mut source, to_warm);
            position += w;
            warmed += w;
            if w < to_warm {
                break;
            }
        }
        // The boundary may have landed inside a wrong-path block; its
        // tagged tail belongs to the branch outside the window, and the
        // engine must never see tagged records with no mispredicted
        // branch in front of them. Feed the residue to the warmer (a
        // no-op for tagged records) and account it as warmup intake.
        while source.peek().is_some_and(|r| r.wrong_path()) {
            let r = source.next_record().expect("peeked above");
            warmer.warm_record(&r);
            position += 1;
            warmed += 1;
        }

        // --- the detailed window ---
        let (predictor, memory) = warmer.into_parts();
        let mut engine = Engine::resume(config.clone(), predictor, memory)?;
        let start_record = position;
        let mut window = source.window(plan.detailed_records);
        let stats = engine.run(&mut window);
        let taken = plan.detailed_records - window.remaining();
        // Carry the window's training (and wrong-path pollution) forward.
        let (predictor, memory) = engine.into_warm();
        warmer = FunctionalWarmer::from_parts(predictor, memory);
        if taken == 0 {
            break; // the trace ended exactly at the sampling point
        }
        position += taken;
        detailed += taken;
        merged = merged.merge(&stats);
        windows.push(WindowStats {
            index: windows.len() as u64,
            interval,
            start_record,
            records: taken,
            committed: stats.committed,
            cycles: stats.cycles,
        });
        if taken < plan.detailed_records {
            break; // the trace ended inside the window
        }
        interval += plan.period;
    }

    Ok(SampledStats {
        windows,
        sim: merged,
        records_total: position,
        records_detailed: detailed,
        records_warmed: warmed,
        records_skipped: skipped,
        full_coverage: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WarmupMode;
    use resim_trace::Trace;
    use resim_tracegen::{generate_trace, TraceGenConfig};
    use resim_workloads::{SpecBenchmark, Workload};

    fn gzip_trace(n: usize, seed: u64) -> Trace {
        generate_trace(
            Workload::spec(SpecBenchmark::Gzip, seed),
            n,
            &TraceGenConfig::paper(),
        )
    }

    fn cached_config() -> EngineConfig {
        EngineConfig {
            memory: resim_mem::MemorySystemConfig::l1_32k(),
            ..EngineConfig::paper_4wide()
        }
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let trace = gzip_trace(100, 1);
        let err = run_sampled(
            &EngineConfig::paper_4wide(),
            trace.source(),
            &SamplePlan::systematic(0, 1, 1),
        );
        assert!(matches!(err, Err(SampleError::Plan(_))));
    }

    #[test]
    fn invalid_config_is_rejected_on_both_paths() {
        let trace = gzip_trace(100, 1);
        let config = EngineConfig {
            width: 0,
            ..EngineConfig::paper_4wide()
        };
        for plan in [
            SamplePlan::full_coverage(50),
            SamplePlan::systematic(50, 10, 2),
        ] {
            let err = run_sampled(&config, trace.source(), &plan).unwrap_err();
            assert_eq!(err, SampleError::Config(ConfigError::ZeroWidth));
            let message = err.to_string();
            assert!(message.starts_with("cannot build sampling engine: "));
        }
    }

    #[test]
    fn simulate_runs_full_without_a_plan_and_sampled_with_one() {
        let trace = gzip_trace(6_000, 4);
        let config = cached_config();
        let mut engine = Engine::new(config.clone()).unwrap();
        let direct = engine.run(trace.source());
        let full = simulate(&config, trace.source(), None).unwrap();
        assert_eq!(full.stats, direct);
        assert_eq!(full.sampled, None);
        assert_eq!(full.activity, engine.scheduler().activity());

        let plan = SamplePlan::systematic(1_000, 250, 2);
        let sampled = simulate(&config, trace.source(), Some(&plan)).unwrap();
        let expected = run_sampled(&config, trace.source(), &plan).unwrap();
        assert_eq!(sampled.stats, expected.sim);
        assert_eq!(sampled.sampled, Some(expected));
        assert!(sampled.activity.is_empty());
    }

    #[test]
    fn simulate_reports_errors_and_never_panics() {
        let trace = gzip_trace(100, 1);
        let config = EngineConfig {
            width: 0,
            ..EngineConfig::paper_4wide()
        };
        for plan in [
            None,
            Some(SamplePlan::full_coverage(50)),
            Some(SamplePlan::systematic(50, 10, 2)),
        ] {
            let err = simulate(&config, trace.source(), plan.as_ref()).unwrap_err();
            assert_eq!(err, SampleError::Config(ConfigError::ZeroWidth), "{plan:?}");
        }
        let bad_plan = SamplePlan::systematic(0, 1, 1);
        let err = simulate(
            &EngineConfig::paper_4wide(),
            trace.source(),
            Some(&bad_plan),
        );
        assert!(matches!(err, Err(SampleError::Plan(_))));
    }

    #[test]
    fn full_coverage_matches_engine_run_exactly() {
        let trace = gzip_trace(20_000, 5);
        let config = cached_config();
        let full = Engine::new(config.clone()).unwrap().run(trace.source());
        for interval in [100u64, 1_000, 7_777, 1 << 40] {
            let s = run_sampled(
                &config,
                trace.source(),
                &SamplePlan::full_coverage(interval),
            )
            .unwrap();
            assert!(s.full_coverage);
            assert_eq!(s.sim, full, "interval={interval}");
            assert_eq!(s.records_total, trace.len() as u64);
            assert_eq!(s.records_detailed, s.records_total);
            // Window deltas cover the run exactly.
            assert_eq!(s.windows.iter().map(|w| w.cycles).sum::<u64>(), full.cycles);
            assert_eq!(
                s.windows.iter().map(|w| w.committed).sum::<u64>(),
                full.committed
            );
        }
    }

    #[test]
    fn sampled_run_estimates_full_ipc() {
        let trace = gzip_trace(60_000, 7);
        let config = cached_config();
        let full = Engine::new(config.clone()).unwrap().run(trace.source());
        let plan = SamplePlan::systematic(4_000, 1_000, 2);
        let s = run_sampled(&config, trace.source(), &plan).unwrap();
        assert!(!s.full_coverage);
        assert!(s.n_windows() >= 7, "windows: {}", s.n_windows());
        assert!(s.records_detailed < s.records_total / 3);
        assert_eq!(s.records_skipped, 0, "functional warmup skips nothing");
        assert!(
            s.relative_error(full.ipc()) < 0.05,
            "sampled {} vs full {}",
            s.mean_ipc(),
            full.ipc()
        );
    }

    #[test]
    fn bounded_warmup_skips_and_still_tracks() {
        let trace = gzip_trace(60_000, 7);
        let config = cached_config();
        let full = Engine::new(config.clone()).unwrap().run(trace.source());
        let plan = SamplePlan::systematic(6_000, 1_000, 2).with_warmup(WarmupMode::Bounded(4_000));
        let s = run_sampled(&config, trace.source(), &plan).unwrap();
        assert!(s.records_skipped > 0, "bounded warmup must use skip()");
        assert!(
            s.relative_error(full.ipc()) < 0.10,
            "sampled {} vs full {}",
            s.mean_ipc(),
            full.ipc()
        );
    }

    #[test]
    fn accounting_is_conserved() {
        let trace = gzip_trace(30_000, 3);
        let plan = SamplePlan::systematic(3_000, 500, 3).with_warmup(WarmupMode::Bounded(1_000));
        let s = run_sampled(&cached_config(), trace.source(), &plan).unwrap();
        assert_eq!(
            s.records_detailed + s.records_warmed + s.records_skipped,
            s.records_total
        );
        assert_eq!(
            s.windows.iter().map(|w| w.records).sum::<u64>(),
            s.records_detailed
        );
        // The merged sim stats agree with the windows.
        assert_eq!(s.sim.committed, s.windows.iter().map(|w| w.committed).sum());
        assert_eq!(s.sim.cycles, s.windows.iter().map(|w| w.cycles).sum());
    }

    #[test]
    fn offset_shifts_the_sampling_grid() {
        let trace = gzip_trace(20_000, 2);
        let base = SamplePlan::systematic(2_000, 400, 4);
        let a = run_sampled(&cached_config(), trace.source(), &base).unwrap();
        let b = run_sampled(&cached_config(), trace.source(), &base.with_offset(1)).unwrap();
        assert_eq!(a.windows[0].start_record, 0);
        assert_eq!(b.windows[0].start_record, 2_000);
        assert_ne!(a.mean_ipc(), b.mean_ipc());
    }

    #[test]
    fn determinism() {
        let trace = gzip_trace(25_000, 9);
        let plan = SamplePlan::systematic(2_500, 600, 2).with_warmup(WarmupMode::Bounded(800));
        let a = run_sampled(&cached_config(), trace.source(), &plan).unwrap();
        let b = run_sampled(&cached_config(), trace.source(), &plan).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_yields_empty_stats() {
        let empty = Trace::new();
        let s = run_sampled(
            &EngineConfig::paper_4wide(),
            empty.source(),
            &SamplePlan::systematic(100, 10, 2),
        )
        .unwrap();
        assert_eq!(s.n_windows(), 0);
        assert_eq!(s.records_total, 0);
        let f = run_sampled(
            &EngineConfig::paper_4wide(),
            empty.source(),
            &SamplePlan::full_coverage(100),
        )
        .unwrap();
        assert_eq!(f.n_windows(), 0);
    }
}
