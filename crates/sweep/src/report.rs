//! Sweep results: per-cell statistics plus grid-level aggregates, with
//! CSV and Markdown rendering.

use resim_core::SimStats;
use resim_sample::SampledStats;
use resim_trace::TraceStats;
use std::fmt::Write as _;
use std::time::Duration;

/// The outcome of one grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Configuration name.
    pub config: String,
    /// Workload name.
    pub workload: String,
    /// Execution-mode name (`"full"`, or `"sampled-<plan>"`).
    pub mode: String,
    /// Correct-path instruction budget.
    pub budget: usize,
    /// Workload seed.
    pub seed: u64,
    /// Engine statistics (bit-identical across thread counts). For a
    /// sampled cell these are the merged detailed-window statistics.
    pub stats: SimStats,
    /// Per-window confidence data of a sampled cell (`None` for full).
    pub sampled: Option<SampledStats>,
    /// Encoded-trace statistics of the (shared) input trace.
    pub trace_stats: TraceStats,
    /// Wall-clock time spent producing this cell (informational only —
    /// never part of any determinism contract): the engine run for the
    /// cell that ran it, near zero for a cell derived from a run by
    /// re-costing — another organization of its timing point, or a
    /// timing point of its queue family served by a larger run — so
    /// summed cell walls never exceed the simulate phase.
    pub wall: Duration,
}

impl CellResult {
    /// The sampled-estimate data of this cell, when the cell's IPC is an
    /// estimate rather than exact — `None` for full cells **and** for
    /// 100 %-coverage sampled cells (those are exact). The single
    /// decision point every renderer shares.
    pub fn sampled_estimate(&self) -> Option<&SampledStats> {
        self.sampled.as_ref().filter(|s| !s.full_coverage)
    }

    /// The cell's headline IPC: the sampled estimate (window-mean with a
    /// confidence interval) for sampled cells, the exact IPC otherwise.
    pub fn ipc(&self) -> f64 {
        match self.sampled_estimate() {
            Some(s) => s.mean_ipc(),
            None => self.stats.ipc(),
        }
    }

    /// The `(mean, ci_lo, ci_hi)` triple of an estimating cell, `None`
    /// when the cell's IPC is exact — the numeric essence a result
    /// cache must persist to re-render this cell's CSV row
    /// byte-identically.
    pub fn ipc_estimate(&self) -> Option<(f64, f64, f64)> {
        self.sampled_estimate().map(|s| {
            let (lo, hi) = s.ci95();
            (s.mean_ipc(), lo, hi)
        })
    }
}

/// The header line of the deterministic CSV rendering
/// ([`SweepReport::to_csv_stable`]), newline included.
pub fn stable_csv_header() -> &'static str {
    "config,workload,mode,budget,seed,cycles,committed,ipc,ipc_ci_lo,ipc_ci_hi,\
     wrong_path_frac,bits_per_instr\n"
}

/// Renders one deterministic CSV row (newline included) from the
/// numeric essence of a cell — exactly the row
/// [`SweepReport::to_csv_stable`] produces, shared so `resim-serve` can
/// re-render cached cells byte-identically to a live sweep.
///
/// `ipc_estimate` is `(mean, ci_lo, ci_hi)` for cells whose IPC is a
/// sampled estimate; `None` renders the exact IPC with empty CI fields.
#[allow(clippy::too_many_arguments)]
pub fn stable_csv_row(
    config: &str,
    workload: &str,
    mode: &str,
    budget: u64,
    seed: u64,
    stats: &SimStats,
    ipc_estimate: Option<(f64, f64, f64)>,
    bits_per_instr: f64,
) -> String {
    let (ipc, lo, hi) = match ipc_estimate {
        Some((mean, lo, hi)) => (mean, format!("{lo:.4}"), format!("{hi:.4}")),
        None => (stats.ipc(), String::new(), String::new()),
    };
    format!(
        "{},{},{},{},{},{},{},{:.4},{},{},{:.4},{:.2}\n",
        config,
        workload,
        mode,
        budget,
        seed,
        stats.cycles,
        stats.committed,
        ipc,
        lo,
        hi,
        stats.wrong_path_fraction(),
        bits_per_instr,
    )
}

/// Everything a sweep produced, cells in scenario order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-cell results, indexed exactly like
    /// [`Scenario::cells`](crate::Scenario::cells).
    pub cells: Vec<CellResult>,
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// Total wall-clock time including trace generation.
    pub wall: Duration,
    /// Trace-cache hits during this sweep (reuse of earlier sweeps'
    /// traces shows up here when the runner's cache is shared).
    pub trace_cache_hits: u64,
    /// Trace-cache misses during this sweep (= traces this sweep
    /// actually generated).
    pub trace_cache_misses: u64,
}

impl SweepReport {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the report holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Looks up the first cell matching `config` and `workload`.
    pub fn get(&self, config: &str, workload: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.config == config && c.workload == workload)
    }

    /// Iterates the cells of one configuration, scenario-ordered.
    pub fn cells_for_config<'a>(
        &'a self,
        config: &'a str,
    ) -> impl Iterator<Item = &'a CellResult> + 'a {
        self.cells.iter().filter(move |c| c.config == config)
    }

    /// The per-cell simulated statistics alone — the value the
    /// determinism contract is stated over.
    pub fn all_stats(&self) -> Vec<SimStats> {
        self.cells.iter().map(|c| c.stats).collect()
    }

    /// Mean IPC over all cells (sampled cells contribute their estimate).
    pub fn mean_ipc(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().map(|c| c.ipc()).sum::<f64>() / self.cells.len() as f64
    }

    /// Lowest cell IPC (0 for an empty report).
    pub fn min_ipc(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells
            .iter()
            .map(|c| c.ipc())
            .fold(f64::INFINITY, f64::min)
    }

    /// Highest cell IPC.
    pub fn max_ipc(&self) -> f64 {
        self.cells.iter().map(|c| c.ipc()).fold(0.0, f64::max)
    }

    /// Total simulated instructions committed across the grid.
    pub fn total_committed(&self) -> u64 {
        self.cells.iter().map(|c| c.stats.committed).sum()
    }

    /// Renders one CSV row per cell (with header). Sampled cells carry
    /// their 95 % confidence bounds; full cells leave those fields empty.
    pub fn to_csv(&self) -> String {
        self.render_csv(true)
    }

    /// The deterministic CSV rendering: [`SweepReport::to_csv`] without
    /// the `wall_us` column, so two runs of the same scenario — however
    /// driven, programmatically or through a TOML file — produce
    /// **byte-identical** output. This is what `resim sweep
    /// --stable-csv` writes and what golden tests compare.
    pub fn to_csv_stable(&self) -> String {
        self.render_csv(false)
    }

    fn render_csv(&self, wall: bool) -> String {
        let mut s = String::from(stable_csv_header().trim_end_matches('\n'));
        s.push_str(if wall { ",wall_us\n" } else { "\n" });
        for c in &self.cells {
            let row = stable_csv_row(
                &c.config,
                &c.workload,
                &c.mode,
                c.budget as u64,
                c.seed,
                &c.stats,
                c.ipc_estimate(),
                c.trace_stats.bits_per_instruction(),
            );
            if wall {
                s.push_str(row.trim_end_matches('\n'));
                let _ = writeln!(s, ",{}", c.wall.as_micros());
            } else {
                s.push_str(&row);
            }
        }
        s
    }

    /// Renders a Markdown table of the cells plus an aggregate footer.
    pub fn to_markdown(&self) -> String {
        let mut s = String::from(
            "| config | workload | mode | budget | seed | cycles | IPC | wp % | wall |\n\
             |---|---|---|---:|---:|---:|---:|---:|---:|\n",
        );
        for c in &self.cells {
            let ipc = match c.sampled_estimate() {
                Some(sam) => format!("{:.3}±{:.3}", c.ipc(), sam.ci95_half_width()),
                None => format!("{:.3}", c.ipc()),
            };
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {} | {} | {} | {:.1} | {:.1?} |",
                c.config,
                c.workload,
                c.mode,
                c.budget,
                c.seed,
                c.stats.cycles,
                ipc,
                100.0 * c.stats.wrong_path_fraction(),
                c.wall,
            );
        }
        let _ = writeln!(
            s,
            "\n{} cells on {} threads in {:.2?} — IPC mean {:.3}, min {:.3}, max {:.3}; \
             traces generated {}, cache hits {}",
            self.cells.len(),
            self.threads,
            self.wall,
            self.mean_ipc(),
            self.min_ipc(),
            self.max_ipc(),
            self.trace_cache_misses,
            self.trace_cache_hits,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(config: &str, workload: &str, ipc_cycles: (u64, u64)) -> CellResult {
        CellResult {
            config: config.into(),
            workload: workload.into(),
            mode: "full".into(),
            budget: 1000,
            seed: 1,
            stats: SimStats {
                cycles: ipc_cycles.1,
                committed: ipc_cycles.0,
                ..SimStats::default()
            },
            sampled: None,
            trace_stats: TraceStats::default(),
            wall: Duration::from_micros(10),
        }
    }

    fn sampled_cell() -> CellResult {
        use resim_sample::WindowStats;
        let windows: Vec<WindowStats> = (0..4)
            .map(|i| WindowStats {
                index: i,
                interval: i * 2,
                start_record: i * 2_000,
                records: 500,
                committed: 900 + (i % 2) * 200,
                cycles: 500,
            })
            .collect();
        let sim = windows.iter().fold(SimStats::default(), |acc, w| {
            acc.merge(&SimStats {
                cycles: w.cycles,
                committed: w.committed,
                ..SimStats::default()
            })
        });
        CellResult {
            config: "a".into(),
            workload: "gzip".into(),
            mode: "sampled-u2000d500k2f".into(),
            budget: 8_000,
            seed: 1,
            stats: sim,
            sampled: Some(resim_sample::SampledStats {
                windows,
                sim,
                records_total: 8_000,
                records_detailed: 2_000,
                records_warmed: 6_000,
                records_skipped: 0,
                full_coverage: false,
            }),
            trace_stats: TraceStats::default(),
            wall: Duration::from_micros(10),
        }
    }

    fn report() -> SweepReport {
        SweepReport {
            cells: vec![cell("a", "gzip", (200, 100)), cell("b", "gzip", (100, 100))],
            threads: 2,
            wall: Duration::from_millis(5),
            trace_cache_hits: 1,
            trace_cache_misses: 1,
        }
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert_eq!(r.len(), 2);
        assert!((r.mean_ipc() - 1.5).abs() < 1e-12);
        assert!((r.min_ipc() - 1.0).abs() < 1e-12);
        assert!((r.max_ipc() - 2.0).abs() < 1e-12);
        assert_eq!(r.total_committed(), 300);
    }

    #[test]
    fn lookup_helpers() {
        let r = report();
        assert_eq!(r.get("a", "gzip").unwrap().stats.committed, 200);
        assert!(r.get("a", "vpr").is_none());
        assert_eq!(r.cells_for_config("b").count(), 1);
        assert_eq!(r.all_stats().len(), 2);
    }

    #[test]
    fn csv_shape() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("config,workload,mode"));
        assert!(lines[1].starts_with("a,gzip,full,1000,1,100,200,2.0000,,,"));
    }

    #[test]
    fn stable_csv_drops_only_the_wall_column() {
        let r = report();
        let stable = r.to_csv_stable();
        assert!(!stable.contains("wall_us"));
        for (full_line, stable_line) in r.to_csv().lines().zip(stable.lines()) {
            let full_cols: Vec<&str> = full_line.split(',').collect();
            let stable_cols: Vec<&str> = stable_line.split(',').collect();
            assert_eq!(full_cols.len(), stable_cols.len() + 1);
            assert_eq!(&full_cols[..stable_cols.len()], &stable_cols[..]);
        }
    }

    #[test]
    fn markdown_shape() {
        let md = report().to_markdown();
        assert!(md.contains("| a | gzip | full |"));
        assert!(md.contains("2 cells on 2 threads"));
        assert!(md.contains("IPC mean 1.500"));
    }

    #[test]
    fn sampled_cells_report_estimate_and_interval() {
        let c = sampled_cell();
        // Window mean (2.0) differs from the merged-stats IPC only in
        // weighting; here windows are equal-length so they agree.
        assert!((c.ipc() - 2.0).abs() < 1e-12);
        let r = SweepReport {
            cells: vec![c],
            threads: 1,
            wall: Duration::from_millis(1),
            trace_cache_hits: 0,
            trace_cache_misses: 1,
        };
        let csv = r.to_csv();
        let line = csv.lines().nth(1).unwrap();
        assert!(line.starts_with("a,gzip,sampled-u2000d500k2f,8000,1"));
        // CI bounds are present and bracket the estimate.
        let fields: Vec<&str> = line.split(',').collect();
        let (ipc, lo, hi): (f64, f64, f64) = (
            fields[7].parse().unwrap(),
            fields[8].parse().unwrap(),
            fields[9].parse().unwrap(),
        );
        assert!(lo < ipc && ipc < hi);
        let md = r.to_markdown();
        assert!(md.contains('±'), "markdown shows the half-width: {md}");
    }
}
