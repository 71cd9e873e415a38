//! Sampled-run statistics: per-window IPC and the confidence interval
//! around the mean.

use resim_core::SimStats;

/// One detailed window's measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    /// Window ordinal (0-based).
    pub index: u64,
    /// Which trace interval the window opened.
    pub interval: u64,
    /// Trace record offset the window started at.
    pub start_record: u64,
    /// Trace records the window consumed (wrong-path included).
    pub records: u64,
    /// Correct-path instructions the window committed.
    pub committed: u64,
    /// Cycles the window took.
    pub cycles: u64,
}

impl WindowStats {
    /// This window's IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// Everything a sampled run produced.
///
/// The headline estimate is [`SampledStats::mean_ipc`] with a two-sided
/// 95 % confidence interval ([`SampledStats::ci95`]) computed from the
/// per-window IPC sample — SMARTS's estimator. `sim` carries the merged
/// [`SimStats`] of the detailed windows; under a 100 %-coverage plan it is
/// bit-identical to a plain [`Engine::run`](resim_core::Engine::run).
#[derive(Debug, Clone, PartialEq)]
pub struct SampledStats {
    /// Per-window measurements, trace order.
    pub windows: Vec<WindowStats>,
    /// Merged statistics of the detailed windows
    /// (full coverage ⇒ the exact full-run statistics).
    pub sim: SimStats,
    /// All trace records consumed (detailed + warmed + skipped).
    pub records_total: u64,
    /// Records simulated in detail.
    pub records_detailed: u64,
    /// Records consumed record-by-record by the warmup phase. Correct-path
    /// records warm the tables; wrong-path gap records (including residue
    /// dropped at a window boundary that landed inside a tagged block) are
    /// consumed here but leave no warm state.
    pub records_warmed: u64,
    /// Records skipped via the codec fast path.
    pub records_skipped: u64,
    /// Whether the run took the contiguous 100 %-coverage path.
    pub full_coverage: bool,
}

impl SampledStats {
    /// Number of detailed windows measured.
    pub fn n_windows(&self) -> usize {
        self.windows.len()
    }

    /// Mean of the per-window IPCs (the sampled IPC estimate).
    pub fn mean_ipc(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        self.windows.iter().map(|w| w.ipc()).sum::<f64>() / self.windows.len() as f64
    }

    /// Unbiased sample variance of the per-window IPCs (0 with < 2
    /// windows).
    pub fn variance(&self) -> f64 {
        let n = self.windows.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_ipc();
        self.windows
            .iter()
            .map(|w| {
                let d = w.ipc() - mean;
                d * d
            })
            .sum::<f64>()
            / (n - 1) as f64
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        (self.variance() / self.windows.len() as f64).sqrt()
    }

    /// Half-width of the two-sided 95 % confidence interval
    /// (Student's t for < 30 windows, 1.96 beyond).
    pub fn ci95_half_width(&self) -> f64 {
        if self.windows.len() < 2 {
            return 0.0;
        }
        t95(self.windows.len() - 1) * self.std_error()
    }

    /// The 95 % confidence interval `(low, high)` around the mean IPC.
    pub fn ci95(&self) -> (f64, f64) {
        let h = self.ci95_half_width();
        let m = self.mean_ipc();
        (m - h, m + h)
    }

    /// Whether `ipc` (for example, the full run's) falls inside the 95 %
    /// confidence interval.
    pub fn ci95_contains(&self, ipc: f64) -> bool {
        let (lo, hi) = self.ci95();
        (lo..=hi).contains(&ipc)
    }

    /// Relative error of the sampled estimate against a reference IPC.
    pub fn relative_error(&self, reference_ipc: f64) -> f64 {
        if reference_ipc == 0.0 {
            return 0.0;
        }
        (self.mean_ipc() - reference_ipc).abs() / reference_ipc
    }

    /// Fraction of consumed records that ran in detail.
    pub fn detailed_fraction(&self) -> f64 {
        if self.records_total == 0 {
            return 0.0;
        }
        self.records_detailed as f64 / self.records_total as f64
    }
}

/// Two-sided 95 % Student-t critical value for `df` degrees of freedom
/// (normal approximation from 30 on — the windows of any useful plan are
/// i.i.d. enough for SMARTS's estimator, and so for this table).
fn t95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(index: u64, committed: u64, cycles: u64) -> WindowStats {
        WindowStats {
            index,
            interval: index,
            start_record: index * 1000,
            records: committed,
            committed,
            cycles,
        }
    }

    fn stats(windows: Vec<WindowStats>) -> SampledStats {
        SampledStats {
            windows,
            sim: SimStats::default(),
            records_total: 10_000,
            records_detailed: 1_000,
            records_warmed: 9_000,
            records_skipped: 0,
            full_coverage: false,
        }
    }

    #[test]
    fn empty_run_has_zero_estimates() {
        let s = stats(vec![]);
        assert_eq!(s.mean_ipc(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn identical_windows_have_zero_width_interval() {
        let s = stats((0..8).map(|i| window(i, 2_000, 1_000)).collect());
        assert!((s.mean_ipc() - 2.0).abs() < 1e-12);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95(), (2.0, 2.0));
        assert!(s.ci95_contains(2.0));
        assert!(!s.ci95_contains(2.0001));
    }

    #[test]
    fn interval_widens_with_spread_and_narrows_with_count() {
        let spread = stats(vec![window(0, 1_000, 1_000), window(1, 3_000, 1_000)]);
        let tight = stats(vec![window(0, 1_900, 1_000), window(1, 2_100, 1_000)]);
        assert!(spread.ci95_half_width() > tight.ci95_half_width());

        let few = stats(
            (0..4)
                .map(|i| window(i, 2_000 + (i % 2) * 100, 1_000))
                .collect(),
        );
        let many = stats(
            (0..64)
                .map(|i| window(i, 2_000 + (i % 2) * 100, 1_000))
                .collect(),
        );
        assert!(many.ci95_half_width() < few.ci95_half_width());
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        assert!(t95(1) > t95(2));
        assert!(t95(29) > t95(30));
        assert_eq!(t95(31), 1.96);
        assert_eq!(t95(0), f64::INFINITY);
    }

    #[test]
    fn relative_error_and_fractions() {
        let s = stats(vec![window(0, 2_100, 1_000), window(1, 2_100, 1_000)]);
        assert!((s.relative_error(2.0) - 0.05).abs() < 1e-12);
        assert!((s.detailed_fraction() - 0.1).abs() < 1e-12);
    }
}
