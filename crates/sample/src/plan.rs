//! Sampling plans: which slices of a trace run in detail.

use std::error::Error;
use std::fmt;

/// How the records between detailed windows are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarmupMode {
    /// Functionally warm **every** record between windows: branch tables,
    /// BTB/RAS and cache tag arrays track the whole committed stream
    /// (SMARTS's "functional warming" — highest fidelity, no skipping).
    Functional,
    /// Fast-forward with [`TraceSource::skip`](resim_trace::TraceSource::skip)
    /// and functionally warm only the last `n` records before each
    /// detailed window. Cheaper per gap; fidelity rests on `n` covering
    /// the warm state's history depth (predictor histories are short;
    /// cache tags are the binding constraint).
    Bounded(u64),
}

/// A systematic (SMARTS-style) sampling plan over a record stream.
///
/// The trace is divided into consecutive intervals of
/// [`interval_records`](SamplePlan::interval_records). Interval `i` is
/// *sampled* when `i % period == offset`; a sampled interval opens with a
/// detailed window of [`detailed_records`](SamplePlan::detailed_records)
/// cycle-accurate records, and everything else is warmup (per
/// [`WarmupMode`]).
///
/// `coverage = detailed / (interval × period)` is the detailed fraction;
/// a plan with `period == 1` and `detailed == interval` covers 100 % and
/// [`run_sampled`](crate::run_sampled) then reproduces
/// [`Engine::run`](resim_core::Engine::run) bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplePlan {
    /// Interval length in trace records.
    pub interval_records: u64,
    /// Detailed-window length at the head of each sampled interval
    /// (≤ `interval_records`).
    pub detailed_records: u64,
    /// Sample every `period`-th interval (≥ 1).
    pub period: u64,
    /// Which interval within each period is sampled (< `period`).
    pub offset: u64,
    /// Treatment of the gap records between detailed windows.
    pub warmup: WarmupMode,
}

impl SamplePlan {
    /// A systematic plan: detail the first `detailed` records of every
    /// `period`-th interval, functionally warming the rest.
    pub fn systematic(interval: u64, detailed: u64, period: u64) -> Self {
        Self {
            interval_records: interval,
            detailed_records: detailed,
            period,
            offset: 0,
            warmup: WarmupMode::Functional,
        }
    }

    /// The 100 %-coverage plan: every interval fully detailed. Runs the
    /// engine contiguously (no warm-state hand-off) and is bit-identical to one
    /// `Engine::run`, while still reporting per-interval window IPCs.
    pub fn full_coverage(interval: u64) -> Self {
        Self::systematic(interval, interval, 1)
    }

    /// Replaces the warmup mode.
    pub fn with_warmup(self, warmup: WarmupMode) -> Self {
        Self { warmup, ..self }
    }

    /// Replaces the sampling offset.
    pub fn with_offset(self, offset: u64) -> Self {
        Self { offset, ..self }
    }

    /// Checks the plan is runnable.
    ///
    /// # Errors
    ///
    /// The first [`PlanError`] found.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.interval_records == 0 {
            return Err(PlanError::ZeroInterval);
        }
        if self.detailed_records == 0 {
            return Err(PlanError::ZeroDetailed);
        }
        if self.detailed_records > self.interval_records {
            return Err(PlanError::DetailedExceedsInterval {
                detailed: self.detailed_records,
                interval: self.interval_records,
            });
        }
        if self.period == 0 {
            return Err(PlanError::ZeroPeriod);
        }
        if self.offset >= self.period {
            return Err(PlanError::OffsetOutOfRange {
                offset: self.offset,
                period: self.period,
            });
        }
        Ok(())
    }

    /// Detailed fraction of the trace this plan simulates cycle-accurately.
    pub fn coverage(&self) -> f64 {
        self.detailed_records as f64 / (self.interval_records * self.period) as f64
    }

    /// Whether every record is detailed (the bit-identical fast path).
    pub fn is_full_coverage(&self) -> bool {
        self.period == 1 && self.detailed_records >= self.interval_records
    }

    /// Whether interval `i` opens with a detailed window.
    pub fn is_sampled(&self, interval: u64) -> bool {
        interval % self.period == self.offset
    }

    /// A compact display name (used by sweep reports):
    /// `u<interval>d<detailed>k<period>[+offset][f|b<n>]`.
    pub fn name(&self) -> String {
        let mut s = format!(
            "u{}d{}k{}",
            self.interval_records, self.detailed_records, self.period
        );
        if self.offset != 0 {
            s.push_str(&format!("+{}", self.offset));
        }
        match self.warmup {
            WarmupMode::Functional => s.push('f'),
            WarmupMode::Bounded(n) => s.push_str(&format!("b{n}")),
        }
        s
    }
}

/// Reasons a [`SamplePlan`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// Interval length is zero.
    ZeroInterval,
    /// Detailed-window length is zero.
    ZeroDetailed,
    /// The detailed window is longer than the interval.
    DetailedExceedsInterval {
        /// Requested window length.
        detailed: u64,
        /// Interval length.
        interval: u64,
    },
    /// Sampling period is zero.
    ZeroPeriod,
    /// Offset does not fall inside the period.
    OffsetOutOfRange {
        /// Requested offset.
        offset: u64,
        /// Sampling period.
        period: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ZeroInterval => write!(f, "interval length must be non-zero"),
            PlanError::ZeroDetailed => write!(f, "detailed window must be non-zero"),
            PlanError::DetailedExceedsInterval { detailed, interval } => write!(
                f,
                "detailed window ({detailed}) exceeds the interval ({interval})"
            ),
            PlanError::ZeroPeriod => write!(f, "sampling period must be non-zero"),
            PlanError::OffsetOutOfRange { offset, period } => {
                write!(f, "offset {offset} outside period {period}")
            }
        }
    }
}

impl Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn systematic_plan_geometry() {
        let p = SamplePlan::systematic(10_000, 1_000, 10);
        assert!(p.validate().is_ok());
        assert!((p.coverage() - 0.01).abs() < 1e-12);
        assert!(!p.is_full_coverage());
        assert!(p.is_sampled(0));
        assert!(!p.is_sampled(1));
        assert!(p.is_sampled(10));
        assert_eq!(p.name(), "u10000d1000k10f");
    }

    #[test]
    fn full_coverage_plan() {
        let p = SamplePlan::full_coverage(5_000);
        assert!(p.validate().is_ok());
        assert!(p.is_full_coverage());
        assert!((p.coverage() - 1.0).abs() < 1e-12);
        for i in 0..20 {
            assert!(p.is_sampled(i));
        }
    }

    #[test]
    fn offset_and_warmup_builders() {
        let p = SamplePlan::systematic(100, 10, 4)
            .with_offset(2)
            .with_warmup(WarmupMode::Bounded(30));
        assert!(p.validate().is_ok());
        assert!(!p.is_sampled(0));
        assert!(p.is_sampled(2));
        assert!(p.is_sampled(6));
        assert_eq!(p.name(), "u100d10k4+2b30");
    }

    #[test]
    fn validation_catches_degenerate_plans() {
        assert_eq!(
            SamplePlan::systematic(0, 1, 1).validate(),
            Err(PlanError::ZeroInterval)
        );
        assert_eq!(
            SamplePlan::systematic(10, 0, 1).validate(),
            Err(PlanError::ZeroDetailed)
        );
        assert!(matches!(
            SamplePlan::systematic(10, 11, 1).validate(),
            Err(PlanError::DetailedExceedsInterval { .. })
        ));
        assert_eq!(
            SamplePlan {
                period: 0,
                ..SamplePlan::systematic(10, 5, 1)
            }
            .validate(),
            Err(PlanError::ZeroPeriod)
        );
        assert!(matches!(
            SamplePlan::systematic(10, 5, 2).with_offset(2).validate(),
            Err(PlanError::OffsetOutOfRange { .. })
        ));
    }
}
