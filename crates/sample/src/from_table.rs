//! TOML scenario-file construction of sampling plans.
//!
//! Maps a `[sample]` table from a `resim` scenario file onto
//! [`SamplePlan`]. See `docs/guide.md` for the key reference.

use crate::plan::{SamplePlan, WarmupMode};
use resim_toml::{Error, Table};

impl SamplePlan {
    /// Builds a sampling plan from a `[sample]` table.
    ///
    /// Keys: `interval` (records per interval, required), `detailed`
    /// (detailed-window records, required), `period` (sample every
    /// n-th interval, default 1), `offset` (which interval within the
    /// period, default 0), `warmup` (`"functional"`, the default, or
    /// `"bounded"`) and `warmup_records` (required with — and only
    /// meaningful for — bounded warmup).
    ///
    /// The plan is validated ([`SamplePlan::validate`]), so a table
    /// that parses is a plan [`run_sampled`](crate::run_sampled)
    /// accepts.
    ///
    /// ```
    /// use resim_sample::{SamplePlan, WarmupMode};
    ///
    /// let t = resim_toml::parse(r#"
    /// interval = 4000
    /// detailed = 1000
    /// period = 2
    /// warmup = "bounded"
    /// warmup_records = 500
    /// "#).unwrap();
    /// let plan = SamplePlan::from_table(&t).unwrap();
    /// assert_eq!(plan.warmup, WarmupMode::Bounded(500));
    /// assert!((plan.coverage() - 0.125).abs() < 1e-12);
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for unknown keys, a missing
    /// `interval`/`detailed`, an unknown warmup mode, `warmup_records`
    /// without bounded warmup, or a plan failing validation (e.g. a
    /// detailed window longer than the interval).
    pub fn from_table(t: &Table) -> Result<Self, Error> {
        t.ensure_only(&[
            "interval",
            "detailed",
            "period",
            "offset",
            "warmup",
            "warmup_records",
        ])?;
        let warmup = match t.opt_str("warmup")?.unwrap_or("functional") {
            "functional" => {
                if t.get("warmup_records").is_some() {
                    return Err(Error::new(
                        t.key_line("warmup_records"),
                        "warmup_records only applies to warmup = \"bounded\"",
                    ));
                }
                WarmupMode::Functional
            }
            "bounded" => match t.opt_u64("warmup_records")? {
                Some(n) => WarmupMode::Bounded(n),
                None => {
                    return Err(Error::new(
                        t.key_line("warmup"),
                        "warmup = \"bounded\" requires warmup_records",
                    ))
                }
            },
            other => {
                return Err(Error::new(
                    t.key_line("warmup"),
                    format!("unknown warmup mode {other:?} (expected functional or bounded)"),
                ))
            }
        };
        let plan = SamplePlan {
            interval_records: t.req_u64("interval")?,
            detailed_records: t.req_u64("detailed")?,
            period: t.opt_u64("period")?.unwrap_or(1),
            offset: t.opt_u64("offset")?.unwrap_or(0),
            warmup,
        };
        plan.validate()
            .map_err(|e| Error::new(t.line(), format!("invalid sample plan: {e}")))?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<SamplePlan, Error> {
        SamplePlan::from_table(&resim_toml::parse(s).unwrap())
    }

    #[test]
    fn minimal_plan_is_full_coverage() {
        let p = parse("interval = 1000\ndetailed = 1000").unwrap();
        assert!(p.is_full_coverage());
        assert_eq!(p.warmup, WarmupMode::Functional);
    }

    #[test]
    fn systematic_plan_with_offset() {
        let p = parse("interval = 100\ndetailed = 10\nperiod = 4\noffset = 2").unwrap();
        assert_eq!(p, SamplePlan::systematic(100, 10, 4).with_offset(2));
    }

    #[test]
    fn required_keys_are_reported() {
        assert!(parse("detailed = 10")
            .unwrap_err()
            .to_string()
            .contains("interval"));
        assert!(parse("interval = 10")
            .unwrap_err()
            .to_string()
            .contains("detailed"));
    }

    #[test]
    fn warmup_modes() {
        assert!(parse("interval = 10\ndetailed = 5\nwarmup = \"bounded\"")
            .unwrap_err()
            .to_string()
            .contains("warmup_records"));
        // A present-but-invalid value keeps its precise diagnostic.
        let err = parse("interval = 10\ndetailed = 5\nwarmup = \"bounded\"\nwarmup_records = -1")
            .unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");
        assert_eq!(err.line(), 4);
        assert!(parse("interval = 10\ndetailed = 5\nwarmup_records = 3")
            .unwrap_err()
            .to_string()
            .contains("only applies"));
        assert!(parse("interval = 10\ndetailed = 5\nwarmup = \"oracle\"")
            .unwrap_err()
            .to_string()
            .contains("oracle"));
    }

    #[test]
    fn plan_validation_runs_with_table_context() {
        let err = parse("interval = 10\ndetailed = 20").unwrap_err();
        assert!(err.to_string().contains("exceeds the interval"), "{err}");
        assert!(parse("interval = 10\ndetailed = 5\nperiod = 2\noffset = 2").is_err());
    }

    #[test]
    fn unknown_keys_rejected() {
        let err = parse("interval = 10\ndetailed = 5\nintervall = 2").unwrap_err();
        assert_eq!(err.line(), 3);
    }
}
