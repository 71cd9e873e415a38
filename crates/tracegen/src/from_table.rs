//! TOML scenario-file construction of trace-generator configurations.
//!
//! Maps a `[tracegen]` table from a `resim` scenario file onto
//! [`TraceGenConfig`]. See `docs/guide.md` for the key reference.

use crate::TraceGenConfig;
use resim_bpred::PredictorConfig;
use resim_toml::{Error, Key, Kind, Table};

/// Largest accepted wrong-path block length. Each block is buffered
/// whole while the generator synthesizes it, so an unbounded length from
/// a scenario file would exhaust memory instead of failing as a
/// diagnostic.
const MAX_WRONG_PATH_LEN: u64 = 1 << 16;

/// Keys of a `[tracegen]` table.
pub const TRACEGEN_KEYS: &[Key] = &[
    Key("wrong_path_len", Kind::Int(1, MAX_WRONG_PATH_LEN)),
    Key("seed", Kind::U64),
    Key("predictor", Kind::Table),
];

impl TraceGenConfig {
    /// Builds a generator configuration from a `[tracegen]` table.
    ///
    /// Keys: [`TRACEGEN_KEYS`]; `wrong_path_len`'s conservative paper
    /// choice is RB + IFQ = 32, and the `predictor` sub-table is a
    /// [`PredictorConfig::from_table`]. Omitted keys keep the paper's
    /// reference values ([`TraceGenConfig::paper`]), and so does a
    /// `predictor` sub-table: it overrides the paper's two-level
    /// predictor, not the engine's. The CLI defaults the predictor to
    /// the engine's only when the sub-table is absent, keeping the
    /// wrong-path tags meaningful (§V.A).
    ///
    /// ```
    /// use resim_tracegen::TraceGenConfig;
    ///
    /// let t = resim_toml::parse(r#"
    /// wrong_path_len = 24
    /// seed = 0xFEED_5EED
    /// [predictor]
    /// kind = "perfect"
    /// "#).unwrap();
    /// let config = TraceGenConfig::from_table(&t).unwrap();
    /// assert_eq!(config.wrong_path_len, 24);
    /// assert_eq!(config.predictor, resim_bpred::PredictorConfig::perfect());
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for keys outside [`TRACEGEN_KEYS`] or
    /// their ranges, or predictor sub-table problems.
    pub fn from_table(t: &Table) -> Result<Self, Error> {
        t.check(TRACEGEN_KEYS)?;
        let base = TraceGenConfig::paper();
        let config = TraceGenConfig {
            predictor: match t.opt_table("predictor")? {
                Some(sub) => PredictorConfig::from_table(base.predictor, sub)?,
                None => base.predictor,
            },
            wrong_path_len: t
                .opt_usize("wrong_path_len")?
                .unwrap_or(base.wrong_path_len),
            seed: t.opt_u64("seed")?.unwrap_or(base.seed),
        };
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<TraceGenConfig, Error> {
        TraceGenConfig::from_table(&resim_toml::parse(s).unwrap())
    }

    #[test]
    fn empty_table_is_the_paper_generator() {
        assert_eq!(parse("").unwrap(), TraceGenConfig::paper());
    }

    #[test]
    fn overrides_apply() {
        let c = parse("wrong_path_len = 16\nseed = 7").unwrap();
        assert_eq!(c.wrong_path_len, 16);
        assert_eq!(c.seed, 7);
        assert_eq!(c.predictor, TraceGenConfig::paper().predictor);
    }

    #[test]
    fn predictor_sub_table() {
        let c = parse("[predictor]\nkind = \"perfect\"").unwrap();
        assert_eq!(c, TraceGenConfig::perfect());
    }

    #[test]
    fn problems_are_line_numbered() {
        assert_eq!(parse("\nwrong_path_len = 0").unwrap_err().line(), 2);
        assert!(parse("wrong_path_len = 65536").is_ok());
        assert_eq!(parse("\nwrong_path_len = 65537").unwrap_err().line(), 2);
        let err = parse("wrongpath = 3").unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
        assert!(parse("[predictor]\nkind = \"x\"").is_err());
    }

    #[test]
    fn fingerprint_tracks_parsed_fields() {
        let base = parse("").unwrap().fingerprint();
        assert_ne!(parse("seed = 1").unwrap().fingerprint(), base);
        assert_ne!(parse("wrong_path_len = 8").unwrap().fingerprint(), base);
        assert_ne!(
            parse("[predictor]\nkind = \"taken\"")
                .unwrap()
                .fingerprint(),
            base
        );
        assert_eq!(parse("").unwrap().fingerprint(), base, "deterministic");
    }
}
