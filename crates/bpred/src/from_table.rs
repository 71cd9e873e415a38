//! TOML scenario-file construction of predictor configurations.
//!
//! Maps a `[engine.predictor]` (or `[tracegen.predictor]`) table from a
//! `resim` scenario file onto [`PredictorConfig`], with every schema or
//! geometry problem reported as a line-numbered
//! [`resim_toml::Error`] instead of a panic deep inside the predictor
//! constructors. See `docs/guide.md` for the key reference.

use crate::btb::BtbConfig;
use crate::direction::{DirectionConfig, TwoLevelConfig};
use crate::predictor::PredictorConfig;
use resim_toml::{Error, Key, Kind, Table};

/// Largest accepted predictor or BTB table (entries). Every table is
/// allocated up front, so an unbounded size from a scenario file would
/// exhaust memory instead of failing as a diagnostic.
const MAX_TABLE_ENTRIES: u64 = 1 << 24;

/// Largest accepted return-address stack depth.
const MAX_RAS_ENTRIES: u64 = 1 << 16;

/// Keys of a `[engine.predictor]` table common to every kind.
pub const PREDICTOR_KEYS: &[Key] = &[
    Key("kind", Kind::Str),
    Key("btb_entries", Kind::Pow2(1, MAX_TABLE_ENTRIES)),
    Key("btb_associativity", Kind::Pow2(1, MAX_TABLE_ENTRIES)),
    Key("ras_entries", Kind::Int(1, MAX_RAS_ENTRIES)),
];

/// The extra keys of `kind = "bimodal"`.
pub const BIMODAL_KEYS: &[Key] = &[Key("size", Kind::Pow2(1, MAX_TABLE_ENTRIES))];

/// The extra keys of `kind = "two-level"`.
pub const TWO_LEVEL_KEYS: &[Key] = &[
    Key("l1_size", Kind::Pow2(1, MAX_TABLE_ENTRIES)),
    Key("history_bits", Kind::Int(1, 16)),
    Key("l2_size", Kind::Pow2(1, MAX_TABLE_ENTRIES)),
    Key("xor", Kind::Bool),
    Key("counter_bits", Kind::Int(1, 8)),
];

/// The extra keys of `kind = "gshare"`.
pub const GSHARE_KEYS: &[Key] = &[
    Key("history_bits", Kind::Int(1, 16)),
    Key("pht_size", Kind::Pow2(1, MAX_TABLE_ENTRIES)),
];

impl PredictorConfig {
    /// Builds a predictor configuration from a scenario-file table.
    ///
    /// `kind` selects the direction predictor — `"perfect"`, `"taken"`,
    /// `"not-taken"`, `"bimodal"` ([`BIMODAL_KEYS`]), `"two-level"`
    /// ([`TWO_LEVEL_KEYS`]) or `"gshare"` ([`GSHARE_KEYS`]) —
    /// defaulting to the paper's two-level scheme; [`PREDICTOR_KEYS`]
    /// apply to every kind. Omitted keys keep the paper's reference
    /// values ([`PredictorConfig::paper_two_level`]).
    ///
    /// ```
    /// use resim_bpred::{DirectionConfig, PredictorConfig};
    ///
    /// let t = resim_toml::parse(r#"
    /// kind = "gshare"
    /// history_bits = 12
    /// pht_size = 4096
    /// btb_entries = 1024
    /// "#).unwrap();
    /// let config = PredictorConfig::from_table(&t).unwrap();
    /// assert_eq!(config.btb.entries, 1024);
    /// assert!(matches!(config.direction, DirectionConfig::TwoLevel(t) if t.xor));
    ///
    /// // Geometry problems are line-numbered diagnostics, not panics.
    /// let t = resim_toml::parse("kind = \"bimodal\"\nsize = 1000").unwrap();
    /// assert_eq!(PredictorConfig::from_table(&t).unwrap_err().line(), 2);
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for keys that do not apply to the
    /// selected kind, values outside their key table's range, or a BTB
    /// with more ways than entries.
    pub fn from_table(t: &Table) -> Result<Self, Error> {
        type Direction = fn(&Table) -> Result<DirectionConfig, Error>;
        let kind = t.opt_str("kind")?.unwrap_or("two-level");
        let (extra, direction): (&[Key], Direction) = match kind {
            "perfect" => (&[], |_| Ok(DirectionConfig::Perfect)),
            "taken" => (&[], |_| Ok(DirectionConfig::Taken)),
            "not-taken" => (&[], |_| Ok(DirectionConfig::NotTaken)),
            "bimodal" => (BIMODAL_KEYS, |t| {
                let size = t.opt_usize("size")?.unwrap_or(2048);
                Ok(DirectionConfig::Bimodal { size })
            }),
            "two-level" => (TWO_LEVEL_KEYS, |t| {
                let paper = TwoLevelConfig::paper();
                Ok(DirectionConfig::TwoLevel(TwoLevelConfig {
                    l1_size: t.opt_usize("l1_size")?.unwrap_or(paper.l1_size),
                    history_bits: t.opt_u32("history_bits")?.unwrap_or(paper.history_bits),
                    l2_size: t.opt_usize("l2_size")?.unwrap_or(paper.l2_size),
                    xor: t.opt_bool("xor")?.unwrap_or(paper.xor),
                    counter_bits: t.opt_u32("counter_bits")?.unwrap_or(paper.counter_bits),
                }))
            }),
            "gshare" => (GSHARE_KEYS, |t| {
                let history = t.opt_u32("history_bits")?.unwrap_or(12);
                let pht = t.opt_usize("pht_size")?.unwrap_or(4096);
                Ok(DirectionConfig::TwoLevel(TwoLevelConfig::gshare(
                    history, pht,
                )))
            }),
            other => {
                return Err(Error::new(
                    t.key_line("kind"),
                    format!(
                        "unknown predictor kind {other:?} (expected perfect, taken, \
                         not-taken, bimodal, two-level or gshare)"
                    ),
                ))
            }
        };
        t.check(&[PREDICTOR_KEYS, extra].concat())?;
        let mut config = PredictorConfig::paper_two_level();
        config.direction = direction(t)?;
        let btb = BtbConfig {
            entries: t.opt_usize("btb_entries")?.unwrap_or(config.btb.entries),
            associativity: t
                .opt_usize("btb_associativity")?
                .unwrap_or(config.btb.associativity),
        };
        if btb.associativity > btb.entries {
            return Err(Error::new(
                t.key_line("btb_associativity"),
                format!(
                    "btb_associativity {} exceeds btb_entries {}",
                    btb.associativity, btb.entries
                ),
            ));
        }
        config.btb = btb;
        config.ras_entries = t.opt_usize("ras_entries")?.unwrap_or(config.ras_entries);
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<PredictorConfig, Error> {
        PredictorConfig::from_table(&resim_toml::parse(s).unwrap())
    }

    #[test]
    fn empty_table_is_the_paper_predictor() {
        assert_eq!(parse("").unwrap(), PredictorConfig::paper_two_level());
    }

    #[test]
    fn every_kind_parses() {
        assert_eq!(
            parse("kind = \"perfect\"").unwrap().direction,
            DirectionConfig::Perfect
        );
        assert_eq!(
            parse("kind = \"taken\"").unwrap().direction,
            DirectionConfig::Taken
        );
        assert_eq!(
            parse("kind = \"not-taken\"").unwrap().direction,
            DirectionConfig::NotTaken
        );
        assert_eq!(
            parse("kind = \"bimodal\"\nsize = 512").unwrap().direction,
            DirectionConfig::Bimodal { size: 512 }
        );
        let two = parse("kind = \"two-level\"\nhistory_bits = 10\nl2_size = 1024").unwrap();
        assert_eq!(
            two.direction,
            DirectionConfig::TwoLevel(TwoLevelConfig {
                history_bits: 10,
                l2_size: 1024,
                ..TwoLevelConfig::paper()
            })
        );
        assert_eq!(
            parse("kind = \"gshare\"").unwrap().direction,
            DirectionConfig::TwoLevel(TwoLevelConfig::gshare(12, 4096))
        );
    }

    #[test]
    fn common_keys_apply_to_all_kinds() {
        let c = parse("kind = \"perfect\"\nbtb_entries = 64\nras_entries = 4").unwrap();
        assert_eq!(c.btb.entries, 64);
        assert_eq!(c.ras_entries, 4);
    }

    #[test]
    fn inapplicable_keys_are_rejected() {
        let err = parse("kind = \"perfect\"\nl1_size = 4").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("unknown key"), "{err}");
        assert!(parse("kind = \"gshare\"\nsize = 4").is_err());
    }

    #[test]
    fn geometry_is_checked_with_lines() {
        assert_eq!(
            parse("kind = \"bimodal\"\nsize = 1000").unwrap_err().line(),
            2
        );
        assert!(parse("l2_size = 1000")
            .unwrap_err()
            .to_string()
            .contains("power of two"));
        assert!(parse("history_bits = 17")
            .unwrap_err()
            .to_string()
            .contains("exceeds the maximum of 16"));
        assert!(parse("counter_bits = 0")
            .unwrap_err()
            .to_string()
            .contains("at least 1"));
        assert!(parse("btb_entries = 100").is_err());
        assert!(parse("btb_associativity = 4\nbtb_entries = 2")
            .unwrap_err()
            .to_string()
            .contains("exceeds"));
        assert!(parse("ras_entries = 0")
            .unwrap_err()
            .to_string()
            .contains("at least 1"));
        assert!(
            parse("kind = \"gshare\"\npht_size = 100")
                .unwrap_err()
                .line()
                == 2
        );
        // Size bounds: the largest accepted value passes, one step over
        // fails at its line.
        assert!(parse("btb_entries = 16777216\nl2_size = 16777216\nras_entries = 65536").is_ok());
        assert_eq!(parse("\nbtb_entries = 33554432").unwrap_err().line(), 2);
        assert!(parse("l2_size = 33554432")
            .unwrap_err()
            .to_string()
            .contains("maximum"));
        assert!(parse("ras_entries = 65537")
            .unwrap_err()
            .to_string()
            .contains("maximum"));
    }

    #[test]
    fn unknown_kind_is_rejected_at_its_line() {
        let err = parse("\nkind = \"neural\"").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("neural"));
    }

    #[test]
    fn parsed_configs_instantiate() {
        // The real constructors assert geometry; a from_table success must
        // never panic downstream.
        for s in [
            "",
            "kind = \"perfect\"",
            "kind = \"bimodal\"\nsize = 256",
            "kind = \"gshare\"\nhistory_bits = 8\npht_size = 256",
            "btb_entries = 32\nbtb_associativity = 2\nras_entries = 1",
        ] {
            let config = parse(s).unwrap();
            let _ = crate::BranchPredictor::new(config);
        }
    }
}
