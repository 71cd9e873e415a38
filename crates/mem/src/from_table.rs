//! TOML scenario-file construction of memory-system configurations.
//!
//! Maps an `[engine.memory]` table from a `resim` scenario file onto
//! [`MemorySystemConfig`], with geometry problems reported as
//! line-numbered [`resim_toml::Error`]s instead of panics inside the
//! cache constructors. See `docs/guide.md` for the key reference.

use crate::cache::{CacheConfig, Replacement};
use crate::system::MemorySystemConfig;
use resim_toml::{Error, Table};

/// Largest accepted cache capacity in bytes. The tag arrays are
/// allocated up front, so an unbounded size from a scenario file would
/// exhaust memory instead of failing as a diagnostic.
const MAX_CACHE_BYTES: usize = 1 << 30;

impl CacheConfig {
    /// Builds one cache geometry from a scenario-file table
    /// (`[engine.memory.l1i]` / `[engine.memory.l1d]`).
    ///
    /// Keys: `size_bytes`, `block_bytes`, `associativity`,
    /// `replacement` (`"lru"`, `"fifo"` or `"random"`), `hit_latency`,
    /// `miss_penalty`. Omitted keys keep the paper's 32 KB 8-way 64 B
    /// values ([`CacheConfig::l1_32k`]).
    ///
    /// ```
    /// use resim_mem::CacheConfig;
    ///
    /// let t = resim_toml::parse("size_bytes = 16384\nassociativity = 2").unwrap();
    /// let c = CacheConfig::from_table(&t).unwrap();
    /// assert_eq!((c.size_bytes, c.associativity, c.block_bytes), (16384, 2, 64));
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for unknown keys or invalid geometry
    /// (non-power-of-two sizes, a capacity over 2^30 bytes, blocks under
    /// 4 bytes, a capacity that cannot hold one set, a zero hit latency).
    pub fn from_table(t: &Table) -> Result<Self, Error> {
        t.ensure_only(&[
            "size_bytes",
            "block_bytes",
            "associativity",
            "replacement",
            "hit_latency",
            "miss_penalty",
        ])?;
        let base = CacheConfig::l1_32k();
        let config = CacheConfig {
            size_bytes: t.opt_usize("size_bytes")?.unwrap_or(base.size_bytes),
            block_bytes: t.opt_usize("block_bytes")?.unwrap_or(base.block_bytes),
            associativity: t.opt_usize("associativity")?.unwrap_or(base.associativity),
            replacement: match t.opt_str("replacement")? {
                None => base.replacement,
                Some("lru") => Replacement::Lru,
                Some("fifo") => Replacement::Fifo,
                Some("random") => Replacement::Random,
                Some(other) => {
                    return Err(Error::new(
                        t.key_line("replacement"),
                        format!(
                            "unknown replacement policy {other:?} (expected lru, fifo or random)"
                        ),
                    ))
                }
            },
            hit_latency: t.opt_u32("hit_latency")?.unwrap_or(base.hit_latency),
            miss_penalty: t.opt_u32("miss_penalty")?.unwrap_or(base.miss_penalty),
        };
        let pow2 = |key: &str, v: usize| -> Result<(), Error> {
            if v == 0 || !v.is_power_of_two() {
                return Err(Error::new(
                    t.key_line(key),
                    format!("key {key:?}: {v} must be a power of two"),
                ));
            }
            Ok(())
        };
        pow2("size_bytes", config.size_bytes)?;
        if config.size_bytes > MAX_CACHE_BYTES {
            return Err(Error::new(
                t.key_line("size_bytes"),
                format!(
                    "key \"size_bytes\": {} exceeds the maximum of {MAX_CACHE_BYTES}",
                    config.size_bytes
                ),
            ));
        }
        pow2("block_bytes", config.block_bytes)?;
        pow2("associativity", config.associativity)?;
        if config.block_bytes < 4 {
            return Err(Error::new(
                t.key_line("block_bytes"),
                "block_bytes must be at least 4",
            ));
        }
        let set_bytes = config.block_bytes.checked_mul(config.associativity);
        if set_bytes.is_none_or(|set| config.size_bytes < set) {
            return Err(Error::new(
                t.key_line("size_bytes"),
                format!(
                    "cache of {} bytes cannot hold {} ways of {}-byte blocks",
                    config.size_bytes, config.associativity, config.block_bytes
                ),
            ));
        }
        if config.hit_latency == 0 {
            return Err(Error::new(
                t.key_line("hit_latency"),
                "hit_latency must be at least 1",
            ));
        }
        Ok(config)
    }
}

impl MemorySystemConfig {
    /// Builds a memory system from a scenario-file table
    /// (`[engine.memory]`).
    ///
    /// `kind` selects `"perfect"` (key `latency`, default 1) or
    /// `"split"` (sub-tables `l1i` / `l1d`, each a
    /// [`CacheConfig::from_table`] with the paper's 32 KB geometry as
    /// default). An absent table means perfect single-cycle memory.
    ///
    /// ```
    /// use resim_mem::MemorySystemConfig;
    ///
    /// let t = resim_toml::parse(r#"
    /// kind = "split"
    /// [l1d]
    /// size_bytes = 8192
    /// "#).unwrap();
    /// let m = MemorySystemConfig::from_table(&t).unwrap();
    /// assert!(matches!(m, MemorySystemConfig::Split { l1d, .. } if l1d.size_bytes == 8192));
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for unknown keys, an unknown `kind`,
    /// cache keys under `kind = "perfect"`, or invalid cache geometry.
    pub fn from_table(t: &Table) -> Result<Self, Error> {
        let kind = t.opt_str("kind")?.unwrap_or("perfect");
        match kind {
            "perfect" => {
                t.ensure_only(&["kind", "latency"])?;
                let latency = t.opt_u32("latency")?.unwrap_or(1);
                if latency == 0 {
                    return Err(Error::new(
                        t.key_line("latency"),
                        "latency must be at least 1",
                    ));
                }
                Ok(MemorySystemConfig::Perfect { latency })
            }
            "split" => {
                t.ensure_only(&["kind", "l1i", "l1d"])?;
                let cache = |key: &str| -> Result<CacheConfig, Error> {
                    match t.opt_table(key)? {
                        Some(sub) => CacheConfig::from_table(sub),
                        None => Ok(CacheConfig::l1_32k()),
                    }
                };
                Ok(MemorySystemConfig::Split {
                    l1i: cache("l1i")?,
                    l1d: cache("l1d")?,
                })
            }
            other => Err(Error::new(
                t.key_line("kind"),
                format!("unknown memory kind {other:?} (expected perfect or split)"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<MemorySystemConfig, Error> {
        MemorySystemConfig::from_table(&resim_toml::parse(s).unwrap())
    }

    #[test]
    fn empty_table_is_perfect_single_cycle() {
        assert_eq!(parse("").unwrap(), MemorySystemConfig::perfect());
    }

    #[test]
    fn perfect_with_latency() {
        assert_eq!(
            parse("kind = \"perfect\"\nlatency = 3").unwrap(),
            MemorySystemConfig::Perfect { latency: 3 }
        );
        assert!(parse("latency = 0")
            .unwrap_err()
            .to_string()
            .contains("at least 1"));
    }

    #[test]
    fn split_defaults_to_paper_l1() {
        assert_eq!(
            parse("kind = \"split\"").unwrap(),
            MemorySystemConfig::l1_32k()
        );
    }

    #[test]
    fn split_with_custom_geometry() {
        let m = parse(
            "kind = \"split\"\n[l1i]\nsize_bytes = 16384\n[l1d]\nassociativity = 2\nreplacement = \"fifo\"",
        )
        .unwrap();
        let MemorySystemConfig::Split { l1i, l1d } = m else {
            panic!("expected split");
        };
        assert_eq!(l1i.size_bytes, 16384);
        assert_eq!(l1d.associativity, 2);
        assert_eq!(l1d.replacement, Replacement::Fifo);
        assert_eq!(
            l1d.size_bytes,
            32 * 1024,
            "unset keys keep the paper geometry"
        );
    }

    #[test]
    fn cache_keys_under_perfect_are_rejected() {
        let err = parse("kind = \"perfect\"\n[l1i]\nsize_bytes = 1024").unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
    }

    #[test]
    fn geometry_errors_carry_lines() {
        let err = parse("kind = \"split\"\n[l1d]\nsize_bytes = 1000").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("power of two"));
        assert!(parse("kind = \"split\"\n[l1d]\nblock_bytes = 2").is_err());
        assert!(parse("kind = \"split\"\n[l1d]\nhit_latency = 0").is_err());
        assert!(parse(
            "kind = \"split\"\n[l1d]\nsize_bytes = 64\nblock_bytes = 64\nassociativity = 2"
        )
        .unwrap_err()
        .to_string()
        .contains("cannot hold"));
        assert!(parse("kind = \"split\"\n[l1d]\nreplacement = \"plru\"").is_err());
        assert!(parse("kind = \"split\"\n[l1d]\nsize_bytes = 1073741824").is_ok());
        let err = parse("kind = \"split\"\n[l1d]\nsize_bytes = 2147483648").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("maximum"), "{err}");
        // A block × ways product that overflows is a diagnostic too.
        let huge = 1usize << 62;
        assert!(parse(&format!(
            "kind = \"split\"\n[l1d]\nblock_bytes = {huge}\nassociativity = {huge}"
        ))
        .unwrap_err()
        .to_string()
        .contains("cannot hold"));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let err = parse("kind = \"numa\"").unwrap_err();
        assert!(err.to_string().contains("numa"));
    }

    #[test]
    fn parsed_configs_instantiate() {
        for s in [
            "",
            "kind = \"split\"",
            "kind = \"split\"\n[l1i]\nsize_bytes = 4096\nassociativity = 1",
        ] {
            let _ = crate::MemorySystem::new(parse(s).unwrap());
        }
    }
}
