//! The content-addressed result cache: cells in memory, spilled to disk
//! as RSSN session records.
//!
//! The unit of caching is one simulated **cell** — the numeric essence
//! a [`stable_csv_row`](resim_sweep::stable_csv_row) needs to re-render
//! byte-identically — keyed by
//! [`Scenario::cell_fingerprint`](resim_sweep::Scenario::cell_fingerprint):
//! a platform-stable FNV-1a hash over the engine and trace-generator
//! fingerprints, workload name, seed, budget and execution mode.
//! Content addressing means a renamed configuration or a moved trace
//! file still hits; any change to what is actually simulated misses.
//!
//! ## The on-disk entry
//!
//! A disk-backed cache writes each cell to `<16 hex digits>.rssn`, a
//! version-2 [`resim_session`] record: the submission's scenario text,
//! the cell's index in its
//! [`ScenarioDoc::to_scenario`](resim_sweep::ScenarioDoc::to_scenario)
//! grid, the cell's statistics, and a served-result section with the
//! trace density and IPC estimate its CSV row also needs. Every cached
//! cell is therefore a session that `resim replay` re-executes and
//! diffs field by field.
//!
//! The entry does not store its key. A read recomputes it with
//! [`cell_key`] from the record's fingerprints, workload, seed, budget
//! and mode, and rejects a record whose key is not its file name (a
//! renamed or cross-copied file). The record's checksum makes any
//! flipped or missing byte an error too. The cache treats a rejected
//! entry as a miss and **re-simulates honestly** rather than serving
//! damaged numbers (the restart-persistence test pins this). Entry
//! files of earlier builds, under another extension, are never looked
//! up: such a cache directory misses once per cell and refills.

use crate::protocol::fingerprint_hex;
use crate::recover;
use resim_core::SimStats;
use resim_session::{ServedResult, SessionError, SessionRecord};
use resim_sweep::{cell_key, Cell, CellMode, CellResult, Scenario};
use resim_trace::{TRACE_CONTAINER_VERSION, TRACE_LAYOUT_VERSION};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The numeric essence of one simulated cell — everything needed to
/// answer a resubmission without re-simulating, including re-rendering
/// its deterministic CSV row byte-identically — and what keys it.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCell {
    /// Fingerprint of the cell's engine configuration.
    pub engine_fingerprint: u64,
    /// Fingerprint of the cell's trace-generator configuration.
    pub tracegen_fingerprint: u64,
    /// Workload name.
    pub workload: String,
    /// Execution mode.
    pub mode: CellMode,
    /// Correct-path instruction budget.
    pub budget: u64,
    /// Workload seed.
    pub seed: u64,
    /// Trace density and, for an estimating cell, the IPC estimate.
    pub served: ServedResult,
    /// The cell's bit-exact simulated statistics.
    pub stats: SimStats,
}

impl CachedCell {
    /// Captures the runner's result `r` for `cell` of `scenario`.
    pub fn from_result(scenario: &Scenario, cell: &Cell, r: &CellResult) -> Self {
        let config = &scenario.configs()[cell.config];
        Self {
            engine_fingerprint: config.engine.fingerprint(),
            tracegen_fingerprint: config.tracegen.fingerprint(),
            workload: r.workload.clone(),
            mode: scenario.cell_mode(cell),
            budget: r.budget as u64,
            seed: r.seed,
            served: ServedResult {
                bits_per_instr: r.trace_stats.bits_per_instruction(),
                ipc_estimate: r.ipc_estimate(),
            },
            stats: r.stats,
        }
    }

    /// The content-addressed key this cell is stored under: the
    /// [`Scenario::cell_fingerprint`] of the cell it was captured from.
    pub fn key(&self) -> u64 {
        cell_key(
            self.engine_fingerprint,
            self.tracegen_fingerprint,
            &self.workload,
            self.seed,
            self.budget,
            &self.mode,
        )
    }

    /// Re-renders the cell's deterministic CSV row under a display
    /// name — the name is presentation, so it is the *caller's* (the
    /// submitting scenario's), not something the cache stores.
    pub fn stable_csv_row(&self, config: &str) -> String {
        resim_sweep::stable_csv_row(
            config,
            &self.workload,
            &self.mode.name(),
            self.budget,
            self.seed,
            &self.stats,
            self.served.ipc_estimate,
            self.served.bits_per_instr,
        )
    }

    /// The cell as the session of cell `cell_index` of the submission
    /// `scenario_toml`: the record a `resim record --cell` of that cell
    /// would write.
    pub fn to_session(&self, scenario_toml: &str, cell_index: usize) -> SessionRecord {
        SessionRecord {
            engine_fingerprint: self.engine_fingerprint,
            tracegen_fingerprint: self.tracegen_fingerprint,
            workload: self.workload.clone(),
            seed: self.seed,
            budget: self.budget,
            tool_version: concat!("resim-serve ", env!("CARGO_PKG_VERSION")).to_string(),
            trace_container_version: TRACE_CONTAINER_VERSION,
            trace_layout_version: TRACE_LAYOUT_VERSION,
            cell_index: Some(cell_index as u64),
            sample: self.mode.plan().copied(),
            scenario_toml: scenario_toml.to_string(),
            embedded_trace: None,
            stats: self.stats,
        }
    }

    /// The cell a stored session holds; its scenario text is dropped.
    fn from_session(rec: SessionRecord, served: ServedResult) -> Self {
        Self {
            engine_fingerprint: rec.engine_fingerprint,
            tracegen_fingerprint: rec.tracegen_fingerprint,
            workload: rec.workload,
            mode: rec.sample.into(),
            budget: rec.budget,
            seed: rec.seed,
            served,
            stats: rec.stats,
        }
    }
}

/// Why an on-disk entry was not served. Every reason is a *miss with a
/// reason*: the cache re-simulates and overwrites, it never serves or
/// propagates a damaged entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The file could not be read, or is not a valid session record.
    Session(SessionError),
    /// The record has no served-result section, so it cannot render a
    /// CSV row.
    NotServed,
    /// The record holds another cell than the key it was looked up
    /// under (a renamed or cross-copied entry file).
    KeyMismatch {
        /// Key the lookup asked for.
        expected: u64,
        /// Key recomputed from the record.
        found: u64,
    },
}

/// Where a [`ResultCache::lookup`] was answered from.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// Served from the in-process map.
    Memory(CachedCell),
    /// Served from a validated on-disk entry (now promoted to memory).
    Disk(CachedCell),
    /// Nothing cached under this key.
    Miss,
    /// An on-disk entry existed but failed validation; the caller must
    /// re-simulate. The damaged entry stays on disk until the fresh
    /// result overwrites it.
    Rejected(Rejection),
}

/// The content-addressed result cache: an in-memory map backed by one
/// session file per cell under the cache directory (when one is given),
/// so identical cells are answered without simulation across requests
/// *and* across server restarts.
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<u64, CachedCell>>,
}

impl ResultCache {
    /// A purely in-memory cache (nothing survives the process).
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            mem: Mutex::new(HashMap::new()),
        }
    }

    /// A cache spilling to `dir` (created if missing). A later cache
    /// constructed over the same directory serves this one's results.
    ///
    /// # Errors
    ///
    /// The directory-creation error.
    pub fn with_dir(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir: Some(dir),
            mem: Mutex::new(HashMap::new()),
        })
    }

    /// The cache directory, when the cache is disk-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        recover(self.mem.lock()).len()
    }

    /// Whether the in-memory map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The on-disk path of a key's entry (`<16 hex digits>.rssn`).
    pub fn entry_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.rssn", fingerprint_hex(key))))
    }

    /// Looks a cell up by key: memory first, then disk (a disk hit is
    /// validated and promoted to memory).
    pub fn lookup(&self, key: u64) -> Lookup {
        if let Some(cell) = recover(self.mem.lock()).get(&key) {
            return Lookup::Memory(cell.clone());
        }
        let Some(path) = self.entry_path(key) else {
            return Lookup::Miss;
        };
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => return Lookup::Rejected(Rejection::Session(SessionError::Io(e.kind()))),
        };
        let cell = match SessionRecord::from_bytes_served(&bytes) {
            Ok((rec, Some(served))) => CachedCell::from_session(rec, served),
            Ok((_, None)) => return Lookup::Rejected(Rejection::NotServed),
            Err(e) => return Lookup::Rejected(Rejection::Session(e)),
        };
        let found = cell.key();
        if found != key {
            return Lookup::Rejected(Rejection::KeyMismatch {
                expected: key,
                found,
            });
        }
        recover(self.mem.lock()).insert(key, cell.clone());
        Lookup::Disk(cell)
    }

    /// Stores a cell under its [`CachedCell::key`] in memory and, when
    /// disk-backed, on disk as cell `cell_index` of the submission
    /// `scenario_toml` ([`CachedCell::to_session`]). The file is written
    /// under a temporary name and renamed, so a crash mid-write never
    /// leaves a half entry under the real name. Memory keeps only the
    /// cell, never the scenario text.
    ///
    /// # Errors
    ///
    /// The disk write/rename error; the in-memory insert has already
    /// happened.
    pub fn insert(
        &self,
        cell: CachedCell,
        scenario_toml: &str,
        cell_index: usize,
    ) -> io::Result<()> {
        let key = cell.key();
        let spill = self.entry_path(key).map(|path| {
            let session = cell.to_session(scenario_toml, cell_index);
            (path, session.to_bytes_served(Some(&cell.served)))
        });
        recover(self.mem.lock()).insert(key, cell);
        if let Some((path, bytes)) = spill {
            let tmp = path.with_extension("rssn.tmp");
            fs::write(&tmp, &bytes)?;
            fs::rename(&tmp, &path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_sample::SamplePlan;

    const SCENARIO: &str = "[workload]\nname = \"gzip\"\n";

    fn cell(engine_fingerprint: u64) -> CachedCell {
        CachedCell {
            engine_fingerprint,
            tracegen_fingerprint: 0x1234,
            workload: "gzip".to_string(),
            mode: CellMode::Full,
            budget: 3_000,
            seed: 2009,
            served: ServedResult {
                bits_per_instr: 14.25,
                ipc_estimate: None,
            },
            stats: SimStats {
                cycles: 1_500,
                committed: 3_000,
                ..SimStats::default()
            },
        }
    }

    fn sampled_cell(engine_fingerprint: u64) -> CachedCell {
        let c = cell(engine_fingerprint);
        CachedCell {
            mode: CellMode::Sampled(SamplePlan::systematic(1000, 200, 1)),
            served: ServedResult {
                ipc_estimate: Some((1.875, 1.75, 2.0)),
                ..c.served
            },
            ..c
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("resim-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn csv_row_matches_the_runner_rendering() {
        let c = cell(1);
        let row = c.stable_csv_row("base");
        assert_eq!(
            row,
            "base,gzip,full,3000,2009,1500,3000,2.0000,,,0.0000,14.25\n"
        );
        let s = sampled_cell(1);
        let row = s.stable_csv_row("base");
        assert!(row.contains(",sampled-u1000d200k1f,"), "{row}");
        assert!(row.contains(",1.8750,1.7500,2.0000,"), "{row}");
    }

    #[test]
    fn entries_are_sessions_that_roundtrip() {
        for c in [cell(7), sampled_cell(7)] {
            let rec = c.to_session(SCENARIO, 3);
            assert_eq!(rec.cell_index, Some(3));
            assert_eq!(rec.scenario_toml, SCENARIO);
            assert_eq!(rec.sample.is_some(), matches!(c.mode, CellMode::Sampled(_)));
            let bytes = rec.to_bytes_served(Some(&c.served));
            let (back, served) = SessionRecord::from_bytes_served(&bytes).unwrap();
            let back = CachedCell::from_session(back, served.unwrap());
            assert_eq!(back, c);
            assert_eq!(back.key(), c.key());
        }
        assert_ne!(
            cell(7).key(),
            sampled_cell(7).key(),
            "mode is part of the key"
        );
    }

    #[test]
    fn memory_cache_hits_and_misses() {
        let cache = ResultCache::in_memory();
        assert!(cache.is_empty());
        let key = cell(9).key();
        assert_eq!(cache.lookup(key), Lookup::Miss);
        cache.insert(cell(9), SCENARIO, 0).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.lookup(key), Lookup::Memory(_)));
        assert_eq!(cache.lookup(cell(10).key()), Lookup::Miss);
        assert!(
            cache.entry_path(key).is_none(),
            "no disk behind in_memory()"
        );
    }

    #[test]
    fn disk_cache_survives_reconstruction() {
        let dir = temp_dir("disk");
        let (ab, cd) = (cell(0xAB), sampled_cell(0xCD));
        {
            let cache = ResultCache::with_dir(&dir).unwrap();
            cache.insert(ab.clone(), SCENARIO, 0).unwrap();
            let path = cache.entry_path(ab.key()).unwrap();
            assert_eq!(
                SessionRecord::load(&path).unwrap(),
                ab.to_session(SCENARIO, 0)
            );
        }
        // A fresh cache over the same directory serves the entry from
        // disk, then from memory.
        let cache = ResultCache::with_dir(&dir).unwrap();
        assert!(matches!(cache.lookup(ab.key()), Lookup::Disk(c) if c == ab));
        assert!(matches!(cache.lookup(ab.key()), Lookup::Memory(_)));
        // A tampered entry is rejected, not served.
        let path = cache.entry_path(ab.key()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let fresh = ResultCache::with_dir(&dir).unwrap();
        assert!(matches!(
            fresh.lookup(ab.key()),
            Lookup::Rejected(Rejection::Session(_))
        ));
        // An entry stored under the wrong name is caught by the
        // recomputed key.
        let cache2 = ResultCache::with_dir(&dir).unwrap();
        cache2.insert(cd.clone(), SCENARIO, 1).unwrap();
        fs::rename(
            cache2.entry_path(cd.key()).unwrap(),
            cache2.entry_path(0xEF).unwrap(),
        )
        .unwrap();
        let fresh = ResultCache::with_dir(&dir).unwrap();
        assert_eq!(
            fresh.lookup(0xEF),
            Lookup::Rejected(Rejection::KeyMismatch {
                expected: 0xEF,
                found: cd.key()
            })
        );
        // A valid session without a served result is not an entry.
        cd.to_session(SCENARIO, 1)
            .save(fresh.entry_path(cd.key()).unwrap())
            .unwrap();
        assert_eq!(
            fresh.lookup(cd.key()),
            Lookup::Rejected(Rejection::NotServed)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_map_keeps_serving() {
        let cache = ResultCache::in_memory();
        cache.insert(cell(1), SCENARIO, 0).unwrap();
        crate::poison(&cache.mem);

        assert!(matches!(cache.lookup(cell(1).key()), Lookup::Memory(c) if c == cell(1)));
        assert_eq!(cache.lookup(cell(2).key()), Lookup::Miss);
        cache.insert(cell(2), SCENARIO, 0).unwrap();
        assert!(matches!(cache.lookup(cell(2).key()), Lookup::Memory(_)));
        assert_eq!(cache.len(), 2);
    }
}
