//! The content-addressed result cache: RSCE entries in memory, spilled
//! to disk.
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
//! ## The RSCE entry (version 1)
//!
//! All integers little-endian; strings are UTF-8 with a u16 length
//! prefix; floats are stored as their IEEE-754 bit patterns.
//!
//! | field            | size          | notes                                   |
//! |------------------|---------------|-----------------------------------------|
//! | magic            | 4             | `"RSCE"`                                |
//! | version          | u16           | [`CACHE_VERSION`]                       |
//! | flags            | u16           | bit 0: IPC-estimate triple present      |
//! | cell fingerprint | u64           | echoed; a renamed entry file is caught  |
//! | seed             | u64           | workload seed                           |
//! | budget           | u64           | correct-path instruction budget         |
//! | workload         | u16 + n       | workload name                           |
//! | mode             | u16 + n       | `"full"` / `"sampled-…"`                |
//! | bits_per_instr   | u64           | trace density, f64 bits                 |
//! | IPC estimate     | 3×u64         | mean/lo/hi f64 bits, only when flagged  |
//! | stats arity      | u16           | must equal [`SIM_STATS_FIELDS`] length  |
//! | stats words      | 42×u64        | [`SimStats::to_words`] order            |
//! | stats digest     | u64           | [`SimStats::digest`], cross-checked     |
//! | entry checksum   | u64           | FNV-1a over every preceding byte        |
//!
//! The trailing whole-entry checksum makes any flipped or missing byte
//! a typed [`CacheEntryError`]; the cache treats a rejected entry as a
//! miss and **re-simulates honestly** rather than serving damaged
//! numbers (the restart-persistence test pins this).

use crate::protocol::fingerprint_hex;
use crate::recover;
use resim_core::{Fnv64, SimStats, SIM_STATS_FIELDS};
use resim_sweep::CellResult;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The four magic bytes opening every cache entry.
pub const CACHE_MAGIC: [u8; 4] = *b"RSCE";

/// Newest entry version this build reads and writes.
pub const CACHE_VERSION: u16 = 1;

/// Flag bit 0: the cell's IPC is a sampled estimate; a mean/lo/hi
/// triple is stored.
const FLAG_ESTIMATE: u16 = 1 << 0;
const KNOWN_FLAGS: u16 = FLAG_ESTIMATE;

/// The numeric essence of one simulated cell — everything needed to
/// answer a resubmission without re-simulating, including re-rendering
/// its deterministic CSV row byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCell {
    /// The content-addressed key this cell is stored under.
    pub fingerprint: u64,
    /// Workload name.
    pub workload: String,
    /// Execution-mode name (`"full"`, or `"sampled-<plan>"`).
    pub mode: String,
    /// Correct-path instruction budget.
    pub budget: u64,
    /// Workload seed.
    pub seed: u64,
    /// Encoded-trace density of the cell's input trace.
    pub bits_per_instr: f64,
    /// `(mean, ci_lo, ci_hi)` of an estimating (sampled) cell.
    pub ipc_estimate: Option<(f64, f64, f64)>,
    /// The cell's bit-exact simulated statistics.
    pub stats: SimStats,
}

impl CachedCell {
    /// Captures a runner result under its content-addressed key.
    pub fn from_result(fingerprint: u64, r: &CellResult) -> Self {
        Self {
            fingerprint,
            workload: r.workload.clone(),
            mode: r.mode.clone(),
            budget: r.budget as u64,
            seed: r.seed,
            bits_per_instr: r.trace_stats.bits_per_instruction(),
            ipc_estimate: r.ipc_estimate(),
            stats: r.stats,
        }
    }

    /// Re-renders the cell's deterministic CSV row under a display
    /// name — the name is presentation, so it is the *caller's* (the
    /// submitting scenario's), not something the cache stores.
    pub fn stable_csv_row(&self, config: &str) -> String {
        resim_sweep::stable_csv_row(
            config,
            &self.workload,
            &self.mode,
            self.budget,
            self.seed,
            &self.stats,
            self.ipc_estimate,
            self.bits_per_instr,
        )
    }

    /// The entry's flags word.
    fn flags(&self) -> u16 {
        if self.ipc_estimate.is_some() {
            FLAG_ESTIMATE
        } else {
            0
        }
    }

    /// Serializes the entry, trailing checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&CACHE_MAGIC);
        b.extend_from_slice(&CACHE_VERSION.to_le_bytes());
        b.extend_from_slice(&self.flags().to_le_bytes());
        b.extend_from_slice(&self.fingerprint.to_le_bytes());
        b.extend_from_slice(&self.seed.to_le_bytes());
        b.extend_from_slice(&self.budget.to_le_bytes());
        write_str16(&mut b, &self.workload);
        write_str16(&mut b, &self.mode);
        b.extend_from_slice(&self.bits_per_instr.to_bits().to_le_bytes());
        if let Some((mean, lo, hi)) = self.ipc_estimate {
            for f in [mean, lo, hi] {
                b.extend_from_slice(&f.to_bits().to_le_bytes());
            }
        }
        let words = self.stats.to_words();
        b.extend_from_slice(&(words.len() as u16).to_le_bytes());
        for w in &words {
            b.extend_from_slice(&w.to_le_bytes());
        }
        b.extend_from_slice(&self.stats.digest().to_le_bytes());
        let checksum = Fnv64::hash_bytes(&b);
        b.extend_from_slice(&checksum.to_le_bytes());
        b
    }

    /// Deserializes and validates an entry: checksum, magic, version,
    /// flags, stats arity and digest are all checked, in that order.
    ///
    /// # Errors
    ///
    /// The first [`CacheEntryError`] found. A truncated or bit-flipped
    /// entry fails the whole-entry checksum before anything else is
    /// believed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CacheEntryError> {
        if bytes.len() < 8 {
            return Err(CacheEntryError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("split at len-8"));
        let computed = Fnv64::hash_bytes(body);
        if stored != computed {
            return Err(CacheEntryError::ChecksumMismatch { stored, computed });
        }
        let mut c = Cursor { body, at: 0 };
        let magic: [u8; 4] = c.array()?;
        if magic != CACHE_MAGIC {
            return Err(CacheEntryError::BadMagic(magic));
        }
        let version = c.u16()?;
        if version == 0 || version > CACHE_VERSION {
            return Err(CacheEntryError::UnsupportedVersion {
                found: version,
                newest_supported: CACHE_VERSION,
            });
        }
        let flags = c.u16()?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(CacheEntryError::UnknownFlags(flags & !KNOWN_FLAGS));
        }
        let fingerprint = c.u64()?;
        let seed = c.u64()?;
        let budget = c.u64()?;
        let workload = c.str16()?;
        let mode = c.str16()?;
        let bits_per_instr = f64::from_bits(c.u64()?);
        let ipc_estimate = if flags & FLAG_ESTIMATE != 0 {
            let mean = f64::from_bits(c.u64()?);
            let lo = f64::from_bits(c.u64()?);
            let hi = f64::from_bits(c.u64()?);
            Some((mean, lo, hi))
        } else {
            None
        };
        let arity = c.u16()? as usize;
        if arity != SIM_STATS_FIELDS.len() {
            return Err(CacheEntryError::BadStatsArity {
                found: arity,
                expected: SIM_STATS_FIELDS.len(),
            });
        }
        let mut words = Vec::with_capacity(arity);
        for _ in 0..arity {
            words.push(c.u64()?);
        }
        let stored_digest = c.u64()?;
        if c.at != body.len() {
            return Err(CacheEntryError::TrailingBytes(body.len() - c.at));
        }
        let stats = SimStats::from_words(&words).expect("arity checked above");
        let computed_digest = stats.digest();
        if computed_digest != stored_digest {
            return Err(CacheEntryError::DigestMismatch {
                stored: stored_digest,
                computed: computed_digest,
            });
        }
        Ok(Self {
            fingerprint,
            workload,
            mode,
            budget,
            seed,
            bits_per_instr,
            ipc_estimate,
            stats,
        })
    }
}

struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CacheEntryError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or(CacheEntryError::Truncated)?;
        let slice = &self.body[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CacheEntryError> {
        Ok(self.take(N)?.try_into().expect("length taken"))
    }

    fn u16(&mut self) -> Result<u16, CacheEntryError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, CacheEntryError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str16(&mut self) -> Result<String, CacheEntryError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| CacheEntryError::BadUtf8)
    }
}

fn write_str16(b: &mut Vec<u8>, s: &str) {
    b.extend_from_slice(&(s.len() as u16).to_le_bytes());
    b.extend_from_slice(s.as_bytes());
}

/// Everything that can be wrong with a cache entry's bytes. Every
/// variant is a *miss with a reason*: the cache re-simulates and
/// overwrites, it never serves or propagates a damaged entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheEntryError {
    /// The first four bytes were not `"RSCE"`.
    BadMagic([u8; 4]),
    /// A version this build does not read.
    UnsupportedVersion {
        /// Version found in the entry.
        found: u16,
        /// Newest version this build supports.
        newest_supported: u16,
    },
    /// Flag bits this build does not know (shown masked to the unknown
    /// bits).
    UnknownFlags(u16),
    /// The entry ended mid-field.
    Truncated,
    /// Bytes remained after the last field.
    TrailingBytes(usize),
    /// A stored string was not UTF-8.
    BadUtf8,
    /// The statistics vector was not exactly [`SIM_STATS_FIELDS`] long.
    BadStatsArity {
        /// Word count found.
        found: usize,
        /// Word count expected.
        expected: usize,
    },
    /// The stored statistics digest disagrees with the words.
    DigestMismatch {
        /// Digest stored in the entry.
        stored: u64,
        /// Digest computed from the stored words.
        computed: u64,
    },
    /// The whole-entry checksum disagrees with the bytes.
    ChecksumMismatch {
        /// Checksum stored in the entry.
        stored: u64,
        /// Checksum computed from the bytes.
        computed: u64,
    },
    /// The entry's embedded fingerprint is not the key it was looked
    /// up under (a renamed or cross-copied entry file).
    FingerprintMismatch {
        /// Key the lookup asked for.
        expected: u64,
        /// Fingerprint embedded in the entry.
        found: u64,
    },
    /// Reading the entry file failed.
    Io(io::ErrorKind),
}

impl fmt::Display for CacheEntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheEntryError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected \"RSCE\")"),
            CacheEntryError::UnsupportedVersion {
                found,
                newest_supported,
            } => write!(
                f,
                "unsupported entry version {found} (this build reads up to {newest_supported})"
            ),
            CacheEntryError::UnknownFlags(bits) => write!(f, "unknown flag bits {bits:#06x}"),
            CacheEntryError::Truncated => write!(f, "entry truncated mid-field"),
            CacheEntryError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the entry"),
            CacheEntryError::BadUtf8 => write!(f, "stored string is not UTF-8"),
            CacheEntryError::BadStatsArity { found, expected } => {
                write!(f, "stats vector holds {found} words, expected {expected}")
            }
            CacheEntryError::DigestMismatch { stored, computed } => write!(
                f,
                "stats digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CacheEntryError::ChecksumMismatch { stored, computed } => write!(
                f,
                "entry checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CacheEntryError::FingerprintMismatch { expected, found } => write!(
                f,
                "entry fingerprint {found:#018x} is not the key {expected:#018x} it was \
                 looked up under"
            ),
            CacheEntryError::Io(kind) => write!(f, "i/o error: {kind}"),
        }
    }
}

impl std::error::Error for CacheEntryError {}

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
    Rejected(CacheEntryError),
}

/// The content-addressed result cache: an in-memory map backed by one
/// RSCE file per cell under the cache directory (when one is given),
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

    /// The on-disk path of a key's entry (`<16 hex digits>.rsce`).
    pub fn entry_path(&self, fingerprint: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.rsce", fingerprint_hex(fingerprint))))
    }

    /// Looks a cell up by fingerprint: memory first, then disk (a disk
    /// hit is validated and promoted to memory).
    pub fn lookup(&self, fingerprint: u64) -> Lookup {
        if let Some(cell) = recover(self.mem.lock()).get(&fingerprint) {
            return Lookup::Memory(cell.clone());
        }
        let Some(path) = self.entry_path(fingerprint) else {
            return Lookup::Miss;
        };
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => return Lookup::Rejected(CacheEntryError::Io(e.kind())),
        };
        let cell = match CachedCell::from_bytes(&bytes) {
            Ok(c) => c,
            Err(e) => return Lookup::Rejected(e),
        };
        if cell.fingerprint != fingerprint {
            return Lookup::Rejected(CacheEntryError::FingerprintMismatch {
                expected: fingerprint,
                found: cell.fingerprint,
            });
        }
        recover(self.mem.lock()).insert(fingerprint, cell.clone());
        Lookup::Disk(cell)
    }

    /// Stores a cell in memory and (when disk-backed) on disk, written
    /// to a temporary file and renamed so a crash mid-write never
    /// leaves a half entry under the real name.
    ///
    /// # Errors
    ///
    /// The disk write/rename error; the in-memory insert has already
    /// happened.
    pub fn insert(&self, cell: CachedCell) -> io::Result<()> {
        let fingerprint = cell.fingerprint;
        let bytes = cell.to_bytes();
        recover(self.mem.lock()).insert(fingerprint, cell);
        if let Some(path) = self.entry_path(fingerprint) {
            let tmp = path.with_extension("rsce.tmp");
            fs::write(&tmp, &bytes)?;
            fs::rename(&tmp, &path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(fp: u64) -> CachedCell {
        CachedCell {
            fingerprint: fp,
            workload: "gzip".to_string(),
            mode: "full".to_string(),
            budget: 3_000,
            seed: 2009,
            bits_per_instr: 14.25,
            ipc_estimate: None,
            stats: SimStats {
                cycles: 1_500,
                committed: 3_000,
                ..SimStats::default()
            },
        }
    }

    fn sampled_cell(fp: u64) -> CachedCell {
        CachedCell {
            mode: "sampled-u1000d200k1f".to_string(),
            ipc_estimate: Some((1.875, 1.75, 2.0)),
            ..cell(fp)
        }
    }

    #[test]
    fn entries_roundtrip() {
        for c in [cell(0xDEAD_BEEF), sampled_cell(7)] {
            let bytes = c.to_bytes();
            assert_eq!(CachedCell::from_bytes(&bytes).unwrap(), c);
        }
    }

    #[test]
    fn csv_row_matches_the_runner_rendering() {
        let c = cell(1);
        let row = c.stable_csv_row("base");
        assert_eq!(row, "base,gzip,full,3000,2009,1500,3000,2.0000,,,0.0000,14.25\n");
        let s = sampled_cell(1);
        let row = s.stable_csv_row("base");
        assert!(row.contains(",1.8750,1.7500,2.0000,"), "{row}");
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let good = cell(3).to_bytes();
        // Any single flipped bit breaks the whole-entry checksum.
        for at in [0, 4, 8, good.len() / 2, good.len() - 9] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(
                matches!(
                    CachedCell::from_bytes(&bad),
                    Err(CacheEntryError::ChecksumMismatch { .. })
                ),
                "flip at {at}"
            );
        }
        // Truncation at every prefix is an error, never a panic.
        for len in 0..good.len() {
            assert!(CachedCell::from_bytes(&good[..len]).is_err(), "prefix {len}");
        }
        // A checksum-repaired bad magic is still caught.
        let mut bad = good[..good.len() - 8].to_vec();
        bad[0] = b'X';
        let sum = Fnv64::hash_bytes(&bad);
        bad.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            CachedCell::from_bytes(&bad),
            Err(CacheEntryError::BadMagic(_))
        ));
        // Same for a future version…
        let mut bad = good[..good.len() - 8].to_vec();
        bad[4] = 0xFF;
        let sum = Fnv64::hash_bytes(&bad);
        bad.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            CachedCell::from_bytes(&bad),
            Err(CacheEntryError::UnsupportedVersion { .. })
        ));
        // …unknown flags…
        let mut bad = good[..good.len() - 8].to_vec();
        bad[6] = 0x80;
        let sum = Fnv64::hash_bytes(&bad);
        bad.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            CachedCell::from_bytes(&bad),
            Err(CacheEntryError::UnknownFlags(_))
        ));
        // …and trailing garbage.
        let mut bad = good[..good.len() - 8].to_vec();
        bad.extend_from_slice(&[0; 4]);
        let sum = Fnv64::hash_bytes(&bad);
        bad.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            CachedCell::from_bytes(&bad),
            Err(CacheEntryError::TrailingBytes(4))
        ));
    }

    #[test]
    fn memory_cache_hits_and_misses() {
        let cache = ResultCache::in_memory();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(9), Lookup::Miss);
        cache.insert(cell(9)).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.lookup(9), Lookup::Memory(_)));
        assert_eq!(cache.lookup(10), Lookup::Miss);
        assert!(cache.entry_path(9).is_none(), "no disk behind in_memory()");
    }

    #[test]
    fn disk_cache_survives_reconstruction() {
        let dir = std::env::temp_dir().join(format!("rsce-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::with_dir(&dir).unwrap();
            cache.insert(cell(0xAB)).unwrap();
            assert!(cache.entry_path(0xAB).unwrap().exists());
        }
        // A fresh cache over the same directory serves the entry from
        // disk, then from memory.
        let cache = ResultCache::with_dir(&dir).unwrap();
        assert!(matches!(cache.lookup(0xAB), Lookup::Disk(c) if c == cell(0xAB)));
        assert!(matches!(cache.lookup(0xAB), Lookup::Memory(_)));
        // A tampered entry is rejected, not served.
        let path = cache.entry_path(0xAB).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let fresh = ResultCache::with_dir(&dir).unwrap();
        assert!(matches!(fresh.lookup(0xAB), Lookup::Rejected(_)));
        // An entry stored under the wrong name is caught by the echo.
        let cache2 = ResultCache::with_dir(&dir).unwrap();
        cache2.insert(cell(0xCD)).unwrap();
        fs::rename(
            cache2.entry_path(0xCD).unwrap(),
            cache2.entry_path(0xEF).unwrap(),
        )
        .unwrap();
        let fresh = ResultCache::with_dir(&dir).unwrap();
        assert!(matches!(
            fresh.lookup(0xEF),
            Lookup::Rejected(CacheEntryError::FingerprintMismatch {
                expected: 0xEF,
                found: 0xCD
            })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_map_keeps_serving() {
        let cache = ResultCache::in_memory();
        cache.insert(cell(1)).unwrap();
        crate::poison(&cache.mem);

        assert!(matches!(cache.lookup(1), Lookup::Memory(c) if c == cell(1)));
        assert_eq!(cache.lookup(2), Lookup::Miss);
        cache.insert(cell(2)).unwrap();
        assert!(matches!(cache.lookup(2), Lookup::Memory(_)));
        assert_eq!(cache.len(), 2);
    }
}
