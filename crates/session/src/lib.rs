//! # resim-session
//!
//! **RSSN session records**: one-file record/replay artifacts for the
//! ReSim trace-driven ILP simulator (Fytraki & Pnevmatikatos, DATE
//! 2009).
//!
//! A simulation run is a pure function of its scenario: the engine and
//! trace-generator configurations, the workload name/seed/budget, the
//! optional sampling plan, and (for file-frontend runs) the trace
//! container bytes. A [`SessionRecord`] captures all of those inputs
//! *plus* the run's resulting [`SimStats`] — serialized as the 42-word
//! vector of [`SIM_STATS_FIELDS`] with an FNV-1a digest — in a single
//! versioned little-endian file, so `resim replay` can re-execute the
//! run months later and diff the statistics field for field.
//!
//! The same record is `resim-serve`'s on-disk result-cache entry: a
//! served cell is stored as a sweep-cell session with a *served result*
//! section ([`ServedResult`]) holding the two numbers its CSV row needs
//! beyond the statistics, so every cached cell replays too.
//!
//! ## The RSSN container (version 2)
//!
//! All integers little-endian; strings are UTF-8 with a length prefix.
//!
//! | field                  | size      | notes                                  |
//! |------------------------|-----------|----------------------------------------|
//! | magic                  | 4         | `"RSSN"`                               |
//! | version                | u16       | [`SESSION_VERSION`]                    |
//! | flags                  | u16       | bit 0 sampled, bit 1 embedded trace, bit 2 sweep cell, bit 3 served result |
//! | trace container version| u16       | wire versions in effect at record time |
//! | trace layout version   | u16       |                                        |
//! | engine fingerprint     | u64       | [`EngineConfig::fingerprint`] result   |
//! | tracegen fingerprint   | u64       | generator fingerprint                  |
//! | seed                   | u64       | workload seed                          |
//! | budget                 | u64       | correct-path instruction budget        |
//! | workload               | u16 + n   | workload name                          |
//! | tool version           | u16 + n   | recording binary's version string      |
//! | cell index             | u64       | only when flag bit 2 set               |
//! | sample plan            | 4×u64 + u8 [+ u64] | only when flag bit 0 set      |
//! | scenario TOML          | u32 + n   | the scenario file text, verbatim       |
//! | embedded trace         | u64 + n   | only when flag bit 1 set: a whole RSTR container |
//! | served result          | u64 + u8 [+ 3×u64] | only when flag bit 3 set: bits per instruction (f64 bits), then tag 1 and the IPC estimate's mean/lo/hi, or tag 0 |
//! | stats words            | u16 + 42×u64 | [`SimStats::to_words`] order        |
//! | stats digest           | u64       | [`SimStats::digest`], cross-checked on read |
//! | record checksum        | u64       | FNV-1a over every preceding byte       |
//!
//! The digest makes silent corruption of the statistics impossible;
//! the flags field makes every optional section self-describing; and
//! unknown flag bits are an error, not a skip, so a reader never
//! mis-frames a future file. The checksum is checked after every field
//! has parsed, so a damaged field reports its own error first, and any
//! other flipped or missing byte is still an error; bytes after the
//! checksum are an error too.
//!
//! Version 1 is the same layout without the served-result section (flag
//! bit 3 is unknown there) and without the checksum. This build still
//! reads it, so sessions recorded before version 2 replay unchanged; it
//! writes version 2 only.
//!
//! [`EngineConfig::fingerprint`]: resim_core::EngineConfig::fingerprint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use resim_core::{Fnv64, SimStats, SIM_STATS_FIELDS};
use resim_sample::{SamplePlan, WarmupMode};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The four magic bytes opening every session record.
pub const SESSION_MAGIC: [u8; 4] = *b"RSSN";

/// Newest session-record version this build reads and writes.
pub const SESSION_VERSION: u16 = 2;

/// Flag bit 0: the run was sampled; a serialized plan follows.
const FLAG_SAMPLED: u16 = 1 << 0;
/// Flag bit 1: a whole RSTR trace container is embedded.
const FLAG_EMBEDDED_TRACE: u16 = 1 << 1;
/// Flag bit 2: the run was one sweep-grid cell; its index follows.
const FLAG_CELL: u16 = 1 << 2;
/// Flag bit 3 (version 2): a served-result section follows.
const FLAG_SERVED: u16 = 1 << 3;
const KNOWN_FLAGS_V1: u16 = FLAG_SAMPLED | FLAG_EMBEDDED_TRACE | FLAG_CELL;

/// Everything nondeterministic about one simulation run, plus its
/// resulting statistics.
///
/// ```
/// use resim_core::SimStats;
/// use resim_session::SessionRecord;
///
/// let rec = SessionRecord {
///     engine_fingerprint: 0xABCD,
///     tracegen_fingerprint: 0x1234,
///     workload: "gzip".to_string(),
///     seed: 7,
///     budget: 2000,
///     scenario_toml: "[workload]\nname = \"gzip\"\n".to_string(),
///     stats: SimStats::default(),
///     ..SessionRecord::default()
/// };
/// let bytes = rec.to_bytes();
/// assert_eq!(SessionRecord::from_bytes(&bytes).unwrap(), rec);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionRecord {
    /// [`EngineConfig::fingerprint`](resim_core::EngineConfig::fingerprint)
    /// of the engine configuration the run used.
    pub engine_fingerprint: u64,
    /// Fingerprint of the trace-generator configuration.
    pub tracegen_fingerprint: u64,
    /// Workload name (one of the SPECINT models or `"generic"`).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Correct-path instruction budget.
    pub budget: u64,
    /// Version string of the binary that recorded the session.
    pub tool_version: String,
    /// Trace container version in effect at record time.
    pub trace_container_version: u16,
    /// Trace body layout version the run's trace used.
    pub trace_layout_version: u16,
    /// Sweep-grid cell index, when the run was one cell of a `[sweep]`.
    pub cell_index: Option<u64>,
    /// Sampling plan, when the run was sampled.
    pub sample: Option<SamplePlan>,
    /// The scenario file text, verbatim — replay re-parses it, so the
    /// session is self-contained even if the original file changes.
    pub scenario_toml: String,
    /// A whole RSTR trace container, when the run replayed a file
    /// (rather than regenerating the trace from seeds).
    pub embedded_trace: Option<Vec<u8>>,
    /// The run's resulting statistics.
    pub stats: SimStats,
}

/// The served-result section: what a result cache needs beyond the
/// statistics to re-render a cell's CSV row byte for byte. Replay does
/// not read it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServedResult {
    /// Encoded-trace density of the cell's input trace, in bits per
    /// instruction.
    pub bits_per_instr: f64,
    /// `(mean, ci_lo, ci_hi)` of an estimating (sampled) cell.
    pub ipc_estimate: Option<(f64, f64, f64)>,
}

impl SessionRecord {
    /// The flags word this record serializes with (without a served
    /// result; [`SessionRecord::to_bytes_served`] adds bit 3).
    pub fn flags(&self) -> u16 {
        let mut f = 0;
        if self.sample.is_some() {
            f |= FLAG_SAMPLED;
        }
        if self.embedded_trace.is_some() {
            f |= FLAG_EMBEDDED_TRACE;
        }
        if self.cell_index.is_some() {
            f |= FLAG_CELL;
        }
        f
    }

    /// Serializes the record, checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_served(None)
    }

    /// Serializes the record with an optional served-result section.
    pub fn to_bytes_served(&self, served: Option<&ServedResult>) -> Vec<u8> {
        let mut b = Vec::new();
        let flags = self.flags() | if served.is_some() { FLAG_SERVED } else { 0 };
        b.extend_from_slice(&SESSION_MAGIC);
        b.extend_from_slice(&SESSION_VERSION.to_le_bytes());
        b.extend_from_slice(&flags.to_le_bytes());
        b.extend_from_slice(&self.trace_container_version.to_le_bytes());
        b.extend_from_slice(&self.trace_layout_version.to_le_bytes());
        for word in [
            self.engine_fingerprint,
            self.tracegen_fingerprint,
            self.seed,
            self.budget,
        ] {
            b.extend_from_slice(&word.to_le_bytes());
        }
        write_str16(&mut b, &self.workload);
        write_str16(&mut b, &self.tool_version);
        if let Some(cell) = self.cell_index {
            b.extend_from_slice(&cell.to_le_bytes());
        }
        if let Some(plan) = &self.sample {
            for word in [
                plan.interval_records,
                plan.detailed_records,
                plan.period,
                plan.offset,
            ] {
                b.extend_from_slice(&word.to_le_bytes());
            }
            match plan.warmup {
                WarmupMode::Functional => b.push(0),
                WarmupMode::Bounded(n) => {
                    b.push(1);
                    b.extend_from_slice(&n.to_le_bytes());
                }
            }
        }
        let toml = self.scenario_toml.as_bytes();
        b.extend_from_slice(&(toml.len() as u32).to_le_bytes());
        b.extend_from_slice(toml);
        if let Some(trace) = &self.embedded_trace {
            b.extend_from_slice(&(trace.len() as u64).to_le_bytes());
            b.extend_from_slice(trace);
        }
        if let Some(served) = served {
            b.extend_from_slice(&served.bits_per_instr.to_bits().to_le_bytes());
            match served.ipc_estimate {
                None => b.push(0),
                Some((mean, lo, hi)) => {
                    b.push(1);
                    for f in [mean, lo, hi] {
                        b.extend_from_slice(&f.to_bits().to_le_bytes());
                    }
                }
            }
        }
        let words = self.stats.to_words();
        b.extend_from_slice(&(words.len() as u16).to_le_bytes());
        for word in &words {
            b.extend_from_slice(&word.to_le_bytes());
        }
        b.extend_from_slice(&self.stats.digest().to_le_bytes());
        let checksum = Fnv64::hash_bytes(&b);
        b.extend_from_slice(&checksum.to_le_bytes());
        b
    }

    /// Deserializes and validates a record of either version, dropping
    /// a served-result section.
    ///
    /// # Errors
    ///
    /// Everything [`SessionRecord::from_bytes_served`] rejects.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SessionError> {
        Self::from_bytes_served(bytes).map(|(rec, _)| rec)
    }

    /// Deserializes and validates a record and its served-result
    /// section, if it has one: magic, version, flags, stats arity and
    /// digest, then (version 2) the checksum and the absence of
    /// trailing bytes.
    ///
    /// # Errors
    ///
    /// The first [`SessionError`] found.
    pub fn from_bytes_served(bytes: &[u8]) -> Result<(Self, Option<ServedResult>), SessionError> {
        let mut r = Reader { bytes, at: 0 };
        let magic: [u8; 4] = r.array()?;
        if magic != SESSION_MAGIC {
            return Err(SessionError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version == 0 || version > SESSION_VERSION {
            return Err(SessionError::UnsupportedVersion {
                found: version,
                newest_supported: SESSION_VERSION,
            });
        }
        let known = match version {
            1 => KNOWN_FLAGS_V1,
            _ => KNOWN_FLAGS_V1 | FLAG_SERVED,
        };
        let flags = r.u16()?;
        if flags & !known != 0 {
            return Err(SessionError::UnknownFlags(flags & !known));
        }
        let trace_container_version = r.u16()?;
        let trace_layout_version = r.u16()?;
        let engine_fingerprint = r.u64()?;
        let tracegen_fingerprint = r.u64()?;
        let seed = r.u64()?;
        let budget = r.u64()?;
        let workload = r.str16()?;
        let tool_version = r.str16()?;
        let cell_index = if flags & FLAG_CELL != 0 {
            Some(r.u64()?)
        } else {
            None
        };
        let sample = if flags & FLAG_SAMPLED != 0 {
            let interval_records = r.u64()?;
            let detailed_records = r.u64()?;
            let period = r.u64()?;
            let offset = r.u64()?;
            let warmup = match r.array::<1>()?[0] {
                0 => WarmupMode::Functional,
                1 => WarmupMode::Bounded(r.u64()?),
                tag => return Err(SessionError::BadWarmupTag(tag)),
            };
            Some(SamplePlan {
                interval_records,
                detailed_records,
                period,
                offset,
                warmup,
            })
        } else {
            None
        };
        let toml_len = u32::from_le_bytes(r.array()?) as usize;
        let scenario_toml = r.string(toml_len)?;
        let embedded_trace = if flags & FLAG_EMBEDDED_TRACE != 0 {
            let len = usize::try_from(r.u64()?).map_err(|_| SessionError::Truncated)?;
            Some(r.take(len)?.to_vec())
        } else {
            None
        };
        let served = if flags & FLAG_SERVED != 0 {
            let bits_per_instr = f64::from_bits(r.u64()?);
            let ipc_estimate = match r.array::<1>()?[0] {
                0 => None,
                1 => Some((
                    f64::from_bits(r.u64()?),
                    f64::from_bits(r.u64()?),
                    f64::from_bits(r.u64()?),
                )),
                tag => return Err(SessionError::BadEstimateTag(tag)),
            };
            Some(ServedResult {
                bits_per_instr,
                ipc_estimate,
            })
        } else {
            None
        };
        let n_words = r.u16()? as usize;
        if n_words != SIM_STATS_FIELDS.len() {
            return Err(SessionError::BadStatsArity {
                found: n_words,
                expected: SIM_STATS_FIELDS.len(),
            });
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(r.u64()?);
        }
        let stored_digest = r.u64()?;
        let stats = SimStats::from_words(&words).expect("arity checked above");
        let computed = stats.digest();
        if computed != stored_digest {
            return Err(SessionError::DigestMismatch {
                stored: stored_digest,
                computed,
            });
        }
        if version >= 2 {
            let computed = Fnv64::hash_bytes(&bytes[..r.at]);
            let stored = r.u64()?;
            if stored != computed {
                return Err(SessionError::ChecksumMismatch { stored, computed });
            }
            if r.at != bytes.len() {
                return Err(SessionError::TrailingBytes(bytes.len() - r.at));
            }
        }
        let rec = Self {
            engine_fingerprint,
            tracegen_fingerprint,
            workload,
            seed,
            budget,
            tool_version,
            trace_container_version,
            trace_layout_version,
            cell_index,
            sample,
            scenario_toml,
            embedded_trace,
            stats,
        };
        Ok((rec, served))
    }

    /// Writes the record to `path`.
    ///
    /// # Errors
    ///
    /// A [`SessionFileError`] naming the path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SessionFileError> {
        let path = path.as_ref();
        fs::write(path, self.to_bytes())
            .map_err(|e| SessionFileError::new(path, SessionError::Io(e.kind())))
    }

    /// Reads and validates the record at `path`.
    ///
    /// # Errors
    ///
    /// A [`SessionFileError`] naming the path, wrapping everything
    /// [`SessionRecord::from_bytes`] rejects.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SessionFileError> {
        let path = path.as_ref();
        let bytes =
            fs::read(path).map_err(|e| SessionFileError::new(path, SessionError::Io(e.kind())))?;
        Self::from_bytes(&bytes).map_err(|e| SessionFileError::new(path, e))
    }

    /// Field-for-field comparison of the recorded statistics against a
    /// replayed run's, in [`SIM_STATS_FIELDS`] order. Empty exactly
    /// when the two are bit-identical.
    pub fn diff_stats(&self, replayed: &SimStats) -> Vec<StatsDiff> {
        let recorded = self.stats.to_words();
        let words = replayed.to_words();
        SIM_STATS_FIELDS
            .iter()
            .zip(recorded.iter().zip(words.iter()))
            .filter(|(_, (a, b))| a != b)
            .map(|(field, (a, b))| StatsDiff {
                field,
                recorded: *a,
                replayed: *b,
            })
            .collect()
    }
}

/// One statistics field that replayed differently than recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsDiff {
    /// Field name from [`SIM_STATS_FIELDS`].
    pub field: &'static str,
    /// Value in the session record.
    pub recorded: u64,
    /// Value the replay produced.
    pub replayed: u64,
}

impl fmt::Display for StatsDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: recorded {} != replayed {}",
            self.field, self.recorded, self.replayed
        )
    }
}

/// Reasons a byte stream is not a valid session record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// An underlying I/O failure.
    Io(io::ErrorKind),
    /// The stream ended inside a field.
    Truncated,
    /// The first four bytes are not [`SESSION_MAGIC`].
    BadMagic([u8; 4]),
    /// The file's version is zero or newer than this build supports.
    UnsupportedVersion {
        /// Version the file claims.
        found: u16,
        /// Newest version this build reads.
        newest_supported: u16,
    },
    /// The flags word carries bits this build does not know — the
    /// optional sections cannot be framed.
    UnknownFlags(u16),
    /// A string field is not UTF-8.
    BadUtf8,
    /// The sample plan's warmup tag is neither functional nor bounded.
    BadWarmupTag(u8),
    /// The stats vector is not [`SIM_STATS_FIELDS`] long.
    BadStatsArity {
        /// Word count the file claims.
        found: usize,
        /// Word count this build expects.
        expected: usize,
    },
    /// The stored digest does not match the stored words: the
    /// statistics were corrupted in flight.
    DigestMismatch {
        /// Digest the file claims.
        stored: u64,
        /// Digest recomputed from the stored words.
        computed: u64,
    },
    /// The served-result section's estimate tag is neither absent (0)
    /// nor present (1).
    BadEstimateTag(u8),
    /// The stored checksum does not match the bytes before it
    /// (version 2): some byte changed although every field parsed.
    ChecksumMismatch {
        /// Checksum the file claims.
        stored: u64,
        /// Checksum recomputed from the preceding bytes.
        computed: u64,
    },
    /// Bytes follow the checksum (version 2).
    TrailingBytes(usize),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(kind) => write!(f, "I/O error: {kind}"),
            SessionError::Truncated => write!(f, "session record ends mid-field (truncated file?)"),
            SessionError::BadMagic(m) => {
                write!(
                    f,
                    "not a session record (magic {m:02x?}, expected \"RSSN\")"
                )
            }
            SessionError::UnsupportedVersion {
                found,
                newest_supported,
            } => write!(
                f,
                "unsupported session version {found} (newest supported: {newest_supported})"
            ),
            SessionError::UnknownFlags(bits) => write!(
                f,
                "unknown session flags {bits:#06x} (written by a newer tool?)"
            ),
            SessionError::BadUtf8 => write!(f, "session string field is not UTF-8"),
            SessionError::BadWarmupTag(tag) => {
                write!(f, "unknown warmup-mode tag {tag} in sample plan")
            }
            SessionError::BadStatsArity { found, expected } => write!(
                f,
                "session stores {found} stats words, this build expects {expected}"
            ),
            SessionError::DigestMismatch { stored, computed } => write!(
                f,
                "stats digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SessionError::BadEstimateTag(tag) => {
                write!(f, "unknown IPC-estimate tag {tag} in served result")
            }
            SessionError::ChecksumMismatch { stored, computed } => write!(
                f,
                "record checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SessionError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the session record")
            }
        }
    }
}

impl Error for SessionError {}

/// A [`SessionError`] carrying the offending file path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionFileError {
    path: PathBuf,
    error: SessionError,
}

impl SessionFileError {
    fn new(path: impl Into<PathBuf>, error: SessionError) -> Self {
        Self {
            path: path.into(),
            error,
        }
    }

    /// The file that failed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The underlying session error.
    pub fn error(&self) -> &SessionError {
        &self.error
    }
}

impl fmt::Display for SessionFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl Error for SessionFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

fn write_str16(b: &mut Vec<u8>, s: &str) {
    b.extend_from_slice(&(s.len() as u16).to_le_bytes());
    b.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over a record's bytes: a length field that
/// points past the end is [`SessionError::Truncated`], never an
/// allocation or a panic.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SessionError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SessionError::Truncated)?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SessionError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn u16(&mut self) -> Result<u16, SessionError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, SessionError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn string(&mut self, len: usize) -> Result<String, SessionError> {
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| SessionError::BadUtf8)
    }

    fn str16(&mut self) -> Result<String, SessionError> {
        let len = self.u16()? as usize;
        self.string(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(cycles: u64) -> SimStats {
        let mut words = vec![0u64; SIM_STATS_FIELDS.len()];
        words[0] = cycles;
        words[1] = cycles.wrapping_mul(3);
        SimStats::from_words(&words).unwrap()
    }

    fn full_record() -> SessionRecord {
        SessionRecord {
            engine_fingerprint: 0xDEAD_BEEF_0000_0001,
            tracegen_fingerprint: 0xCAFE_F00D_0000_0002,
            workload: "vpr".to_string(),
            seed: 2009,
            budget: 5000,
            tool_version: "resim 0.1.0".to_string(),
            trace_container_version: 1,
            trace_layout_version: 2,
            cell_index: Some(7),
            sample: Some(
                SamplePlan::systematic(1000, 100, 10).with_warmup(WarmupMode::Bounded(64)),
            ),
            scenario_toml: "[workload]\nname = \"vpr\"\nseed = 2009\nbudget = 5000\n".to_string(),
            embedded_trace: Some(vec![0x52, 0x53, 0x54, 0x52, 1, 0, 0xAA, 0xBB]),
            stats: stats_with(123_456),
        }
    }

    #[test]
    fn full_record_roundtrips() {
        let rec = full_record();
        let bytes = rec.to_bytes();
        assert_eq!(&bytes[..4], b"RSSN");
        let back = SessionRecord::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.flags(), 0b111);
    }

    #[test]
    fn minimal_record_roundtrips() {
        let rec = SessionRecord {
            workload: "gzip".to_string(),
            scenario_toml: String::new(),
            stats: stats_with(42),
            ..SessionRecord::default()
        };
        assert_eq!(rec.flags(), 0);
        let back = SessionRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back, rec);
        assert!(back.sample.is_none());
        assert!(back.embedded_trace.is_none());
        assert!(back.cell_index.is_none());
    }

    #[test]
    fn functional_warmup_roundtrips() {
        let rec = SessionRecord {
            sample: Some(SamplePlan::systematic(100, 10, 4).with_offset(2)),
            stats: stats_with(1),
            ..SessionRecord::default()
        };
        let back = SessionRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back.sample, rec.sample);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = full_record().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::BadMagic(_))
        ));
    }

    #[test]
    fn newer_version_is_rejected_with_both_numbers() {
        let mut bytes = full_record().to_bytes();
        bytes[4] = 0x7B; // version 123
        bytes[5] = 0;
        assert_eq!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::UnsupportedVersion {
                found: 123,
                newest_supported: SESSION_VERSION,
            })
        );
        bytes[4] = 0; // version 0 is reserved
        assert!(matches!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut bytes = full_record().to_bytes();
        bytes[6] |= 1 << 5;
        assert_eq!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::UnknownFlags(1 << 5))
        );
    }

    #[test]
    fn truncation_at_every_byte_errors_cleanly() {
        let bytes = full_record().to_bytes();
        for cut in 0..bytes.len() {
            let err =
                SessionRecord::from_bytes(&bytes[..cut]).expect_err("every prefix is incomplete");
            assert!(
                matches!(err, SessionError::Truncated | SessionError::BadMagic(_)),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_stats_word_trips_the_digest() {
        let rec = full_record();
        let bytes = rec.to_bytes();
        // The stats words sit between the digest (last 8 bytes) and the
        // embedded trace; flip a bit in the first word.
        let first_word = bytes.len() - 8 - 8 * SIM_STATS_FIELDS.len();
        let mut corrupt = bytes.clone();
        corrupt[first_word] ^= 1;
        assert!(matches!(
            SessionRecord::from_bytes(&corrupt),
            Err(SessionError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn bad_warmup_tag_is_rejected() {
        let rec = SessionRecord {
            sample: Some(SamplePlan::systematic(100, 10, 1)),
            stats: stats_with(1),
            ..SessionRecord::default()
        };
        let mut bytes = rec.to_bytes();
        // The warmup tag is the byte right after the four plan words;
        // the plan starts after the fixed header + two empty strings.
        let plan_start = 4 + 2 + 2 + 2 + 2 + 8 * 4 + 2 + 2;
        let tag = plan_start + 8 * 4;
        assert_eq!(bytes[tag], 0, "located the functional warmup tag");
        bytes[tag] = 9;
        assert_eq!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::BadWarmupTag(9))
        );
    }

    #[test]
    fn stats_diff_names_mismatched_fields() {
        let rec = SessionRecord {
            stats: stats_with(100),
            ..SessionRecord::default()
        };
        assert!(rec.diff_stats(&stats_with(100)).is_empty());
        let diffs = rec.diff_stats(&stats_with(101));
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].field, SIM_STATS_FIELDS[0]);
        assert_eq!(diffs[0].recorded, 100);
        assert_eq!(diffs[0].replayed, 101);
        assert_eq!(
            diffs[0].to_string(),
            format!("{}: recorded 100 != replayed 101", SIM_STATS_FIELDS[0])
        );
    }

    #[test]
    fn save_and_load_name_the_path() {
        let dir = std::env::temp_dir().join("resim-session-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.rssn");
        let rec = full_record();
        rec.save(&path).unwrap();
        assert_eq!(SessionRecord::load(&path).unwrap(), rec);

        let missing = dir.join("no-such-file.rssn");
        let err = SessionRecord::load(&missing).unwrap_err();
        assert_eq!(err.path(), missing.as_path());
        assert_eq!(err.error(), &SessionError::Io(io::ErrorKind::NotFound));
        assert!(err.to_string().contains("no-such-file.rssn"));

        // A corrupted file reports the path *and* the session error.
        let garbled = dir.join("garbled.rssn");
        fs::write(&garbled, b"RSSNgarbage").unwrap();
        let err = SessionRecord::load(&garbled).unwrap_err();
        assert!(matches!(
            err.error(),
            SessionError::Truncated | SessionError::UnsupportedVersion { .. }
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_display() {
        let cases: Vec<(SessionError, &str)> = vec![
            (SessionError::Truncated, "mid-field"),
            (SessionError::BadMagic(*b"XXXX"), "RSSN"),
            (
                SessionError::UnsupportedVersion {
                    found: 9,
                    newest_supported: 1,
                },
                "newest supported: 1",
            ),
            (SessionError::UnknownFlags(0x20), "0x0020"),
            (SessionError::BadUtf8, "UTF-8"),
            (SessionError::BadWarmupTag(3), "tag 3"),
            (
                SessionError::BadStatsArity {
                    found: 7,
                    expected: 42,
                },
                "expects 42",
            ),
            (
                SessionError::DigestMismatch {
                    stored: 1,
                    computed: 2,
                },
                "digest mismatch",
            ),
            (SessionError::BadEstimateTag(4), "tag 4"),
            (
                SessionError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum mismatch",
            ),
            (SessionError::TrailingBytes(3), "3 trailing bytes"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    fn served() -> ServedResult {
        ServedResult {
            bits_per_instr: 14.25,
            ipc_estimate: Some((1.875, 1.75, 2.0)),
        }
    }

    #[test]
    fn served_results_roundtrip() {
        let rec = full_record();
        for s in [
            served(),
            ServedResult {
                ipc_estimate: None,
                ..served()
            },
        ] {
            let bytes = rec.to_bytes_served(Some(&s));
            assert_eq!(
                SessionRecord::from_bytes_served(&bytes).unwrap(),
                (rec.clone(), Some(s))
            );
            // Replay reads the same record and ignores the section.
            assert_eq!(SessionRecord::from_bytes(&bytes).unwrap(), rec);
        }
        let plain = SessionRecord::from_bytes_served(&rec.to_bytes()).unwrap();
        assert_eq!(plain, (rec, None));
    }

    #[test]
    fn version_1_records_still_read() {
        // A v1 record is a v2 record without the checksum and the
        // served section, under version 1.
        let rec = full_record();
        let mut v1 = rec.to_bytes();
        v1.truncate(v1.len() - 8);
        v1[4] = 1;
        assert_eq!(SessionRecord::from_bytes(&v1).unwrap(), rec);
        // The served-result flag does not exist in version 1.
        let mut v1 = rec.to_bytes_served(Some(&served()));
        v1[4] = 1;
        assert_eq!(
            SessionRecord::from_bytes(&v1),
            Err(SessionError::UnknownFlags(FLAG_SERVED))
        );
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        // Every optional section present: sampled, embedded trace,
        // sweep cell and served result.
        let good = full_record().to_bytes_served(Some(&served()));
        assert_eq!(u16::from_le_bytes([good[6], good[7]]), 0b1111);
        for at in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[at] ^= 1 << bit;
                assert!(
                    SessionRecord::from_bytes_served(&bad).is_err(),
                    "flip of bit {bit} at byte {at} was accepted"
                );
            }
        }
        for len in 0..good.len() {
            assert!(
                SessionRecord::from_bytes_served(&good[..len]).is_err(),
                "prefix {len}"
            );
        }
        for extra in [&[0u8][..], &[0; 8], b"RSSN"] {
            let mut long = good.clone();
            long.extend_from_slice(extra);
            assert_eq!(
                SessionRecord::from_bytes_served(&long),
                Err(SessionError::TrailingBytes(extra.len()))
            );
        }
        // A checksum that no longer matches is caught even when every
        // field still parses.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            SessionRecord::from_bytes_served(&bad),
            Err(SessionError::ChecksumMismatch { .. })
        ));
        // An unknown estimate tag. The served section starts where a
        // plain record's stats arity does; its tag follows the
        // bits-per-instruction word.
        let rec = full_record();
        let mut bad = rec.to_bytes_served(Some(&served()));
        let section = rec.to_bytes().len() - 8 - 8 - 8 * SIM_STATS_FIELDS.len() - 2;
        let tag = section + 8;
        assert_eq!(bad[tag], 1, "located the estimate tag");
        bad[tag] = 7;
        assert_eq!(
            SessionRecord::from_bytes_served(&bad),
            Err(SessionError::BadEstimateTag(7))
        );
    }
}
