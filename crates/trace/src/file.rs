//! The on-disk trace container: a versioned header in front of the
//! Table-3 codec stream.
//!
//! The paper's host tool prepares traces "off-line, for example for bulk
//! simulations with varying design parameters" (§V.A) and streams them
//! to the engine over a link. This module is the file-system analogue of
//! that link: a trace is generated and encoded **once**, written to disk
//! with enough metadata to identify it, and replayed any number of times
//! through a streaming [`FileSource`] — by `resim run`, `resim sample`
//! and `resim sweep` alike. The same source decodes an in-memory
//! [`EncodedTrace`] ([`EncodedTrace::source`]), so every encoded stream
//! goes through one reader.
//!
//! ## Layout
//!
//! All multi-byte fields are **little-endian**. The body is exactly the
//! bit stream a [`TraceEncoder`](crate::TraceEncoder) (layout 1) or
//! [`Trace::encode_v2`](crate::Trace::encode_v2) (layout 2) produces, so
//! the container adds a fixed 50-byte header plus the workload id and
//! nothing else:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "RSTR"
//!      4     2  container version (1)
//!      6     2  record bit-layout version (TRACE_LAYOUT_VERSION)
//!      8     8  record count (wrong-path records included)
//!     16     8  correct-path record count
//!     24     8  payload length in bits
//!     32     8  workload seed
//!     40     8  trace-generator fingerprint (opaque to this crate)
//!     48     2  workload id length L
//!     50     L  workload id (UTF-8)
//!   50+L     …  body: the encoded record stream
//! ```
//!
//! ## Version rules
//!
//! * A reader rejects a file whose **container version** is newer than
//!   its own ([`TRACE_CONTAINER_VERSION`]): the header layout itself may
//!   have changed.
//! * A reader accepts a file whose **bit-layout version** is one of the
//!   layouts its codec decodes ([`SUPPORTED_LAYOUT_VERSIONS`]) — the
//!   original Table-3 layout 1 and the delta-compressed layout 2 — and
//!   dispatches the body decoder on it. Anything else is rejected: same
//!   container, incompatible record stream.
//!
//! ## Decoding
//!
//! A [`FileSource`] reads its body a 16 KiB block at a time. A layout-2
//! record is decoded through a window of that block, with no per-field
//! test, whenever the block and the declared length both still hold the
//! longest record the decoder can read. Only the records that straddle a
//! block refill or the end of the body go through the checked reader,
//! which tests every field. Both readers run the same decoder, and a
//! window never holds a bit the checked reader would have refused, so
//! the records, errors and stop points are those of the checked reader
//! alone (see the [`bits`](crate::bits) module). Layout 1 always uses
//! the checked reader.
//!
//! ## Example
//!
//! ```
//! use resim_trace::{FileSource, Trace, TraceFileHeader, TraceRecord,
//!                   TraceSource, OtherRecord, OpClass};
//!
//! let trace: Trace = (0..100u32)
//!     .map(|i| TraceRecord::Other(OtherRecord {
//!         pc: 0x1000 + i * 4,
//!         class: OpClass::IntAlu,
//!         dest: None, src1: None, src2: None,
//!         wrong_path: false,
//!     }))
//!     .collect();
//!
//! // Write the container to any io::Write sink…
//! let encoded = trace.encode();
//! let header = TraceFileHeader::for_trace(&encoded, "demo", 7, 0)
//!     .with_correct_records(trace.correct_path_len() as u64);
//! let mut file: Vec<u8> = Vec::new();
//! header.write_trace(&mut file, &encoded).unwrap();
//!
//! // …and stream it back record by record.
//! let mut source = FileSource::from_reader(&file[..]).unwrap();
//! assert_eq!(source.header().workload, "demo");
//! assert_eq!(source.len_hint(), Some(100));
//! let round: Trace = std::iter::from_fn(|| source.next_record()).collect();
//! assert_eq!(round, trace);
//! ```

use crate::bits::StreamBits;
use crate::codec::{
    decode_record_bits, skip_record_bits, DecodeError, EncodedTrace, TRACE_LAYOUT_VERSION,
};
use crate::codec_v2::{
    decode_record_bits_v2, V2State, MAX_V2_RECORD_BITS, TRACE_LAYOUT_VERSION_V2,
};
use crate::record::TraceRecord;
use crate::source::TraceSource;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The four magic bytes opening every trace container.
pub const TRACE_FILE_MAGIC: [u8; 4] = *b"RSTR";

/// Version of the container layout (header framing) itself.
pub const TRACE_CONTAINER_VERSION: u16 = 1;

/// Record bit-layout versions this reader decodes.
pub const SUPPORTED_LAYOUT_VERSIONS: [u16; 2] = [TRACE_LAYOUT_VERSION, TRACE_LAYOUT_VERSION_V2];

/// The decoded header of an on-disk trace container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileHeader {
    /// Container layout version the file was written with.
    pub container_version: u16,
    /// Record bit-layout version of the body stream.
    pub layout_version: u16,
    /// Total records in the body (wrong-path included).
    pub records: u64,
    /// Correct-path records in the body.
    pub correct_records: u64,
    /// Exact payload length of the body in bits.
    pub len_bits: u64,
    /// Seed the workload stream was instantiated with.
    pub seed: u64,
    /// Deterministic fingerprint of the generator configuration that
    /// produced the trace (`resim_tracegen::TraceGenConfig::fingerprint`);
    /// opaque to this crate, `0` when unknown.
    pub tracegen_fingerprint: u64,
    /// Workload identity (e.g. `"gzip"`).
    pub workload: String,
}

impl TraceFileHeader {
    /// Builds a header describing `encoded`, with the correct-path count
    /// defaulting to the total record count (adjust with
    /// [`TraceFileHeader::with_correct_records`] for tagged traces). The
    /// bit-layout version is taken from `encoded`, so v1 and v2 bodies
    /// alike are framed correctly.
    pub fn for_trace(
        encoded: &EncodedTrace,
        workload: impl Into<String>,
        seed: u64,
        tracegen_fingerprint: u64,
    ) -> Self {
        Self {
            container_version: TRACE_CONTAINER_VERSION,
            layout_version: encoded.layout_version(),
            records: encoded.len(),
            correct_records: encoded.len(),
            len_bits: encoded.len_bits(),
            seed,
            tracegen_fingerprint,
            workload: workload.into(),
        }
    }

    /// Sets the correct-path record count.
    pub fn with_correct_records(mut self, correct: u64) -> Self {
        self.correct_records = correct;
        self
    }

    /// Serializes the header alone (magic through workload id).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`; a workload id longer than the
    /// 16-bit length field is reported as
    /// [`io::ErrorKind::InvalidInput`].
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        let id = self.workload.as_bytes();
        let id_len = u16::try_from(id.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "workload id of {} bytes exceeds the 65535-byte field",
                    id.len()
                ),
            )
        })?;
        w.write_all(&TRACE_FILE_MAGIC)?;
        w.write_all(&self.container_version.to_le_bytes())?;
        w.write_all(&self.layout_version.to_le_bytes())?;
        w.write_all(&self.records.to_le_bytes())?;
        w.write_all(&self.correct_records.to_le_bytes())?;
        w.write_all(&self.len_bits.to_le_bytes())?;
        w.write_all(&self.seed.to_le_bytes())?;
        w.write_all(&self.tracegen_fingerprint.to_le_bytes())?;
        w.write_all(&id_len.to_le_bytes())?;
        w.write_all(id)?;
        Ok(())
    }

    /// Writes the full container: this header followed by `encoded`'s
    /// body bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_trace<W: Write>(&self, mut w: W, encoded: &EncodedTrace) -> io::Result<()> {
        self.write_to(&mut w)?;
        w.write_all(encoded.bytes())?;
        w.flush()
    }

    /// Parses a header from the front of `r`, applying the version rules.
    ///
    /// # Errors
    ///
    /// [`FileError::Io`] on short reads, [`FileError::BadMagic`] /
    /// [`FileError::UnsupportedContainer`] /
    /// [`FileError::UnsupportedLayout`] on an alien or incompatible file,
    /// [`FileError::BadWorkloadId`] on a non-UTF-8 workload id.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, FileError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != TRACE_FILE_MAGIC {
            return Err(FileError::BadMagic(magic));
        }
        let container_version = read_u16(&mut r)?;
        if container_version > TRACE_CONTAINER_VERSION {
            return Err(FileError::UnsupportedContainer {
                found: container_version,
                newest_supported: TRACE_CONTAINER_VERSION,
            });
        }
        let layout_version = read_u16(&mut r)?;
        if !SUPPORTED_LAYOUT_VERSIONS.contains(&layout_version) {
            return Err(FileError::UnsupportedLayout {
                found: layout_version,
                newest_supported: TRACE_LAYOUT_VERSION_V2,
            });
        }
        let records = read_u64(&mut r)?;
        let correct_records = read_u64(&mut r)?;
        let len_bits = read_u64(&mut r)?;
        let seed = read_u64(&mut r)?;
        let tracegen_fingerprint = read_u64(&mut r)?;
        let id_len = read_u16(&mut r)? as usize;
        let mut id = vec![0u8; id_len];
        r.read_exact(&mut id)?;
        let workload = String::from_utf8(id).map_err(|_| FileError::BadWorkloadId)?;
        Ok(Self {
            container_version,
            layout_version,
            records,
            correct_records,
            len_bits,
            seed,
            tracegen_fingerprint,
            workload,
        })
    }

    /// Serialized header size in bytes (50 + workload id length).
    pub fn encoded_len(&self) -> usize {
        50 + self.workload.len()
    }
}

fn read_u16<R: Read>(r: &mut R) -> Result<u16, FileError> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, FileError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Convenience: writes `encoded` under `header` to a new file at `path`.
///
/// # Errors
///
/// File-creation and write failures come back as a [`TraceFileError`]
/// naming the offending path.
pub fn save_trace_file(
    path: impl AsRef<Path>,
    header: &TraceFileHeader,
    encoded: &EncodedTrace,
) -> Result<(), TraceFileError> {
    let path = path.as_ref();
    let at = |e: io::Error| TraceFileError::new(path, FileError::Io(e.kind()));
    let file = fs::File::create(path).map_err(at)?;
    header
        .write_trace(io::BufWriter::new(file), encoded)
        .map_err(at)
}

/// A streaming [`TraceSource`] over an encoded record stream: the one
/// source every v1 and v2 body decodes through.
///
/// [`FileSource::open`] and [`FileSource::from_reader`] parse (and
/// version-check) a container header eagerly, then decode body records
/// one `next_record` (or one `fill` batch) at a time straight off the
/// reader, so replaying a multi-gigabyte trace never buffers more than
/// one 16 KiB block of it. [`EncodedTrace::source`] builds the same
/// source over an in-memory body. On a v1 body [`TraceSource::skip`]
/// pages over records without materialising them; a v2 body chains
/// decoder state through every record, so its skip decodes and
/// discards.
///
/// I/O and decode problems after construction terminate the stream
/// (fused `None`); inspect [`FileSource::error`] to distinguish a clean
/// end of trace from a broken one.
#[derive(Debug)]
pub struct FileSource<R: Read> {
    header: TraceFileHeader,
    bits: StreamBits<R>,
    body: BodyDecoder,
    remaining: u64,
    error: Option<FileError>,
    decoded: u64,
    fills: u64,
}

/// Per-layout decoder state threaded through a [`FileSource`]'s body.
#[derive(Debug)]
enum BodyDecoder {
    V1 { expected_pc: Option<u32> },
    V2(V2State),
}

impl FileSource<io::BufReader<fs::File>> {
    /// Opens the trace container at `path`.
    ///
    /// # Errors
    ///
    /// A [`TraceFileError`] naming `path`: [`FileError::Io`] if the file
    /// cannot be opened, plus everything
    /// [`TraceFileHeader::read_from`] rejects.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref();
        let file =
            fs::File::open(path).map_err(|e| TraceFileError::new(path, FileError::Io(e.kind())))?;
        Self::from_reader(io::BufReader::new(file)).map_err(|e| TraceFileError::new(path, e))
    }
}

impl<R: Read> FileSource<R> {
    /// Wraps any reader positioned at the start of a trace container.
    ///
    /// The decoder reads the body in blocks of up to 16 KiB, so a raw
    /// [`fs::File`] works too; [`FileSource::open`] wraps the file in a
    /// `BufReader`, which passes reads of that size straight through.
    ///
    /// # Errors
    ///
    /// Everything [`TraceFileHeader::read_from`] rejects.
    pub fn from_reader(mut reader: R) -> Result<Self, FileError> {
        let header = TraceFileHeader::read_from(&mut reader)?;
        Ok(Self::new(header, reader))
    }

    /// A source decoding the body `reader` is positioned at, as `header`
    /// describes it (layout, record count, bit length).
    pub(crate) fn new(header: TraceFileHeader, reader: R) -> Self {
        let bits = StreamBits::new(reader, header.len_bits);
        let body = if header.layout_version == TRACE_LAYOUT_VERSION_V2 {
            BodyDecoder::V2(V2State::default())
        } else {
            BodyDecoder::V1 { expected_pc: None }
        };
        Self {
            remaining: header.records,
            header,
            bits,
            body,
            error: None,
            decoded: 0,
            fills: 0,
        }
    }

    /// The container header (validated at construction).
    pub fn header(&self) -> &TraceFileHeader {
        &self.header
    }

    /// The first I/O or decode error hit, if the stream ended abnormally.
    pub fn error(&self) -> Option<&FileError> {
        self.error.as_ref()
    }

    /// Records materialised so far, across [`TraceSource::next_record`]
    /// and [`TraceSource::fill`] alike (skipped records are not decoded
    /// in layout 1 and are not counted for either layout).
    pub fn records_decoded(&self) -> u64 {
        self.decoded
    }

    /// Number of [`TraceSource::fill`] batch-decode calls served.
    pub fn batch_fills(&self) -> u64 {
        self.fills
    }

    /// Folds the bit reader's pending I/O error (if any) with a decode
    /// result into this source's terminal error state.
    fn fail(&mut self, decode: DecodeError) {
        self.error = Some(match self.bits.take_io_error() {
            Some(io) => FileError::Io(io.kind()),
            None => FileError::Decode(decode),
        });
    }

    /// Decodes the next record through the checked reader, in the
    /// layout this file declared.
    fn decode_next(&mut self) -> Result<Option<TraceRecord>, DecodeError> {
        match &mut self.body {
            BodyDecoder::V1 { expected_pc } => decode_record_bits(&mut self.bits, expected_pc),
            BodyDecoder::V2(state) => decode_record_bits_v2(&mut self.bits, state),
        }
    }

    /// Decodes up to `max` records in stream order, handing each to
    /// `take`, and returns how many it took. Stops early at the declared
    /// record count or at the first error, which it records.
    ///
    /// A v2 record goes through a window of the block whenever the block
    /// and the declared length both hold [`MAX_V2_RECORD_BITS`] more
    /// bits, and through the checked reader otherwise (see "Decoding" in
    /// the module docs).
    fn decode_into(&mut self, max: u64, mut take: impl FnMut(TraceRecord)) -> u64 {
        let mut n = 0;
        while n < max && self.error.is_none() && self.remaining > 0 {
            if let BodyDecoder::V2(state) = &mut self.body {
                let want = (max - n).min(self.remaining);
                let mut taken = 0;
                let mut failed = None;
                self.bits.windows(MAX_V2_RECORD_BITS, |window| {
                    match decode_record_bits_v2(window, state) {
                        Ok(Some(r)) => {
                            take(r);
                            taken += 1;
                            taken < want
                        }
                        // A window is never empty: the end of the body is
                        // left to the checked reader.
                        Ok(None) => false,
                        Err(e) => {
                            failed = Some(e);
                            false
                        }
                    }
                });
                n += taken;
                self.remaining -= taken;
                if let Some(e) = failed {
                    self.fail(e);
                    break;
                }
                if n == max || self.remaining == 0 {
                    break;
                }
            }
            match self.decode_next() {
                Ok(Some(r)) => {
                    take(r);
                    n += 1;
                    self.remaining -= 1;
                }
                // Body bits ran out before the declared record count.
                Ok(None) => self.error = Some(FileError::Decode(DecodeError::Truncated)),
                Err(e) => self.fail(e),
            }
        }
        n
    }
}

impl<R: Read> TraceSource for FileSource<R> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let mut record = None;
        self.decoded += self.decode_into(1, |r| record = Some(r));
        record
    }

    fn fill(&mut self, buf: &mut [TraceRecord]) -> usize {
        // Block decode straight off the reader: one `fill` call amortises
        // the per-record dispatch and keeps the bit cursor and decoder
        // state in registers across the whole batch.
        self.fills += 1;
        let mut n = 0;
        self.decoded += self.decode_into(buf.len() as u64, |r| {
            buf[n] = r;
            n += 1;
        });
        n
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }

    fn skip(&mut self, n: u64) -> u64 {
        let mut skipped = 0;
        while skipped < n && self.error.is_none() && self.remaining > 0 {
            let expected_pc = match &mut self.body {
                BodyDecoder::V1 { expected_pc } => expected_pc,
                // v2 chains decoder state through every record, so it
                // decodes and discards.
                BodyDecoder::V2(_) => return skipped + self.decode_into(n - skipped, |_| {}),
            };
            match skip_record_bits(&mut self.bits, expected_pc) {
                Ok(true) => {
                    skipped += 1;
                    self.remaining -= 1;
                }
                Ok(false) => {
                    self.error = Some(FileError::Decode(DecodeError::Truncated));
                    break;
                }
                Err(e) => {
                    self.fail(e);
                    break;
                }
            }
        }
        skipped
    }
}

/// Problems reading an on-disk trace container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileError {
    /// An underlying I/O failure (a short file reports
    /// [`io::ErrorKind::UnexpectedEof`]).
    Io(io::ErrorKind),
    /// The file does not start with [`TRACE_FILE_MAGIC`].
    BadMagic([u8; 4]),
    /// The container version is newer than this reader understands.
    UnsupportedContainer {
        /// Container version declared by the file.
        found: u16,
        /// Newest container version this reader parses
        /// ([`TRACE_CONTAINER_VERSION`]).
        newest_supported: u16,
    },
    /// The record bit-layout version is not one this codec decodes
    /// ([`SUPPORTED_LAYOUT_VERSIONS`]).
    UnsupportedLayout {
        /// Layout version declared by the file.
        found: u16,
        /// Newest layout version this codec decodes.
        newest_supported: u16,
    },
    /// The workload id is not valid UTF-8.
    BadWorkloadId,
    /// The body bit stream is malformed or shorter than declared.
    Decode(DecodeError),
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileError::Io(kind) => write!(f, "trace file i/o error: {kind}"),
            FileError::BadMagic(m) => {
                write!(
                    f,
                    "not a resim trace file (magic {m:02x?}, expected \"RSTR\")"
                )
            }
            FileError::UnsupportedContainer {
                found,
                newest_supported,
            } => write!(
                f,
                "trace container version {found} is newer than this reader \
                 (newest supported: {newest_supported})"
            ),
            FileError::UnsupportedLayout {
                found,
                newest_supported,
            } => write!(
                f,
                "trace record layout version {found} is not one this codec decodes \
                 (supported: 1..={newest_supported})"
            ),
            FileError::BadWorkloadId => write!(f, "workload id is not valid UTF-8"),
            FileError::Decode(e) => write!(f, "trace body malformed: {e}"),
        }
    }
}

impl From<io::Error> for FileError {
    fn from(e: io::Error) -> Self {
        FileError::Io(e.kind())
    }
}

impl From<DecodeError> for FileError {
    fn from(e: DecodeError) -> Self {
        FileError::Decode(e)
    }
}

impl Error for FileError {}

/// A [`FileError`] annotated with the path it occurred on.
///
/// Returned by the path-taking entry points ([`FileSource::open`],
/// [`save_trace_file`]) so a diagnostic can always name the offending
/// file; the path-free [`FileSource::from_reader`] keeps returning a
/// bare [`FileError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileError {
    path: PathBuf,
    error: FileError,
}

impl TraceFileError {
    pub(crate) fn new(path: impl Into<PathBuf>, error: FileError) -> Self {
        Self {
            path: path.into(),
            error,
        }
    }

    /// The file the operation failed on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The underlying container error.
    pub fn error(&self) -> &FileError {
        &self.error
    }
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl Error for TraceFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{
        BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg,
    };
    use crate::Trace;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceRecord::Other(OtherRecord {
            pc: 0x40_0000,
            class: OpClass::IntAlu,
            dest: Some(Reg::new(3)),
            src1: Some(Reg::new(1)),
            src2: Some(Reg::new(2)),
            wrong_path: false,
        }));
        t.push(TraceRecord::Mem(MemRecord {
            pc: 0x40_0004,
            addr: 0x1000_0040,
            size: MemSize::Word,
            kind: MemKind::Load,
            base: Some(Reg::new(29)),
            data: Some(Reg::new(4)),
            wrong_path: false,
        }));
        t.push(TraceRecord::Branch(BranchRecord {
            pc: 0x40_0008,
            target: 0x40_0100,
            taken: true,
            kind: BranchKind::Cond,
            src1: Some(Reg::new(4)),
            src2: None,
            wrong_path: false,
        }));
        t.push(TraceRecord::Other(OtherRecord {
            pc: 0x40_000C,
            class: OpClass::Nop,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: true,
        }));
        t.push(TraceRecord::Other(OtherRecord {
            pc: 0x40_0100,
            class: OpClass::IntDiv,
            dest: Some(Reg::new(8)),
            src1: Some(Reg::new(8)),
            src2: Some(Reg::new(9)),
            wrong_path: false,
        }));
        t
    }

    fn container(trace: &Trace) -> Vec<u8> {
        let encoded = trace.encode();
        let header = TraceFileHeader::for_trace(&encoded, "gzip", 2009, 0xDEAD_BEEF)
            .with_correct_records(trace.correct_path_len() as u64);
        let mut buf = Vec::new();
        header.write_trace(&mut buf, &encoded).unwrap();
        buf
    }

    #[test]
    fn header_roundtrip() {
        let trace = sample_trace();
        let encoded = trace.encode();
        let header =
            TraceFileHeader::for_trace(&encoded, "gzip", 2009, 0xDEAD_BEEF).with_correct_records(4);
        let mut buf = Vec::new();
        header.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), header.encoded_len());
        let round = TraceFileHeader::read_from(&buf[..]).unwrap();
        assert_eq!(round, header);
        assert_eq!(round.records, 5);
        assert_eq!(round.correct_records, 4);
        assert_eq!(round.workload, "gzip");
        assert_eq!(round.seed, 2009);
        assert_eq!(round.tracegen_fingerprint, 0xDEAD_BEEF);
    }

    #[test]
    fn file_roundtrip_streams_all_records() {
        let trace = sample_trace();
        let buf = container(&trace);
        let mut src = FileSource::from_reader(&buf[..]).unwrap();
        assert_eq!(src.len_hint(), Some(5));
        assert_eq!(src.header().correct_records, 4);
        let round: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(round, trace.records());
        assert!(src.error().is_none());
        assert!(src.next_record().is_none(), "fused after end");
    }

    #[test]
    fn skip_then_decode_stays_in_sync() {
        let trace = sample_trace();
        let buf = container(&trace);
        for n in 0..=trace.len() as u64 {
            let mut src = FileSource::from_reader(&buf[..]).unwrap();
            assert_eq!(src.skip(n), n);
            let rest: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
            assert_eq!(
                rest,
                trace.records()[n as usize..],
                "suffix after skipping {n}"
            );
            assert!(src.error().is_none());
        }
        let mut src = FileSource::from_reader(&buf[..]).unwrap();
        assert_eq!(src.skip(100), 5, "skip clamps at end of trace");
    }

    #[test]
    fn on_disk_roundtrip() {
        let trace = sample_trace();
        let encoded = trace.encode();
        let header = TraceFileHeader::for_trace(&encoded, "disk", 1, 2);
        let path =
            std::env::temp_dir().join(format!("resim-trace-test-{}.trace", std::process::id()));
        save_trace_file(&path, &header, &encoded).unwrap();
        let mut src = FileSource::open(&path).unwrap();
        let round: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(round, trace.records());
    }

    #[test]
    fn alien_and_versioned_files_are_rejected() {
        let trace = sample_trace();
        let mut buf = container(&trace);
        assert!(matches!(
            FileSource::from_reader(&b"RS"[..]),
            Err(FileError::Io(io::ErrorKind::UnexpectedEof))
        ));
        assert!(matches!(
            FileSource::from_reader(&b"ELF!"[..]),
            Err(FileError::BadMagic(_))
        ));
        buf[0] = b'X';
        assert!(matches!(
            FileSource::from_reader(&buf[..]),
            Err(FileError::BadMagic(_))
        ));
        buf[0] = b'R';
        buf[4] = 0xFF; // container version 0xFF
        assert!(matches!(
            FileSource::from_reader(&buf[..]),
            Err(FileError::UnsupportedContainer { found: 0xFF, .. })
        ));
        buf[4] = 1;
        buf[6] = 0xEE; // layout version
        assert!(matches!(
            FileSource::from_reader(&buf[..]),
            Err(FileError::UnsupportedLayout { found: 0xEE, .. })
        ));
        buf[6] = 0; // layout version 0 never existed
        assert!(matches!(
            FileSource::from_reader(&buf[..]),
            Err(FileError::UnsupportedLayout { found: 0, .. })
        ));
    }

    #[test]
    fn truncated_body_surfaces_as_error() {
        let trace = sample_trace();
        let buf = container(&trace);
        let short = &buf[..buf.len() - 2];
        let mut src = FileSource::from_reader(short).unwrap();
        while src.next_record().is_some() {}
        assert!(
            src.error().is_some(),
            "truncation must not look like a clean end"
        );
        assert_eq!(src.skip(1), 0, "errored source skips nothing");
    }

    #[test]
    fn decode_counters_track_records_and_fills() {
        let trace = sample_trace();
        let buf = container(&trace);
        let mut src = FileSource::from_reader(&buf[..]).unwrap();
        assert_eq!(src.records_decoded(), 0);
        assert_eq!(src.batch_fills(), 0);
        src.next_record().unwrap();
        src.next_record().unwrap();
        assert_eq!(src.records_decoded(), 2);
        let filler = TraceRecord::Other(OtherRecord {
            pc: 0,
            class: OpClass::Nop,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: false,
        });
        let mut batch = vec![filler; 8];
        let n = src.fill(&mut batch);
        assert_eq!(n, 3, "the remaining records arrive in one batch");
        assert_eq!(src.batch_fills(), 1);
        assert_eq!(src.records_decoded(), 5);
        // A fill at end-of-trace still counts as a (empty) batch call.
        assert_eq!(src.fill(&mut batch), 0);
        assert_eq!(src.batch_fills(), 2);
        assert_eq!(src.records_decoded(), 5);
    }

    #[test]
    fn record_count_shorter_than_body_is_honoured() {
        // A header declaring fewer records than the body holds: the
        // source stops at the declared count.
        let trace = sample_trace();
        let encoded = trace.encode();
        let header = TraceFileHeader::for_trace(&encoded, "w", 0, 0);
        let header = TraceFileHeader {
            records: 2,
            ..header
        };
        let mut buf = Vec::new();
        header.write_trace(&mut buf, &encoded).unwrap();
        let mut src = FileSource::from_reader(&buf[..]).unwrap();
        let got: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(got.len(), 2);
        assert!(src.error().is_none());
    }

    #[test]
    fn errors_display() {
        assert!(FileError::BadMagic(*b"ELF!").to_string().contains("RSTR"));
        let container = FileError::UnsupportedContainer {
            found: 9,
            newest_supported: TRACE_CONTAINER_VERSION,
        }
        .to_string();
        assert!(container.contains("version 9"), "{container}");
        assert!(container.contains("newest supported: 1"), "{container}");
        let layout = FileError::UnsupportedLayout {
            found: 9,
            newest_supported: 2,
        }
        .to_string();
        assert!(layout.contains("layout version 9"), "{layout}");
        assert!(layout.contains("1..=2"), "{layout}");
        assert!(FileError::Decode(DecodeError::Truncated)
            .to_string()
            .contains("malformed"));
        assert!(FileError::Io(io::ErrorKind::UnexpectedEof)
            .to_string()
            .contains("i/o"));
        assert!(FileError::BadWorkloadId.to_string().contains("UTF-8"));
    }

    #[test]
    fn v2_container_roundtrips_and_skips() {
        let trace = sample_trace();
        let encoded = trace.encode_v2();
        assert_eq!(encoded.layout_version(), 2);
        let header = TraceFileHeader::for_trace(&encoded, "gzip", 2009, 0xDEAD_BEEF)
            .with_correct_records(trace.correct_path_len() as u64);
        assert_eq!(header.layout_version, 2);
        let mut buf = Vec::new();
        header.write_trace(&mut buf, &encoded).unwrap();
        let mut src = FileSource::from_reader(&buf[..]).unwrap();
        assert_eq!(src.header().layout_version, 2);
        let round: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(round, trace.records());
        assert!(src.error().is_none());
        // Skip over the v2 delta chain, then decode the suffix.
        for n in 0..=trace.len() as u64 {
            let mut src = FileSource::from_reader(&buf[..]).unwrap();
            assert_eq!(src.skip(n), n);
            let rest: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
            assert_eq!(
                rest,
                trace.records()[n as usize..],
                "suffix after skipping {n}"
            );
        }
    }

    #[test]
    fn truncated_v2_body_surfaces_as_error() {
        let trace = sample_trace();
        let encoded = trace.encode_v2();
        let header = TraceFileHeader::for_trace(&encoded, "w", 0, 0);
        let mut buf = Vec::new();
        header.write_trace(&mut buf, &encoded).unwrap();
        let short = &buf[..buf.len() - 1];
        let mut src = FileSource::from_reader(short).unwrap();
        while src.next_record().is_some() {}
        assert!(
            src.error().is_some(),
            "truncation must not look like a clean end"
        );
    }

    #[test]
    fn open_names_the_missing_path() {
        let path = std::env::temp_dir().join("resim-no-such-trace-file.trace");
        let err = FileSource::open(&path).unwrap_err();
        assert_eq!(err.path(), path.as_path());
        assert!(matches!(
            err.error(),
            FileError::Io(io::ErrorKind::NotFound)
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("resim-no-such-trace-file.trace"),
            "message must name the file: {msg}"
        );
    }

    #[test]
    fn open_names_the_path_on_version_mismatch() {
        let trace = sample_trace();
        let mut buf = container(&trace);
        buf[6] = 0x7B; // layout version 123
        let path = std::env::temp_dir().join(format!(
            "resim-trace-badlayout-{}.trace",
            std::process::id()
        ));
        std::fs::write(&path, &buf).unwrap();
        let err = FileSource::open(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err.path(), path.as_path());
        assert!(matches!(
            err.error(),
            FileError::UnsupportedLayout { found: 123, .. }
        ));
        let msg = err.to_string();
        assert!(msg.contains("badlayout"), "{msg}");
        assert!(msg.contains("123"), "{msg}");
    }

    #[test]
    fn save_names_the_path_on_failure() {
        let trace = sample_trace();
        let encoded = trace.encode();
        let header = TraceFileHeader::for_trace(&encoded, "w", 0, 0);
        let path = std::env::temp_dir()
            .join("resim-no-such-dir")
            .join("out.trace");
        let err = save_trace_file(&path, &header, &encoded).unwrap_err();
        assert_eq!(err.path(), path.as_path());
        assert!(matches!(err.error(), FileError::Io(_)));
        assert!(err.to_string().contains("out.trace"));
    }

    #[test]
    fn oversized_workload_id_is_rejected_at_write() {
        let trace = sample_trace();
        let encoded = trace.encode();
        let header = TraceFileHeader::for_trace(&encoded, "w".repeat(70_000), 0, 0);
        let err = header.write_to(Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
