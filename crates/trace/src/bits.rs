//! The bit-granular writer and reader behind the trace codec.
//!
//! Records are variable-length bit strings ("each with its own fields and
//! length", paper §V.A), so the codec cannot rely on byte alignment. Bits
//! are packed LSB-first into a byte vector by [`BitWriter`] and read back
//! by [`StreamBits`], the one reader every encoded stream decodes
//! through: an in-memory body is read as an `&[u8]`, an on-disk container
//! as a buffered file.
//!
//! The writer gathers bits in a 64-bit word and stores them to the byte
//! vector 32 at a time, so appending a field is an or, a shift and an
//! add, not a store per byte. The encoders compose each run of adjacent
//! fixed-width fields (a record's format, tag and leading fields; all its
//! register fields; a varint group with its continuation flag) into one
//! value, so a record costs a few appends rather than one per field. The
//! bytes are the same as a bit-at-a-time writer's, which the tests below
//! check against one.
//!
//! The reader pulls the body a block at a time and hands a record decoder
//! a [`WindowBits`] at the cursor. A field there is one unaligned 8-byte
//! load from the block, a shift and a mask: no `Option`, no I/O test and
//! no length test. Each layout bounds how many bits its decoder reads for
//! one record on any input, well-formed or not (its *span*:
//! `MAX_V1_RECORD_BITS`, `MAX_V2_RECORD_BITS`). Before a record, the
//! reader tops the block up until it holds a span past the cursor or the
//! rest of the declared body; a failed read is parked, not reported.
//!
//! Whether the record fit is checked once, at its end. A record that ends
//! within the bits available, the declared length and the bytes read
//! alike, stands with the decoder's own result. One that ends past them
//! fails, with the parked I/O error if the body came up short, else with
//! [`DecodeError::Truncated`]. The decoder only reads forward, so its end
//! is past the limit exactly when one of its fields is: a reader that
//! tested every field (the bit-serial oracle in the tests) stops after
//! the same records, whatever the block holds past the last byte read.
//! The error can differ from that reader's in one case only: a body both
//! shorter than declared and holding a field that crosses the last byte
//! read and the declared end at once, which the per-field reader calls
//! `Truncated` and this one calls the I/O error. A body that is only cut
//! short never does: its crossing field is one the writer wrote, inside
//! the declared length.

use crate::codec::DecodeError;
use crate::file::FileError;
use std::io::{self, Read};

/// Appends values of 1–32 bits into a growing byte buffer, LSB-first.
///
/// Bits gather in a 64-bit accumulator; whenever it holds 32 or more,
/// its low 32 go out to the buffer as one 4-byte store. A `put` is thus
/// an or, a shift and an add, and only one in every few appends touches
/// the `Vec`. Callers help by composing adjacent fixed-width fields into
/// one value, so a record costs a handful of `put`s rather than one per
/// field.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitWriter {
    /// The flushed words, little-endian: always a multiple of 4 bytes.
    buf: Vec<u8>,
    /// Bits not yet flushed, LSB-first; bits past `pending` are zero.
    acc: u64,
    /// Number of valid bits in `acc`: below 32 between calls.
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends the low `nbits` bits of `value` (1–32).
    ///
    /// # Panics
    ///
    /// Panics if `nbits` is 0 or greater than 32, or if `value` has bits
    /// set above `nbits`.
    #[inline]
    pub(crate) fn put(&mut self, value: u32, nbits: u32) {
        assert!(
            (1..=32).contains(&nbits),
            "bit width {nbits} out of range 1..=32"
        );
        if nbits < 32 {
            assert!(
                value < (1u32 << nbits),
                "value {value:#x} does not fit in {nbits} bits"
            );
        }
        // Fewer than 32 bits are pending, so at most 63 are after this.
        self.acc |= u64::from(value) << self.pending;
        self.pending += nbits;
        if self.pending >= 32 {
            self.flush_word();
        }
    }

    /// Moves the accumulator's low 32 bits to the buffer.
    #[inline]
    fn flush_word(&mut self) {
        self.buf.extend_from_slice(&(self.acc as u32).to_le_bytes());
        self.acc >>= 32;
        self.pending -= 32;
    }

    /// Appends a single flag bit.
    pub(crate) fn put_bool(&mut self, value: bool) {
        self.put(u32::from(value), 1);
    }

    /// Pads with zero bits up to the next byte boundary (a no-op when
    /// already aligned).
    pub(crate) fn pad_to_byte(&mut self) {
        // The buffer holds whole words, so only the accumulator can be
        // unaligned, and its bits past `pending` are already zero.
        self.pending = self.pending.next_multiple_of(8);
        if self.pending == 32 {
            self.flush_word();
        }
    }

    /// Number of bits written so far.
    pub(crate) fn len_bits(&self) -> u64 {
        self.buf.len() as u64 * 8 + u64::from(self.pending)
    }

    /// Finishes, returning the packed bytes and the exact bit count:
    /// `len_bits.div_ceil(8)` bytes, with the bits past `len_bits` in the
    /// last byte zero.
    pub(crate) fn finish(mut self) -> (Vec<u8>, u64) {
        let len_bits = self.len_bits();
        let tail = self.pending.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        (self.buf, len_bits)
    }
}

/// Largest body block a [`StreamBits`] buffers: big enough that one
/// `read` call serves thousands of records (and that `BufReader` hands
/// it straight to the file), small enough to cost nothing per source.
const BLOCK_BYTES: usize = 16 * 1024;

/// Bytes allocated past a block's capacity so that an 8-byte load at any
/// bit up to `span` past the last byte read stays inside the allocation
/// (`LOAD_SLACK`): a record starts at most at the last bit read and reads
/// at most `span` bits.
fn load_slack(span: usize) -> usize {
    span.div_ceil(8) + 8
}

/// The `nbits` (1–32) bits at bit offset `bit` of `block`: an unaligned
/// little-endian 8-byte load, a shift and a mask.
#[inline(always)]
fn load_bits(block: &[u8], bit: usize, nbits: u32) -> u32 {
    let at = bit / 8;
    let word = u64::from_le_bytes(block[at..at + 8].try_into().expect("an 8-byte slice"));
    ((word >> (bit % 8)) & ((1u64 << nbits) - 1)) as u32
}

/// Reads back values packed by [`BitWriter`] from an [`io::Read`], a
/// block at a time, one record per [`WindowBits`].
///
/// Body bytes are read into a block of at most [`BLOCK_BYTES`] (never
/// more than the declared body, so an inflated header cannot make it
/// allocate by the declared length). The total payload bit length comes
/// from the caller (the container header), and so does the span, the
/// most bits one record can read.
///
/// An I/O error, including a body shorter than its length (reported as
/// [`io::ErrorKind::UnexpectedEof`]), is parked when a read fails, and
/// surfaces as [`FileError::Io`] only if a record runs past the bytes
/// read: a short file still yields every record that lies fully inside
/// them.
#[derive(Debug)]
pub(crate) struct StreamBits<R: Read> {
    reader: R,
    /// Declared bits past the cursor.
    left: u64,
    /// Body bytes read: `block[..tail]` is valid, and `load_slack(span)`
    /// bytes follow the capacity.
    block: Vec<u8>,
    tail: usize,
    /// Bit offset in `block` of the cursor.
    bit: usize,
    /// Body bytes not yet requested from `reader`.
    unread: u64,
    /// The most bits one record can read.
    span: usize,
    io_error: Option<io::Error>,
}

impl<R: Read> StreamBits<R> {
    /// Creates a reader over `reader` holding exactly `total_bits` valid
    /// bits, for records of at most `span` bits.
    pub(crate) fn new(reader: R, total_bits: u64, span: u32) -> Self {
        let span = span as usize;
        let unread = total_bits.div_ceil(8);
        let capacity = unread.min(BLOCK_BYTES as u64) as usize;
        Self {
            reader,
            left: total_bits,
            block: vec![0; capacity + load_slack(span)],
            tail: 0,
            bit: 0,
            unread,
            span,
            io_error: None,
        }
    }

    /// Reads more body bytes after `block[..tail]`; `false` (with the
    /// error parked) on I/O failure, a 0-byte read counting as
    /// [`io::ErrorKind::UnexpectedEof`].
    fn refill(&mut self) -> bool {
        let capacity = self.block.len() - load_slack(self.span);
        let want = self.unread.min((capacity - self.tail) as u64) as usize;
        loop {
            match self
                .reader
                .read(&mut self.block[self.tail..self.tail + want])
            {
                Ok(0) => {
                    self.io_error = Some(io::ErrorKind::UnexpectedEof.into());
                    return false;
                }
                Ok(n) => {
                    self.tail += n;
                    self.unread -= n as u64;
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.io_error = Some(e);
                    return false;
                }
            }
        }
    }

    /// Reads until the block holds a span past the cursor or the rest of
    /// the declared body, or a read fails; returns the block offset where
    /// the bits available end.
    #[inline]
    fn top_up(&mut self) -> usize {
        let want = self.left.min(self.span as u64) as usize;
        if self.tail * 8 - self.bit < want && self.io_error.is_none() {
            self.read_ahead(want);
        }
        self.bit + self.left.min((self.tail * 8 - self.bit) as u64) as usize
    }

    /// Moves the unread bytes (less than a span) to the front of the
    /// block, then reads behind them until it holds `want` bits past the
    /// cursor or a read fails.
    #[inline(never)]
    fn read_ahead(&mut self, want: usize) {
        let keep = self.bit / 8;
        self.block.copy_within(keep..self.tail, 0);
        self.tail -= keep;
        self.bit %= 8;
        while self.tail * 8 - self.bit < want && self.refill() {}
    }

    /// Why a record ran past the bits available: the parked I/O error if
    /// the body came up short, else the declared length.
    fn overrun(&mut self) -> FileError {
        match self.io_error.take() {
            Some(e) => FileError::Io(e.kind()),
            None => FileError::Decode(DecodeError::Truncated),
        }
    }

    /// Decodes up to `max` records at the cursor, each through a window
    /// with `decode`, and hands each to `take`. Returns how many it took,
    /// and the error that stopped it short of `max`, if one did.
    ///
    /// `decode` must read at most the span for one record, whatever the
    /// bytes. Records run back to back through one window while the
    /// block holds a span past each; the block is topped up between.
    #[inline]
    pub(crate) fn decode<T>(
        &mut self,
        max: u64,
        mut decode: impl FnMut(&mut WindowBits<'_>) -> Result<T, DecodeError>,
        mut take: impl FnMut(T),
    ) -> (u64, Option<FileError>) {
        let mut n = 0;
        while n < max {
            let limit = self.top_up();
            // Past this, the next record might not fit.
            let last_start = limit.saturating_sub(self.span);
            let start = self.bit;
            let mut window = WindowBits {
                block: &self.block,
                bit: start,
            };
            let (mut overran, mut failed) = (false, None);
            loop {
                let at = window.bit;
                let got = decode(&mut window);
                debug_assert!(
                    window.bit - at <= self.span,
                    "read {} bits of a {}-bit span",
                    window.bit - at,
                    self.span
                );
                if window.bit > limit {
                    // The cursor stays at the record's start, inside the block.
                    window.bit = at;
                    overran = true;
                    break;
                }
                match got {
                    Ok(record) => {
                        take(record);
                        n += 1;
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
                if n == max || window.bit > last_start {
                    break;
                }
            }
            self.left -= (window.bit - start) as u64;
            self.bit = window.bit;
            if overran {
                return (n, Some(self.overrun()));
            }
            if let Some(e) = failed {
                return (n, Some(FileError::Decode(e)));
            }
        }
        (n, None)
    }
}

/// A cursor over a [`StreamBits`] block (see [`StreamBits::decode`]):
/// each field is one load, shift and mask, with no truncation, I/O or
/// position test.
pub(crate) struct WindowBits<'a> {
    block: &'a [u8],
    bit: usize,
}

impl WindowBits<'_> {
    /// Reads `nbits` (1–32) bits.
    #[inline(always)]
    pub(crate) fn get(&mut self, nbits: u32) -> u32 {
        let value = load_bits(self.block, self.bit, nbits);
        self.bit += nbits as usize;
        value
    }

    /// Reads one flag bit.
    #[inline(always)]
    pub(crate) fn get_bool(&mut self) -> bool {
        self.get(1) == 1
    }

    /// Reads a flag bit, then `nbits` (1–31) value bits, in one load.
    #[inline(always)]
    pub(crate) fn get_group(&mut self, nbits: u32) -> (bool, u32) {
        let group = self.get(1 + nbits);
        (group & 1 == 1, group >> 1)
    }

    /// Reads a presence bit, then `nbits` (1–31) value bits only if it is
    /// set, in one load.
    #[inline(always)]
    pub(crate) fn get_present(&mut self, nbits: u32) -> Option<u32> {
        let field = load_bits(self.block, self.bit, 1 + nbits);
        let present = field & 1 == 1;
        self.bit += if present { 1 + nbits as usize } else { 1 };
        present.then_some(field >> 1)
    }

    /// Skips to the next byte boundary of the stream (the block starts on
    /// one).
    #[inline(always)]
    pub(crate) fn align_to_byte(&mut self) {
        self.bit = self.bit.next_multiple_of(8);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Reads `bytes` through windows as `decode` calls of a reader over
    /// all of them, returning each call's result and how many bits it
    /// read: how a record decoder sees its input.
    pub(crate) fn read_windows<T>(
        bytes: &[u8],
        calls: usize,
        mut decode: impl FnMut(&mut WindowBits<'_>) -> T,
    ) -> Vec<(T, usize)> {
        let mut block = bytes.to_vec();
        block.resize(bytes.len() + load_slack(MAX_SPAN), 0);
        let mut window = WindowBits {
            block: &block,
            bit: 0,
        };
        (0..calls)
            .map(|_| {
                let at = window.bit;
                let value = decode(&mut window);
                (value, window.bit - at)
            })
            .collect()
    }

    /// The longest span any layout uses.
    const MAX_SPAN: usize = 359;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.put(1, 1);
        w.put(0, 1);
        w.put(0x3F, 6);
        w.put(0xDEADBEEF, 32);
        w.put(5, 3);
        let total = w.len_bits();
        assert_eq!(total, 1 + 1 + 6 + 32 + 3);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, total);
        let got = read_windows(&bytes, 1, |r| {
            [r.get(1), r.get(1), r.get(6), r.get(32), r.get(3)]
        });
        assert_eq!(got, [([1, 0, 0x3F, 0xDEADBEEF, 5], total as usize)]);
    }

    #[test]
    fn bools_groups_and_presence() {
        let mut w = BitWriter::new();
        w.put_bool(true);
        w.put_bool(false);
        w.put(1 | 0x55 << 1, 8);
        w.put(0, 1);
        w.put(1 | 42 << 1, 7);
        let (bytes, bits) = w.finish();
        let got = read_windows(&bytes, 1, |r| {
            (
                r.get_bool(),
                r.get_bool(),
                r.get_group(7),
                r.get_present(6),
                r.get_present(6),
            )
        });
        let want = (true, false, (true, 0x55), None, Some(42));
        assert_eq!(got, [(want, bits as usize)]);
    }

    #[test]
    fn align_to_byte_skips_to_the_boundary() {
        let got = read_windows(&[0xFF; 4], 3, |r| {
            r.get(3);
            r.align_to_byte();
        });
        assert_eq!(got.iter().map(|&(_, n)| n).collect::<Vec<_>>(), [8, 8, 8]);
    }

    #[test]
    fn an_empty_body_truncates_the_first_record() {
        let mut r = StreamBits::new(&[][..], 0, 8);
        let (n, error) = r.decode(1, |w| Ok(w.get(1)), |_| {});
        assert_eq!(
            (n, error),
            (0, Some(FileError::Decode(DecodeError::Truncated)))
        );
        let (n, error) = StreamBits::new(&[][..], 0, 8).decode(0, |w| Ok(w.get(1)), |_| {});
        assert_eq!((n, error), (0, None), "no record asked for, none read");
    }

    #[test]
    fn a_record_may_read_a_whole_span_past_the_last_byte() {
        // One byte read, and a record of `span` one-bit fields from its
        // first bit: the last load starts `span - 1` bits in.
        for span in [9, 88, MAX_SPAN as u32] {
            for total_bits in [8, 9 * 8] {
                let mut r = StreamBits::new(&[0xA5][..], total_bits, span);
                let (n, error) = r.decode(
                    1,
                    |w| {
                        for _ in 0..span {
                            w.get(1);
                        }
                        Ok(())
                    },
                    |_| {},
                );
                let want = if total_bits == 8 {
                    FileError::Decode(DecodeError::Truncated)
                } else {
                    FileError::Io(io::ErrorKind::UnexpectedEof)
                };
                assert_eq!((n, error), (0, Some(want)), "span {span}");
            }
        }
    }

    /// The bit-serial writer `BitWriter` replaced, kept as the oracle.
    #[derive(Default)]
    struct SerialWriter {
        buf: Vec<u8>,
        len_bits: u64,
    }

    impl SerialWriter {
        fn put(&mut self, value: u32, nbits: u32) {
            for i in 0..nbits {
                if self.len_bits.is_multiple_of(8) {
                    self.buf.push(0);
                }
                let byte = (self.len_bits / 8) as usize;
                self.buf[byte] |= (((value >> i) & 1) as u8) << (self.len_bits % 8);
                self.len_bits += 1;
            }
        }

        fn pad_to_byte(&mut self) {
            self.len_bits = self.len_bits.next_multiple_of(8);
        }
    }

    #[test]
    fn matches_the_bit_serial_writer_at_every_width_and_offset() {
        for width in 1..=32u32 {
            let max = u32::MAX >> (32 - width);
            for value in [max, 0, 0x5555_5555 & max, 0xA5C3_0F96 & max, 1] {
                for offset in 0..=7u32 {
                    let mut fast = BitWriter::new();
                    let mut slow = SerialWriter::default();
                    // A prefix of `offset` set bits, the value, then a
                    // trailing flag to show the value's top is clean.
                    let puts = [(0x7Fu32 >> (7 - offset), offset), (value, width), (1, 1)];
                    for &(v, n) in puts.iter().filter(|&&(_, n)| n > 0) {
                        fast.put(v, n);
                        slow.put(v, n);
                    }
                    let case = format!("width {width}, value {value:#x}, offset {offset}");
                    assert_eq!(fast.len_bits(), slow.len_bits, "{case}");
                    let (bytes, bits) = fast.finish();
                    assert_eq!(bytes, slow.buf, "{case}");
                    assert_eq!(bits, slow.len_bits, "{case}");
                }
            }
        }
    }

    #[test]
    fn matches_the_bit_serial_writer_over_long_mixed_sequences() {
        let mut rng = Rng(2009);
        for case in 0..40 {
            let mut fast = BitWriter::new();
            let mut slow = SerialWriter::default();
            for op in 0..rng.range(1, 600) {
                if rng.range(0, 9) == 0 {
                    fast.pad_to_byte();
                    slow.pad_to_byte();
                } else {
                    let width = rng.range(1, 32) as u32;
                    let value = rng.next() as u32 >> (32 - width);
                    fast.put(value, width);
                    slow.put(value, width);
                }
                assert_eq!(fast.len_bits(), slow.len_bits, "case {case}, op {op}");
                let (bytes, bits) = fast.clone().finish();
                assert_eq!(bytes, slow.buf, "case {case}, op {op}");
                assert_eq!(bits, slow.len_bits, "case {case}, op {op}");
            }
        }
    }

    #[test]
    fn pad_to_byte_appends_zero_bits_to_the_boundary() {
        let mut w = BitWriter::new();
        w.pad_to_byte();
        assert_eq!(w.len_bits(), 0, "an empty writer is aligned");
        w.put(0b111, 3);
        w.pad_to_byte();
        assert_eq!(w.len_bits(), 8);
        w.pad_to_byte();
        assert_eq!(w.len_bits(), 8, "aligned stays put");
        w.put(0x1, 1);
        let (bytes, bits) = w.finish();
        assert_eq!((bytes, bits), (vec![0b111, 0b1], 9));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_value_panics() {
        let mut w = BitWriter::new();
        w.put(8, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_panics() {
        let mut w = BitWriter::new();
        w.put(0, 0);
    }

    #[test]
    fn full_u32_values() {
        let mut w = BitWriter::new();
        w.put(u32::MAX, 32);
        w.put(0, 32);
        let (bytes, _) = w.finish();
        let got = read_windows(&bytes, 2, |r| r.get(32));
        assert_eq!(got, [(u32::MAX, 32), (0, 32)]);
    }

    /// The bit-serial reader `StreamBits` replaced, kept as the oracle:
    /// one bit per step, a 1-byte `read_exact` at every byte boundary,
    /// and every field checked against the declared length and the bytes
    /// read before it is taken.
    struct SerialBits<R: Read> {
        reader: R,
        total_bits: u64,
        pos: u64,
        cur: u8,
        io_error: Option<io::Error>,
    }

    impl<R: Read> SerialBits<R> {
        fn new(reader: R, total_bits: u64) -> Self {
            Self {
                reader,
                total_bits,
                pos: 0,
                cur: 0,
                io_error: None,
            }
        }

        fn refill(&mut self) -> bool {
            if !self.pos.is_multiple_of(8) {
                return true;
            }
            let mut byte = [0u8; 1];
            match self.reader.read_exact(&mut byte) {
                Ok(()) => {
                    self.cur = byte[0];
                    true
                }
                Err(e) => {
                    self.io_error = Some(e);
                    false
                }
            }
        }

        fn get(&mut self, nbits: u32) -> Option<u32> {
            if self.io_error.is_some() || self.pos + u64::from(nbits) > self.total_bits {
                return None;
            }
            let mut value = 0u32;
            for i in 0..nbits {
                if !self.refill() {
                    return None;
                }
                value |= u32::from((self.cur >> (self.pos % 8)) & 1) << i;
                self.pos += 1;
            }
            Some(value)
        }
    }

    /// SplitMix64: a tiny deterministic generator for the differential
    /// cases, here and in `codec_v2`.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo + 1)
        }
    }

    /// An `io::Read` that hands out 1–3 bytes per call, injects
    /// `Interrupted` before some calls, and ends its body with a 0-byte
    /// read or with `end_error`.
    struct Dribble {
        body: Vec<u8>,
        at: usize,
        rng: Rng,
        end_error: Option<io::ErrorKind>,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.rng.range(0, 3) == 0 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if self.at == self.body.len() {
                return match self.end_error {
                    Some(kind) => Err(kind.into()),
                    None => Ok(0),
                };
            }
            let n = (self.rng.range(1, 3) as usize)
                .min(buf.len())
                .min(self.body.len() - self.at);
            buf[..n].copy_from_slice(&self.body[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// A test record: the widths of its fields, at most `MAX_SPAN` bits
    /// in all. A decoder reading it fails with `BadEnum` at a 3-bit field
    /// that reads 7, and reads no further.
    type Shape = Vec<u32>;

    fn random_shapes(rng: &mut Rng, count: u64) -> Vec<Shape> {
        (0..count)
            .map(|_| {
                let mut left = rng.range(1, MAX_SPAN as u64) as u32;
                let mut shape = Vec::new();
                while left > 0 {
                    let n = (rng.range(1, 32) as u32).min(left);
                    shape.push(n);
                    left -= n;
                }
                shape
            })
            .collect()
    }

    const BAD_FIELD: DecodeError = DecodeError::BadEnum("test field");

    /// Reads the records of `shapes` field by field through the oracle:
    /// the values of every record read whole, then the error that stopped
    /// it, as the per-field reader reported it (`Truncated` if the field
    /// failed the declared length, the I/O error if a read failed).
    fn serial_outcome<R: Read>(
        mut slow: SerialBits<R>,
        shapes: &[Shape],
    ) -> (Vec<Vec<u32>>, Option<FileError>) {
        let mut records = Vec::new();
        for shape in shapes {
            let mut values = Vec::new();
            for &n in shape {
                let Some(v) = slow.get(n) else {
                    let error = match &slow.io_error {
                        Some(e) => FileError::Io(e.kind()),
                        None => FileError::Decode(DecodeError::Truncated),
                    };
                    return (records, Some(error));
                };
                if n == 3 && v == 7 {
                    return (records, Some(FileError::Decode(BAD_FIELD)));
                }
                values.push(v);
            }
            records.push(values);
        }
        (records, None)
    }

    /// Reads the records of `shapes` through `fast` in batches of 1–7, as
    /// `FileSource` does, with the same values and the same error rule.
    fn window_outcome<R: Read>(
        mut fast: StreamBits<R>,
        shapes: &[Shape],
        rng: &mut Rng,
    ) -> (Vec<Vec<u32>>, Option<FileError>) {
        let mut records = Vec::new();
        let mut next = 0;
        while next < shapes.len() {
            let max = rng.range(1, 7).min((shapes.len() - next) as u64);
            let (n, error) = fast.decode(
                max,
                |w| {
                    let shape = &shapes[next];
                    next += 1;
                    let mut values = Vec::new();
                    for &n in shape {
                        let v = w.get(n);
                        if n == 3 && v == 7 {
                            return Err(BAD_FIELD);
                        }
                        values.push(v);
                    }
                    Ok(values)
                },
                |values| records.push(values),
            );
            assert!(n == max || error.is_some(), "a batch stopped short");
            if error.is_some() {
                return (records, error);
            }
        }
        (records, None)
    }

    /// Reads one random body through the new reader and the oracle, over
    /// `reader(salt)`, and checks that both yield the same records and
    /// stop with the same error. The one departure: a body shorter than
    /// its declared length, where the oracle can say `Truncated` for a
    /// field that crosses both the last byte read and the declared end,
    /// reports the read's I/O error, `end`.
    fn differential_case<R: Read>(
        seed: u64,
        body_len: usize,
        total_bits: u64,
        end: io::ErrorKind,
        reader: impl Fn(u64) -> R,
    ) {
        let mut rng = Rng(seed);
        let count = rng.range(1, 2 + body_len as u64 / 8);
        let shapes = random_shapes(&mut rng, count);
        let case = format!("seed {seed}, body {body_len} bytes, total {total_bits} bits");
        let short = (body_len as u64) < total_bits.div_ceil(8);
        let fast = window_outcome(
            StreamBits::new(reader(1), total_bits, MAX_SPAN as u32),
            &shapes,
            &mut rng,
        );
        let (records, error) = serial_outcome(SerialBits::new(reader(2), total_bits), &shapes);
        let error = match error {
            Some(FileError::Decode(DecodeError::Truncated)) if short => Some(FileError::Io(end)),
            other => other,
        };
        assert_eq!(fast, (records, error), "{case}");
    }

    #[test]
    fn block_reader_matches_the_bit_serial_reader() {
        for seed in 0..3000 {
            let mut rng = Rng(seed);
            let body: Vec<u8> = (0..rng.range(0, 300)).map(|_| rng.next() as u8).collect();
            let body_bits = body.len() as u64 * 8;
            // Every third body is shorter than it declares.
            let total_bits = if seed.is_multiple_of(3) {
                body_bits + rng.range(1, 200)
            } else {
                body_bits - rng.range(0, 7).min(body_bits)
            };
            let end_error = seed
                .is_multiple_of(5)
                .then_some(io::ErrorKind::ConnectionReset);
            let reader = |salt: u64| Dribble {
                body: body.clone(),
                at: 0,
                rng: Rng(seed ^ salt),
                end_error,
            };
            let end = end_error.unwrap_or(io::ErrorKind::UnexpectedEof);
            differential_case(seed, body.len(), total_bits, end, reader);
        }
    }

    #[test]
    fn block_reader_matches_the_bit_serial_reader_over_slices() {
        let mut rng = Rng(2009);
        for case in 0..500 {
            // Bodies past one block, so refills land mid-record.
            let body: Vec<u8> = (0..rng.range(0, 40_000))
                .map(|_| rng.next() as u8)
                .collect();
            let body_bits = body.len() as u64 * 8;
            let total_bits = if case % 4 == 0 {
                body_bits + rng.range(1, 64)
            } else {
                body_bits - rng.range(0, 7).min(body_bits)
            };
            let end = io::ErrorKind::UnexpectedEof;
            differential_case(case, body.len(), total_bits, end, |_| &body[..]);
        }
    }

    #[test]
    fn block_is_sized_by_the_body_not_the_header() {
        let r = StreamBits::new(&[0u8; 3][..], 17, 88);
        assert_eq!(r.block.len(), 3 + load_slack(88));
        let r = StreamBits::new(&[][..], u64::MAX, 359);
        assert_eq!(r.block.len(), BLOCK_BYTES + load_slack(359));
        assert_eq!(load_slack(359), 53, "45 bytes of span and one load");
    }
}
