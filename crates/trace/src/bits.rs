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
//! The reader pulls the body a block at a time, and a field is an
//! unaligned 8-byte load from the block, a shift and a mask, not a loop
//! over its bits.
//!
//! Record decoders read their fields through the [`BitFields`] trait, so
//! one decoder body runs over either of two readers:
//!
//! * **The checked reader**, [`StreamBits`] itself. Every field is tested
//!   against the declared bit length and the bytes buffered, and the
//!   block is refilled on exact demand. A short or failing body therefore
//!   stops at the field that first lacks a bit, as a bit-at-a-time
//!   reader would.
//! * **The window reader**, [`WindowBits`], which
//!   [`StreamBits::windows`] lends when the block and the declared
//!   length both hold at least a given span of bits. A field there is
//!   only a load, a shift and a mask: no `Option`, no I/O test and no
//!   length test.
//!
//! The window's span is the most bits the decoder can read for one
//! record on any input (the v2 layout's `MAX_V2_RECORD_BITS`, set by its
//! varint and run-length group limits). Inside a window, no field can
//! run past the declared length or past the bytes read, so no field that
//! the checked reader would fail is ever read there. `Truncated` and I/O
//! errors therefore arise only on the checked path. Every other error
//! comes from the decoder body, which both readers share, so every value,
//! every error and every stop point is the same whichever reader a record
//! went through.

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

/// Bytes allocated past a block's capacity, so the 8-byte load behind a
/// field at any buffered bit stays inside the allocation.
const LOAD_SLACK: usize = 8;

/// The `nbits` (1–32) bits at bit offset `bit` of `block`: an unaligned
/// little-endian 8-byte load, a shift and a mask.
#[inline(always)]
fn load_bits(block: &[u8], bit: usize, nbits: u32) -> u32 {
    let at = bit / 8;
    let word = u64::from_le_bytes(block[at..at + 8].try_into().expect("an 8-byte slice"));
    ((word >> (bit % 8)) & ((1u64 << nbits) - 1)) as u32
}

/// What a record decoder reads its bit fields through: the checked
/// [`StreamBits`], or a [`WindowBits`] over a span the caller has
/// already bounds-checked.
pub(crate) trait BitFields {
    /// Reads `nbits` (1–32) bits; `None` if fewer remain.
    fn get(&mut self, nbits: u32) -> Option<u32>;

    /// Whether no bits remain.
    fn is_empty(&self) -> bool;

    /// Reads one flag bit.
    #[inline(always)]
    fn get_bool(&mut self) -> Option<bool> {
        self.get(1).map(|b| b == 1)
    }

    /// Reads a flag bit, then `nbits` (1–31) value bits.
    #[inline(always)]
    fn get_group(&mut self, nbits: u32) -> Option<(bool, u32)> {
        let flag = self.get_bool()?;
        Some((flag, self.get(nbits)?))
    }

    /// Reads a presence bit, then `nbits` (1–31) value bits only if it
    /// is set.
    #[inline(always)]
    fn get_present(&mut self, nbits: u32) -> Option<Option<u32>> {
        if self.get_bool()? {
            self.get(nbits).map(Some)
        } else {
            Some(None)
        }
    }
}

/// Reads back values packed by [`BitWriter`] from an [`io::Read`], a
/// block at a time.
///
/// Body bytes are read into a block of at most [`BLOCK_BYTES`] (never
/// more than the declared body, so an inflated header cannot make it
/// allocate by the declared length), and a value is one unaligned load,
/// shift and mask at the cursor's bit offset in the block.
///
/// Every `get` checks the field against the declared length and the
/// bytes buffered, and reads happen on exact demand: the block is
/// refilled only when a `get` or `skip_bits` needs a bit it does not
/// hold, so a body shorter than declared fails at the same call, after
/// the same records, as a bit-at-a-time reader would.
///
/// [`StreamBits::windows`] lends a [`WindowBits`] over a span the
/// block and the declared length both hold, for decoders that can bound
/// how far they read: inside it no field can be short, so none is
/// checked.
///
/// The total payload bit length comes from the caller (the container
/// header); an I/O error — including a body shorter than that length,
/// reported as [`io::ErrorKind::UnexpectedEof`] — is parked in
/// `io_error`, bit reads then report exhaustion, and
/// [`FileSource`](crate::FileSource) surfaces it as
/// [`FileError::Io`](crate::FileError::Io).
#[derive(Debug)]
pub(crate) struct StreamBits<R: Read> {
    reader: R,
    total_bits: u64,
    pos: u64,
    /// Body bytes read: `block[..tail]` is valid, and [`LOAD_SLACK`]
    /// bytes follow the capacity.
    block: Vec<u8>,
    tail: usize,
    /// Bit offset in `block` of the bit at `pos`.
    bit: usize,
    /// Body bytes not yet requested from `reader`.
    unread: u64,
    io_error: Option<io::Error>,
}

impl<R: Read> StreamBits<R> {
    /// Creates a reader over `reader` holding exactly `total_bits` valid
    /// bits.
    pub(crate) fn new(reader: R, total_bits: u64) -> Self {
        let unread = total_bits.div_ceil(8);
        let capacity = unread.min(BLOCK_BYTES as u64) as usize;
        Self {
            reader,
            total_bits,
            pos: 0,
            block: vec![0; capacity + LOAD_SLACK],
            tail: 0,
            bit: 0,
            unread,
            io_error: None,
        }
    }

    /// Takes the parked I/O error, if a read failed.
    pub(crate) fn take_io_error(&mut self) -> Option<io::Error> {
        self.io_error.take()
    }

    /// Reads more body bytes after `block[..tail]`; `false` (with the
    /// error parked) on I/O failure, a 0-byte read counting as
    /// [`io::ErrorKind::UnexpectedEof`].
    fn refill(&mut self) -> bool {
        let capacity = self.block.len() - LOAD_SLACK;
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

    /// Makes the block hold at least `need` (≤ 32) unread bits, reading
    /// only for bits it lacks; `false` on I/O failure.
    ///
    /// Out of line so that `get`'s fast path, a load, a shift and a
    /// mask, stays small enough to inline into the record decoders.
    #[inline(never)]
    fn top_up(&mut self, need: u32) -> bool {
        // Move the unread bytes (at most four) to the front, then read
        // behind them.
        let keep = self.bit / 8;
        self.block.copy_within(keep..self.tail, 0);
        self.tail -= keep;
        self.bit %= 8;
        while self.bit + need as usize > self.tail * 8 {
            if !self.refill() {
                return false;
            }
        }
        true
    }

    /// Runs `decode` over a [`WindowBits`] at the cursor, again and again
    /// while it returns `true` and both the block and the declared
    /// length hold at least `span` more bits; the cursor then stands
    /// where the last call stopped. Reads nothing itself.
    ///
    /// Each call of `decode` must read at most `span` bits, whatever the
    /// bytes: then no field inside a window can be truncated or need a
    /// read, so the checked [`BitFields::get`] would have returned the
    /// same values and stopped at the same bit.
    #[inline]
    pub(crate) fn windows(
        &mut self,
        span: u32,
        mut decode: impl FnMut(&mut WindowBits<'_>) -> bool,
    ) {
        let span = span as usize;
        if self.io_error.is_some() {
            return;
        }
        let room = (self.total_bits - self.pos).min((self.tail * 8 - self.bit) as u64) as usize;
        let Some(last_start) = (self.bit + room).checked_sub(span) else {
            return;
        };
        let start = self.bit;
        let mut window = WindowBits {
            block: &self.block,
            bit: start,
        };
        while window.bit <= last_start {
            let at = window.bit;
            let more = decode(&mut window);
            debug_assert!(
                window.bit - at <= span,
                "read {} bits of a {span}-bit window",
                window.bit - at
            );
            if !more {
                break;
            }
        }
        self.bit = window.bit;
        self.pos += (window.bit - start) as u64;
    }

    /// Advances past `nbits` bits without assembling a value; `false` if
    /// fewer remain (the position is then unchanged unless a read
    /// failed).
    pub(crate) fn skip_bits(&mut self, nbits: u64) -> bool {
        match self.pos.checked_add(nbits) {
            Some(end) if end <= self.total_bits => {}
            _ => return false,
        }
        if self.io_error.is_some() {
            return false;
        }
        // A generic `io::Read` cannot seek: read past the bits instead.
        let mut left = nbits;
        while left > 0 {
            let n = left.min(32) as u32;
            if self.get(n).is_none() {
                return false;
            }
            left -= u64::from(n);
        }
        true
    }

    /// Current read position in bits.
    pub(crate) fn position(&self) -> u64 {
        self.pos
    }

    /// Bits remaining to be read (none once a read has failed).
    pub(crate) fn remaining_bits(&self) -> u64 {
        if self.io_error.is_some() {
            0
        } else {
            self.total_bits - self.pos
        }
    }
}

impl<R: Read> BitFields for StreamBits<R> {
    #[inline]
    fn get(&mut self, nbits: u32) -> Option<u32> {
        assert!(
            (1..=32).contains(&nbits),
            "bit width {nbits} out of range 1..=32"
        );
        if self.io_error.is_some() || self.pos + u64::from(nbits) > self.total_bits {
            return None;
        }
        if self.bit + nbits as usize > self.tail * 8 && !self.top_up(nbits) {
            return None;
        }
        let value = load_bits(&self.block, self.bit, nbits);
        self.bit += nbits as usize;
        self.pos += u64::from(nbits);
        Some(value)
    }

    fn is_empty(&self) -> bool {
        self.remaining_bits() == 0
    }
}

/// A cursor over bits a [`StreamBits`] block is known to hold (see
/// [`StreamBits::windows`]): each field is one load, shift and mask,
/// with no truncation, I/O or position test.
pub(crate) struct WindowBits<'a> {
    block: &'a [u8],
    bit: usize,
}

impl BitFields for WindowBits<'_> {
    #[inline(always)]
    fn get(&mut self, nbits: u32) -> Option<u32> {
        let value = load_bits(self.block, self.bit, nbits);
        self.bit += nbits as usize;
        Some(value)
    }

    fn is_empty(&self) -> bool {
        false
    }

    /// One load for the flag and the value.
    #[inline(always)]
    fn get_group(&mut self, nbits: u32) -> Option<(bool, u32)> {
        let group = self.get(1 + nbits)?;
        Some((group & 1 == 1, group >> 1))
    }

    /// One load for the flag and the value; the value's bits are
    /// consumed only if the flag is set.
    #[inline(always)]
    fn get_present(&mut self, nbits: u32) -> Option<Option<u32>> {
        let field = load_bits(self.block, self.bit, 1 + nbits);
        let present = field & 1 == 1;
        self.bit += if present { 1 + nbits as usize } else { 1 };
        Some(present.then_some(field >> 1))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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
        let mut r = StreamBits::new(&bytes[..], bits);
        assert_eq!(r.get(1), Some(1));
        assert_eq!(r.get(1), Some(0));
        assert_eq!(r.get(6), Some(0x3F));
        assert_eq!(r.get(32), Some(0xDEADBEEF));
        assert_eq!(r.get(3), Some(5));
        assert_eq!(r.remaining_bits(), 0);
        assert_eq!(r.get(1), None);
    }

    #[test]
    fn empty_reader() {
        let mut r = StreamBits::new(&[][..], 0);
        assert_eq!(r.get(1), None);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn bools() {
        let mut w = BitWriter::new();
        w.put_bool(true);
        w.put_bool(false);
        w.put_bool(true);
        let (bytes, bits) = w.finish();
        let mut r = StreamBits::new(&bytes[..], bits);
        assert_eq!(r.get_bool(), Some(true));
        assert_eq!(r.get_bool(), Some(false));
        assert_eq!(r.get_bool(), Some(true));
        assert_eq!(r.get_bool(), None);
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
    fn position_tracking() {
        let mut w = BitWriter::new();
        w.put(0x7, 3);
        w.put(0x1, 2);
        let (bytes, bits) = w.finish();
        let mut r = StreamBits::new(&bytes[..], bits);
        assert_eq!(r.position(), 0);
        r.get(3);
        assert_eq!(r.position(), 3);
        r.get(2);
        assert_eq!(r.position(), 5);
    }

    #[test]
    fn skip_bits_advances_without_reading() {
        let mut w = BitWriter::new();
        w.put(0x5, 3);
        w.put(0xBEEF, 16);
        w.put(0x3, 2);
        let (bytes, bits) = w.finish();
        let mut r = StreamBits::new(&bytes[..], bits);
        assert!(r.skip_bits(3));
        assert_eq!(r.position(), 3);
        assert!(r.skip_bits(16));
        assert_eq!(r.get(2), Some(0x3));
        assert!(!r.skip_bits(1), "nothing left to skip");
        assert_eq!(r.position(), 21, "failed skip must not move");
        assert!(!r.skip_bits(u64::MAX), "overflowing skip must fail cleanly");
        assert_eq!(r.position(), 21);
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
    fn full_u32_values() {
        let mut w = BitWriter::new();
        w.put(u32::MAX, 32);
        w.put(0, 32);
        let (bytes, bits) = w.finish();
        let mut r = StreamBits::new(&bytes[..], bits);
        assert_eq!(r.get(32), Some(u32::MAX));
        assert_eq!(r.get(32), Some(0));
    }

    /// The bit-serial reader `StreamBits` replaced, kept as the oracle:
    /// one bit per step and a 1-byte `read_exact` at every byte boundary.
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

        fn skip_bits(&mut self, nbits: u64) -> bool {
            match self.pos.checked_add(nbits) {
                Some(end) if end <= self.total_bits => {}
                _ => return false,
            }
            if self.io_error.is_some() {
                return false;
            }
            for _ in 0..nbits {
                if !self.refill() {
                    return false;
                }
                self.pos += 1;
            }
            true
        }

        fn remaining_bits(&self) -> u64 {
            if self.io_error.is_some() {
                0
            } else {
                self.total_bits - self.pos
            }
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

    /// Runs one random sequence of `get`/`skip_bits` calls against both
    /// readers, asserting equal values, positions and remaining bits
    /// while reads succeed, and failure at the same call with the same
    /// error kind.
    fn differential_case(seed: u64) {
        let mut rng = Rng(seed);
        let body: Vec<u8> = (0..rng.range(0, 80)).map(|_| rng.next() as u8).collect();
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
        let mut fast = StreamBits::new(reader(1), total_bits);
        let mut slow = SerialBits::new(reader(2), total_bits);
        for call in 0..rng.range(1, 60) {
            let case = format!("seed {seed}, call {call}, total {total_bits}, body {body_bits}");
            let ok = if rng.range(0, 3) == 0 {
                let n = if rng.range(0, 4) == 0 {
                    rng.range(0, 300)
                } else {
                    rng.range(0, 40)
                };
                let got = fast.skip_bits(n);
                assert_eq!(got, slow.skip_bits(n), "{case}: skip_bits({n})");
                got
            } else {
                let n = rng.range(1, 32) as u32;
                let got = fast.get(n);
                assert_eq!(got, slow.get(n), "{case}: get({n})");
                got.is_some()
            };
            let fast_err = fast.io_error.as_ref().map(io::Error::kind);
            let slow_err = slow.io_error.as_ref().map(io::Error::kind);
            assert_eq!(fast_err, slow_err, "{case}: error kind");
            assert_eq!(fast.remaining_bits(), slow.remaining_bits(), "{case}");
            if fast_err.is_some() {
                assert!(!ok, "{case}: a failed read must report failure");
                return;
            }
            assert_eq!(fast.position(), slow.pos, "{case}");
        }
    }

    #[test]
    fn block_reader_matches_the_bit_serial_reader() {
        for seed in 0..3000 {
            differential_case(seed);
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
            let mut fast = StreamBits::new(&body[..], total_bits);
            let mut slow = SerialBits::new(&body[..], total_bits);
            loop {
                let got = if rng.range(0, 8) == 0 {
                    let n = rng.range(0, 20_000);
                    let got = fast.skip_bits(n);
                    assert_eq!(got, slow.skip_bits(n), "case {case}: skip_bits({n})");
                    got
                } else {
                    let n = rng.range(1, 32) as u32;
                    let got = fast.get(n);
                    assert_eq!(got, slow.get(n), "case {case}: get({n})");
                    got.is_some()
                };
                let fast_err = fast.io_error.as_ref().map(io::Error::kind);
                let slow_err = slow.io_error.as_ref().map(io::Error::kind);
                assert_eq!(fast_err, slow_err, "case {case}");
                if fast_err.is_some() || fast.remaining_bits() == 0 {
                    break;
                }
                if got {
                    assert_eq!(fast.position(), slow.pos, "case {case}");
                }
            }
        }
    }

    #[test]
    fn block_is_sized_by_the_body_not_the_header() {
        let r = StreamBits::new(&[0u8; 3][..], 17);
        assert_eq!(r.block.len(), 3 + LOAD_SLACK);
        let r = StreamBits::new(&[][..], u64::MAX);
        assert_eq!(r.block.len(), BLOCK_BYTES + LOAD_SLACK);
    }
}
