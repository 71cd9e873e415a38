//! The bit-granular writer and reader behind the trace codec.
//!
//! Records are variable-length bit strings ("each with its own fields and
//! length", paper §V.A), so the codec cannot rely on byte alignment. Bits
//! are packed LSB-first into a byte vector by [`BitWriter`] and read back
//! by [`StreamBits`], the one reader every encoded stream decodes
//! through: an in-memory body is read as an `&[u8]`, an on-disk container
//! as a buffered file.

use std::io::{self, Read};

/// Appends values of 1–32 bits into a growing byte buffer, LSB-first.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitWriter {
    /// Exactly `len_bits.div_ceil(8)` bytes; bits past `len_bits` in the
    /// last byte are zero.
    buf: Vec<u8>,
    /// Number of valid bits in `buf`.
    len_bits: u64,
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
        // Shift the value past the bits already used in the last byte:
        // at most 7 + 32 bits, so one u64 holds the whole span.
        let used = (self.len_bits % 8) as usize;
        let span = (u64::from(value) << used).to_le_bytes();
        let mut first = 0;
        if used != 0 {
            *self.buf.last_mut().expect("a partial byte is buffered") |= span[0];
            first = 1;
        }
        let end = (used + nbits as usize).div_ceil(8);
        self.buf.extend_from_slice(&span[first..end]);
        self.len_bits += u64::from(nbits);
    }

    /// Appends a single flag bit.
    pub(crate) fn put_bool(&mut self, value: bool) {
        self.put(u32::from(value), 1);
    }

    /// Pads with zero bits up to the next byte boundary (a no-op when
    /// already aligned).
    pub(crate) fn pad_to_byte(&mut self) {
        // The last byte's unused bits are already zero.
        self.len_bits = self.len_bits.next_multiple_of(8);
    }

    /// Number of bits written so far.
    pub(crate) fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Finishes, returning the packed bytes and the exact bit count.
    pub(crate) fn finish(self) -> (Vec<u8>, u64) {
        (self.buf, self.len_bits)
    }
}

/// Reads back values packed by [`BitWriter`], pulling bytes on demand
/// from an [`io::Read`].
///
/// The total payload bit length comes from the caller (the container
/// header); an I/O error — including a body shorter than that length —
/// is parked in `io_error`, bit reads then report exhaustion, and
/// [`FileSource`](crate::FileSource) surfaces it as
/// [`FileError::Io`](crate::FileError::Io).
#[derive(Debug)]
pub(crate) struct StreamBits<R: Read> {
    reader: R,
    total_bits: u64,
    pos: u64,
    /// The byte currently being consumed bit by bit.
    cur: u8,
    io_error: Option<io::Error>,
}

impl<R: Read> StreamBits<R> {
    /// Creates a reader over `reader` holding exactly `total_bits` valid
    /// bits.
    pub(crate) fn new(reader: R, total_bits: u64) -> Self {
        Self {
            reader,
            total_bits,
            pos: 0,
            cur: 0,
            io_error: None,
        }
    }

    /// Takes the parked I/O error, if a read failed.
    pub(crate) fn take_io_error(&mut self) -> Option<io::Error> {
        self.io_error.take()
    }

    /// Loads the byte holding bit `pos` when crossing a byte boundary;
    /// `false` on I/O failure (including a body shorter than declared).
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

    /// Reads `nbits` (1–32) bits; `None` if fewer remain.
    pub(crate) fn get(&mut self, nbits: u32) -> Option<u32> {
        assert!(
            (1..=32).contains(&nbits),
            "bit width {nbits} out of range 1..=32"
        );
        if self.io_error.is_some() || self.pos + u64::from(nbits) > self.total_bits {
            return None;
        }
        let mut value = 0u32;
        for i in 0..nbits {
            if !self.refill() {
                return None;
            }
            let bit = (self.cur >> (self.pos % 8)) & 1;
            value |= u32::from(bit) << i;
            self.pos += 1;
        }
        Some(value)
    }

    /// Reads one flag bit.
    pub(crate) fn get_bool(&mut self) -> Option<bool> {
        self.get(1).map(|b| b == 1)
    }

    /// Advances past `nbits` bits without assembling a value; `false` if
    /// fewer remain (the position is then unchanged unless a read
    /// failed).
    pub(crate) fn skip_bits(&mut self, nbits: u64) -> bool {
        // A generic `io::Read` cannot seek, so skipping still consumes
        // bytes — but without assembling values, and whole bytes at a
        // time once aligned.
        match self.pos.checked_add(nbits) {
            Some(end) if end <= self.total_bits => {}
            _ => return false,
        }
        if self.io_error.is_some() {
            return false;
        }
        let mut left = nbits;
        // Finish the partially consumed byte.
        while left > 0 && !self.pos.is_multiple_of(8) {
            self.pos += 1;
            left -= 1;
        }
        let mut bytes = left / 8;
        let mut chunk = [0u8; 256];
        while bytes > 0 {
            let n = bytes.min(chunk.len() as u64) as usize;
            if let Err(e) = self.reader.read_exact(&mut chunk[..n]) {
                self.io_error = Some(e);
                return false;
            }
            self.pos += n as u64 * 8;
            left -= n as u64 * 8;
            bytes -= n as u64;
        }
        // Enter the trailing partial byte, if any.
        while left > 0 {
            if !self.refill() {
                return false;
            }
            self.pos += 1;
            left -= 1;
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

#[cfg(test)]
mod tests {
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
}
