//! The workspace's platform-stable content hash: FNV-1a over a
//! canonical little-endian byte feed.
//!
//! Every identity in ReSim — trace-generation and engine-configuration
//! fingerprints, statistics digests, scenario-cell cache keys, on-disk
//! entry checksums — hashes the same way, so equal content produces
//! equal 64-bit words on every platform, process and Rust version
//! (unlike `std::hash::Hash`, whose hasher is randomized per process).
//! It lives in this leaf crate so every crate above it shares the one
//! implementation.

/// An incremental FNV-1a 64-bit hasher.
///
/// ```
/// use resim_trace::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_u64(2009);
/// h.write_str("gzip");
/// let a = h.finish();
///
/// let mut h = Fnv64::new();
/// h.write_u64(2009);
/// h.write_str("gzip");
/// assert_eq!(h.finish(), a, "same feed, same hash");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    hash: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Self { hash: Self::OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Feeds a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a string as its length (so adjacent strings cannot alias)
    /// followed by its UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.hash
    }

    /// One-shot convenience over a byte slice.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "adjacent strings must not alias");
    }
}
