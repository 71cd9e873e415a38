//! Return Address Stack: the paper's default is 16 entries (§V.C).
//!
//! The RAS is a circular stack: pushing past capacity overwrites the
//! oldest entry (standard hardware behaviour), and popping an empty stack
//! yields no prediction.

/// A circular return-address stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ras {
    entries: Vec<u32>,
    /// Index of the next free slot (top-of-stack is `top - 1`).
    top: usize,
    /// Number of live entries (≤ capacity).
    depth: usize,
    pushes: u64,
    pops: u64,
    underflows: u64,
    overflows: u64,
}

impl Ras {
    /// Creates an empty RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be non-zero");
        Self {
            entries: vec![0; capacity],
            top: 0,
            depth: 0,
            pushes: 0,
            pops: 0,
            underflows: 0,
            overflows: 0,
        }
    }

    /// The paper's default 16-entry RAS.
    pub fn paper() -> Self {
        Self::new(16)
    }

    /// Stack capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Live entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether the stack holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Pushes a return address (a call was predicted/executed).
    ///
    /// When full, the oldest entry is silently overwritten (circular).
    pub fn push(&mut self, return_addr: u32) {
        self.pushes += 1;
        if self.depth == self.capacity() {
            self.overflows += 1;
        } else {
            self.depth += 1;
        }
        self.entries[self.top] = return_addr;
        self.top = (self.top + 1) % self.capacity();
    }

    /// Pops the predicted return address, or `None` on underflow.
    pub fn pop(&mut self) -> Option<u32> {
        self.pops += 1;
        if self.depth == 0 {
            self.underflows += 1;
            return None;
        }
        self.depth -= 1;
        self.top = (self.top + self.capacity() - 1) % self.capacity();
        Some(self.entries[self.top])
    }

    /// The current top of stack without popping.
    pub fn peek(&self) -> Option<u32> {
        if self.depth == 0 {
            None
        } else {
            let idx = (self.top + self.capacity() - 1) % self.capacity();
            Some(self.entries[idx])
        }
    }

    /// Zeroes the traffic counters, keeping the stack contents.
    pub(crate) fn reset_stats(&mut self) {
        self.pushes = 0;
        self.pops = 0;
        self.underflows = 0;
        self.overflows = 0;
    }

    /// Total pushes performed.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total pops performed (including underflows).
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Pops that found an empty stack.
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Pushes that overwrote a live entry.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = Ras::new(4);
        ras.push(0x100);
        ras.push(0x200);
        ras.push(0x300);
        assert_eq!(ras.pop(), Some(0x300));
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
        assert_eq!(ras.underflows(), 1);
    }

    #[test]
    fn circular_overflow_keeps_newest() {
        let mut ras = Ras::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // overwrites 1
        assert_eq!(ras.overflows(), 1);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None, "overwritten entry is gone");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut ras = Ras::paper();
        assert_eq!(ras.capacity(), 16);
        ras.push(0xAA);
        assert_eq!(ras.peek(), Some(0xAA));
        assert_eq!(ras.depth(), 1);
        assert_eq!(ras.pop(), Some(0xAA));
        assert!(ras.is_empty());
    }

    #[test]
    fn deep_call_chain_roundtrip() {
        let mut ras = Ras::new(16);
        for i in 0..16u32 {
            ras.push(0x1000 + i * 8);
        }
        for i in (0..16u32).rev() {
            assert_eq!(ras.pop(), Some(0x1000 + i * 8));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Ras::new(0);
    }
}
