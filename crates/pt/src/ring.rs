//! The trace ring buffer.
//!
//! ER configures "a 64 MB ring buffer for each monitored application"
//! (paper §4). Writing past capacity overwrites the oldest bytes, exactly
//! like the hardware's circular output region; the decoder then starts from
//! the first PSB packet it can find.

/// A fixed-capacity circular byte buffer.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    data: Vec<u8>,
    capacity: usize,
    /// Next write position (monotonically increasing; modulo capacity gives
    /// the physical offset).
    written: u64,
}

impl RingBuffer {
    /// A ring holding at most `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer {
            data: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            written: 0,
        }
    }

    /// Appends `bytes`, overwriting the oldest data when full.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        // Fast path: the buffer has not filled yet and the write fits.
        if self.data.len() + bytes.len() <= self.capacity && self.written == self.data.len() as u64
        {
            self.data.extend_from_slice(bytes);
            self.written += bytes.len() as u64;
            return;
        }
        // Slow path: fill the tail, then wrap with slice copies.
        let mut rest = bytes;
        if self.data.len() < self.capacity {
            let take = rest.len().min(self.capacity - self.data.len());
            self.data.extend_from_slice(&rest[..take]);
            self.written += take as u64;
            rest = &rest[take..];
        }
        while !rest.is_empty() {
            let pos = (self.written % self.capacity as u64) as usize;
            let take = rest.len().min(self.capacity - pos);
            self.data[pos..pos + take].copy_from_slice(&rest[..take]);
            self.written += take as u64;
            rest = &rest[take..];
        }
    }

    /// Appends one byte.
    #[inline]
    pub fn push(&mut self, byte: u8) {
        self.write(std::slice::from_ref(&byte));
    }

    /// Total bytes ever written (including overwritten ones).
    pub fn total_written(&self) -> u64 {
        self.written
    }

    /// Whether older data has been overwritten.
    pub fn wrapped(&self) -> bool {
        self.written > self.capacity as u64
    }

    /// Number of bytes lost to overwriting (0 until the ring wraps).
    pub fn overwrites(&self) -> u64 {
        self.written.saturating_sub(self.capacity as u64)
    }

    /// The retained bytes, oldest first.
    pub fn snapshot(&self) -> Vec<u8> {
        if !self.wrapped() {
            return self.data.clone();
        }
        let split = (self.written % self.capacity as u64) as usize;
        let mut out = Vec::with_capacity(self.capacity);
        out.extend_from_slice(&self.data[split..]);
        out.extend_from_slice(&self.data[..split]);
        out
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_in_order_when_not_full() {
        let mut r = RingBuffer::new(8);
        r.write(&[1, 2, 3]);
        assert_eq!(r.snapshot(), vec![1, 2, 3]);
        assert!(!r.wrapped());
        assert_eq!(r.total_written(), 3);
    }

    #[test]
    fn wraps_and_keeps_newest() {
        let mut r = RingBuffer::new(4);
        r.write(&[1, 2, 3, 4, 5, 6]);
        assert!(r.wrapped());
        assert_eq!(r.snapshot(), vec![3, 4, 5, 6]);
        assert_eq!(r.total_written(), 6);
        assert_eq!(r.overwrites(), 2);
    }

    #[test]
    fn exact_fill_does_not_count_as_wrap() {
        let mut r = RingBuffer::new(4);
        r.write(&[1, 2, 3, 4]);
        assert!(!r.wrapped());
        assert_eq!(r.snapshot(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn single_byte_pushes() {
        let mut r = RingBuffer::new(2);
        r.push(9);
        r.push(8);
        r.push(7);
        assert_eq!(r.snapshot(), vec![8, 7]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = RingBuffer::new(0);
    }
}
