//! The nondeterministic environment: input streams and the clock.
//!
//! Everything a run consumes from here is exactly what a record/replay
//! system must log and what symbolic execution treats as unknown (the
//! paper's extended POSIX model treats file contents, socket packets, and
//! clock values as symbolic).

use crate::error::RuntimeFault;
use crate::value::Width;
use std::collections::BTreeMap;

/// A single nondeterministic input event, as consumed by a run.
///
/// An input reads at most 8 bytes, so they are carried inline: producing
/// an event allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputEvent {
    /// Which stream produced the bytes.
    pub source: u32,
    /// Offset of the first byte within the stream.
    pub offset: usize,
    buf: [u8; 8],
    len: u8,
}

impl InputEvent {
    /// The bytes consumed (little-endian value order).
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..usize::from(self.len)]
    }
}

/// Input streams plus a virtual clock.
#[derive(Debug, Clone, Default)]
pub struct Env {
    streams: BTreeMap<u32, Stream>,
    clock: u64,
    clock_step: u64,
}

#[derive(Debug, Clone, Default)]
struct Stream {
    data: Vec<u8>,
    pos: usize,
}

impl Env {
    /// An empty environment (no inputs, clock at zero advancing by 1).
    pub fn new() -> Self {
        Env {
            streams: BTreeMap::new(),
            clock: 0,
            clock_step: 1,
        }
    }

    /// Appends `bytes` to input stream `source`.
    pub fn push_input(&mut self, source: u32, bytes: &[u8]) {
        self.streams.entry(source).or_default().data.extend(bytes);
    }

    /// Sets the virtual clock's starting value and per-read increment.
    pub fn set_clock(&mut self, start: u64, step: u64) {
        self.clock = start;
        self.clock_step = step;
    }

    /// Reads `width` bytes from `source` as a little-endian value, also
    /// reporting the event for recording purposes.
    ///
    /// # Errors
    ///
    /// Faults with [`RuntimeFault::InputExhausted`] when the stream runs dry,
    /// modelling a short read treated as fatal by the program.
    pub fn read_input(
        &mut self,
        source: u32,
        width: Width,
    ) -> Result<(u64, InputEvent), RuntimeFault> {
        let stream = self
            .streams
            .get_mut(&source)
            .ok_or(RuntimeFault::InputExhausted { source })?;
        let n = width.bytes() as usize;
        if stream.pos + n > stream.data.len() {
            return Err(RuntimeFault::InputExhausted { source });
        }
        let offset = stream.pos;
        stream.pos += n;
        let mut buf = [0u8; 8];
        buf[..n].copy_from_slice(&stream.data[offset..offset + n]);
        Ok((
            u64::from_le_bytes(buf),
            InputEvent {
                source,
                offset,
                buf,
                len: n as u8,
            },
        ))
    }

    /// Reads the virtual clock, advancing it.
    pub fn read_clock(&mut self) -> u64 {
        let v = self.clock;
        self.clock = self.clock.wrapping_add(self.clock_step);
        v
    }

    /// Total bytes remaining across all streams.
    pub fn remaining(&self) -> usize {
        self.streams.values().map(|s| s.data.len() - s.pos).sum()
    }

    /// The full contents of stream `source`, consumed or not.
    pub fn stream_data(&self, source: u32) -> Option<&[u8]> {
        self.streams.get(&source).map(|s| s.data.as_slice())
    }

    /// Ids of all streams with any data.
    pub fn sources(&self) -> Vec<u32> {
        self.streams.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_and_tracks_offsets() {
        let mut env = Env::new();
        env.push_input(0, &[0x01, 0x02, 0x03, 0x04, 0xff]);
        let (v, ev) = env.read_input(0, Width::W32).unwrap();
        assert_eq!(v, 0x0403_0201);
        assert_eq!(ev.offset, 0);
        assert_eq!(ev.bytes(), &[0x01, 0x02, 0x03, 0x04]);
        let (v2, ev2) = env.read_input(0, Width::W8).unwrap();
        assert_eq!(v2, 0xff);
        assert_eq!(ev2.offset, 4);
        assert_eq!(ev2.bytes(), &[0xff]);
        assert_eq!(env.remaining(), 0);
    }

    #[test]
    fn exhaustion_faults() {
        let mut env = Env::new();
        env.push_input(3, &[1]);
        assert!(matches!(
            env.read_input(3, Width::W16),
            Err(RuntimeFault::InputExhausted { source: 3 })
        ));
        assert!(matches!(
            env.read_input(9, Width::W8),
            Err(RuntimeFault::InputExhausted { source: 9 })
        ));
    }

    #[test]
    fn clock_advances() {
        let mut env = Env::new();
        env.set_clock(100, 10);
        assert_eq!(env.read_clock(), 100);
        assert_eq!(env.read_clock(), 110);
    }

    #[test]
    fn multiple_streams_are_independent() {
        let mut env = Env::new();
        env.push_input(0, &[1, 2]);
        env.push_input(1, &[9]);
        assert_eq!(env.read_input(1, Width::W8).unwrap().0, 9);
        assert_eq!(env.read_input(0, Width::W8).unwrap().0, 1);
        assert_eq!(env.sources(), vec![0, 1]);
        assert_eq!(env.stream_data(0), Some(&[1u8, 2][..]));
    }
}
