//! Packet types modeled after Intel PT.

use serde::{Deserialize, Serialize};

/// One trace packet. The inventory mirrors the Intel PT packets ER relies
/// on; payloads are simplified (e.g. TIP carries a function id rather than a
/// compressed virtual address) but the information content is the same.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Packet {
    /// Packet stream boundary: a synchronization point the decoder can
    /// resume from after an overflow or ring-buffer wrap.
    Psb,
    /// Internal buffer overflow: packets were lost before this point.
    Ovf,
    /// Taken/not-taken bits for up to 255 conditional branches, oldest
    /// first.
    Tnt {
        /// Number of valid bits.
        count: u8,
        /// Bit `i` (LSB-first across bytes) is branch `i`'s outcome.
        bits: Vec<u8>,
    },
    /// Target of a transfer the TNT stream cannot encode (here: a direct
    /// call's target function).
    Tip {
        /// Target function id.
        target: u32,
    },
    /// A function return (PT compresses most returns to single bits; we
    /// model them as a dedicated packet).
    Ret,
    /// A `ptwrite` payload.
    Ptw {
        /// The recorded 64-bit value.
        value: u64,
    },
    /// A timestamp.
    Tsc {
        /// Virtual time (the machine's global instruction counter).
        tsc: u64,
    },
    /// Trace resumed for a software thread (models PGE plus the PIP/VMCS
    /// context PT uses to attribute trace to a context).
    Pge {
        /// Thread id now executing.
        tid: u64,
    },
}

impl Packet {
    /// Encoded size in bytes under [`crate::codec`].
    pub fn encoded_len(&self) -> usize {
        match self {
            Packet::Psb | Packet::Ovf | Packet::Ret => 1,
            Packet::Tnt { bits, .. } => 2 + bits.len(),
            Packet::Tip { .. } => 5,
            Packet::Ptw { .. } | Packet::Tsc { .. } | Packet::Pge { .. } => 9,
        }
    }
}

/// A packet as a decoder walks it: a [`Packet`] whose TNT bit bytes are
/// borrowed from the stream being decoded instead of copied into a `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketRef<'a> {
    /// See [`Packet::Psb`].
    Psb,
    /// See [`Packet::Ovf`].
    Ovf,
    /// See [`Packet::Tnt`].
    Tnt {
        /// Number of valid bits.
        count: u8,
        /// Bit `i` (LSB-first across bytes) is branch `i`'s outcome.
        bits: &'a [u8],
    },
    /// See [`Packet::Tip`].
    Tip {
        /// Target function id.
        target: u32,
    },
    /// See [`Packet::Ret`].
    Ret,
    /// See [`Packet::Ptw`].
    Ptw {
        /// The recorded 64-bit value.
        value: u64,
    },
    /// See [`Packet::Tsc`].
    Tsc {
        /// Virtual time.
        tsc: u64,
    },
    /// See [`Packet::Pge`].
    Pge {
        /// Thread id now executing.
        tid: u64,
    },
}

impl PacketRef<'_> {
    /// The owned packet.
    pub fn to_packet(self) -> Packet {
        match self {
            PacketRef::Psb => Packet::Psb,
            PacketRef::Ovf => Packet::Ovf,
            PacketRef::Tnt { count, bits } => Packet::Tnt {
                count,
                bits: bits.to_vec(),
            },
            PacketRef::Tip { target } => Packet::Tip { target },
            PacketRef::Ret => Packet::Ret,
            PacketRef::Ptw { value } => Packet::Ptw { value },
            PacketRef::Tsc { tsc } => Packet::Tsc { tsc },
            PacketRef::Pge { tid } => Packet::Pge { tid },
        }
    }
}

/// Where the codec's walk delivers packets: a flat event stream in
/// production ([`crate::sink::PtTrace::decode`]), a packet vector for the
/// codec's own reference decode ([`crate::codec::decode`]), so both come
/// from the same parser.
pub(crate) trait PacketSink {
    /// Receives the next packet.
    fn packet(&mut self, p: PacketRef<'_>);
    /// Discards every packet received so far: a wrapped trace's decode
    /// restarts at the next sync point after damage.
    fn restart(&mut self);
}

impl PacketSink for Vec<Packet> {
    fn packet(&mut self, p: PacketRef<'_>) {
        self.push(p.to_packet());
    }

    fn restart(&mut self) {
        self.clear();
    }
}

/// The thread both executors start on.
const MAIN_TID: u64 = 0;

/// Flattens walked packets straight into [`TraceEvent`]s, expanding each
/// TNT packet's bits in place (no per-packet allocation).
///
/// This is the one place that knows what scheduling noise is. A TSC packet
/// yields no event: the order of PGE packets already is the cross-thread
/// order, and no consumer reads a timestamp's value. A PGE naming the
/// thread that is already running (a quantum boundary, which changes
/// nothing) yields none either. The running thread starts as the main
/// thread (tid 0 in both executors) and is unknown after a gap or a
/// resync restart, so the first PGE past lost packets always shows.
#[derive(Debug)]
pub(crate) struct EventStream {
    events: Vec<TraceEvent>,
    packets: usize,
    wrapped: bool,
    /// The tid of the last PGE, `None` where packets were lost.
    running: Option<u64>,
}

impl EventStream {
    /// An empty stream with room for `capacity` events; packets from a
    /// `wrapped` ring lost their prefix, so the events start with a
    /// [`TraceEvent::Gap`].
    pub(crate) fn new(wrapped: bool, capacity: usize) -> Self {
        let mut events = Vec::with_capacity(capacity.max(usize::from(wrapped)));
        if wrapped {
            events.push(TraceEvent::Gap);
        }
        EventStream {
            events,
            packets: 0,
            wrapped,
            running: (!wrapped).then_some(MAIN_TID),
        }
    }

    /// The events, and how many packets they came from.
    pub(crate) fn finish(self) -> (Vec<TraceEvent>, usize) {
        (self.events, self.packets)
    }
}

impl PacketSink for EventStream {
    #[inline]
    fn packet(&mut self, p: PacketRef<'_>) {
        self.packets += 1;
        let ev = match p {
            PacketRef::Psb | PacketRef::Tsc { .. } => return,
            PacketRef::Ovf => {
                self.running = None;
                TraceEvent::Gap
            }
            PacketRef::Tnt { count, bits } => {
                self.events.extend(
                    (0..usize::from(count))
                        .map(|i| TraceEvent::Branch(bits[i / 8] >> (i % 8) & 1 == 1)),
                );
                return;
            }
            PacketRef::Tip { target } => TraceEvent::Call(target),
            PacketRef::Ret => TraceEvent::Ret,
            PacketRef::Ptw { value } => TraceEvent::PtWrite(value),
            PacketRef::Pge { tid } => {
                if self.running.replace(tid) == Some(tid) {
                    return;
                }
                TraceEvent::ThreadResume(tid)
            }
        };
        self.events.push(ev);
    }

    fn restart(&mut self) {
        self.events.truncate(usize::from(self.wrapped));
        self.packets = 0;
        self.running = None;
    }
}

/// A fully decoded, flattened trace event — what the offline analysis
/// engine consumes after unpacking TNT bit runs. Every event changes what
/// the traced program does next: decoding drops timestamps and resumes of
/// the running thread, so two runs that differ only in where their
/// quantum boundaries fell decode to the same events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Conditional branch outcome.
    Branch(bool),
    /// Direct call to a function id.
    Call(u32),
    /// Function return.
    Ret,
    /// `ptwrite` payload.
    PtWrite(u64),
    /// Thread `tid` took over the CPU from another thread (or is the
    /// first thread seen after a gap).
    ThreadResume(u64),
    /// Packets were lost here (overflow or wrap); downstream analyses must
    /// treat the trace prefix as missing.
    Gap,
}

/// What a warm start's prefix compare reads of an event.
impl er_minilang::trace::DecodedEvent for TraceEvent {
    fn branch(&self) -> Option<bool> {
        match *self {
            TraceEvent::Branch(taken) => Some(taken),
            _ => None,
        }
    }

    fn is_call(&self, func: er_minilang::FuncId) -> bool {
        *self == TraceEvent::Call(func.0)
    }

    fn is_ret(&self) -> bool {
        *self == TraceEvent::Ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_len_matches_shape() {
        assert_eq!(Packet::Psb.encoded_len(), 1);
        assert_eq!(Packet::Tip { target: 3 }.encoded_len(), 5);
        assert_eq!(Packet::Ptw { value: 1 }.encoded_len(), 9);
        assert_eq!(
            Packet::Tnt {
                count: 10,
                bits: vec![0xff, 0x03]
            }
            .encoded_len(),
            4
        );
    }
}
