//! Byte-level packet encoding and decoding.
//!
//! The format keeps PT's key property — conditional branches cost roughly
//! one *bit* — while staying easy to decode deterministically:
//!
//! | opcode | packet | layout |
//! |---|---|---|
//! | `0xA0` | PSB | opcode only |
//! | `0xA1` | OVF | opcode only |
//! | `0xA2` | TNT | `count: u8`, then `ceil(count/8)` bit bytes |
//! | `0xA3` | TIP | `target: u32 LE` |
//! | `0xA4` | RET | opcode only |
//! | `0xA5` | PTW | `value: u64 LE` |
//! | `0xA6` | TSC | `tsc: u64 LE` |
//! | `0xA7` | PGE | `tid: u64 LE` |

use crate::packet::Packet;
use std::fmt;

pub(crate) const OP_PSB: u8 = 0xA0;
pub(crate) const OP_OVF: u8 = 0xA1;
pub(crate) const OP_TNT: u8 = 0xA2;
pub(crate) const OP_TIP: u8 = 0xA3;
pub(crate) const OP_RET: u8 = 0xA4;
pub(crate) const OP_PTW: u8 = 0xA5;
pub(crate) const OP_TSC: u8 = 0xA6;
pub(crate) const OP_PGE: u8 = 0xA7;

/// Encodes `packet` into `out`.
pub fn encode_into(packet: &Packet, out: &mut Vec<u8>) {
    match packet {
        Packet::Psb => out.push(OP_PSB),
        Packet::Ovf => out.push(OP_OVF),
        Packet::Tnt { count, bits } => {
            debug_assert_eq!(bits.len(), (*count as usize).div_ceil(8));
            out.push(OP_TNT);
            out.push(*count);
            out.extend_from_slice(bits);
        }
        Packet::Tip { target } => {
            out.push(OP_TIP);
            out.extend_from_slice(&target.to_le_bytes());
        }
        Packet::Ret => out.push(OP_RET),
        Packet::Ptw { value } => {
            out.push(OP_PTW);
            out.extend_from_slice(&value.to_le_bytes());
        }
        Packet::Tsc { tsc } => {
            out.push(OP_TSC);
            out.extend_from_slice(&tsc.to_le_bytes());
        }
        Packet::Pge { tid } => {
            out.push(OP_PGE);
            out.extend_from_slice(&tid.to_le_bytes());
        }
    }
}

/// Encodes a packet sequence to bytes.
pub fn encode(packets: &[Packet]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in packets {
        encode_into(p, &mut out);
    }
    out
}

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A packet was cut off at the end of the byte stream.
    Truncated {
        /// Offset of the truncated packet's opcode.
        at: usize,
    },
    /// An unknown opcode outside a resynchronization scan.
    BadOpcode {
        /// The offending byte.
        opcode: u8,
        /// Its offset.
        at: usize,
    },
    /// The buffer wrapped and no PSB exists to resynchronize from.
    NoSyncPoint,
    /// A structurally invalid field (bad run length, oversized varint)
    /// in a compressed stream ([`crate::compress`]).
    Corrupt {
        /// Offset of the malformed packet's opcode.
        at: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { at } => write!(f, "truncated packet at byte {at}"),
            DecodeError::BadOpcode { opcode, at } => {
                write!(f, "bad opcode {opcode:#04x} at byte {at}")
            }
            DecodeError::NoSyncPoint => write!(f, "wrapped trace has no PSB to sync from"),
            DecodeError::Corrupt { at } => write!(f, "corrupt compressed packet at byte {at}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes a clean (unwrapped) byte stream.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation or unknown opcodes.
pub fn decode(bytes: &[u8]) -> Result<Vec<Packet>, DecodeError> {
    decode_from(bytes, 0)
}

/// Decodes starting at `start`, e.g. after [`resync`].
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation or unknown opcodes.
pub fn decode_from(bytes: &[u8], start: usize) -> Result<Vec<Packet>, DecodeError> {
    let mut out = Vec::new();
    let mut i = start;
    let n = bytes.len();
    let need = |i: usize, k: usize, at: usize| {
        if i + k > n {
            Err(DecodeError::Truncated { at })
        } else {
            Ok(())
        }
    };
    while i < n {
        let at = i;
        let op = bytes[i];
        i += 1;
        match op {
            OP_PSB => out.push(Packet::Psb),
            OP_OVF => out.push(Packet::Ovf),
            OP_RET => out.push(Packet::Ret),
            OP_TNT => {
                need(i, 1, at)?;
                let count = bytes[i];
                i += 1;
                let nb = (count as usize).div_ceil(8);
                need(i, nb, at)?;
                out.push(Packet::Tnt {
                    count,
                    bits: bytes[i..i + nb].to_vec(),
                });
                i += nb;
            }
            OP_TIP => {
                need(i, 4, at)?;
                let target = u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
                i += 4;
                out.push(Packet::Tip { target });
            }
            OP_PTW | OP_TSC | OP_PGE => {
                need(i, 8, at)?;
                let v = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
                i += 8;
                out.push(match op {
                    OP_PTW => Packet::Ptw { value: v },
                    OP_TSC => Packet::Tsc { tsc: v },
                    _ => Packet::Pge { tid: v },
                });
            }
            opcode => return Err(DecodeError::BadOpcode { opcode, at }),
        }
    }
    Ok(out)
}

/// How many bytes [`resync`] validates past a candidate PSB before
/// accepting it. A payload byte masquerading as PSB desynchronizes the
/// packet grammar almost immediately (payloads are at most 33 bytes), so a
/// few KiB of clean structure is overwhelming evidence of a real sync
/// point — and bounding the scan keeps resync linear in the buffer size
/// instead of quadratic.
pub const RESYNC_LOOKAHEAD: usize = 4096;

/// Finds the first PSB at or after `from`, for resynchronizing in a wrapped
/// buffer. A PSB opcode byte can also appear inside another packet's
/// payload, so candidates are validated by walking the packet structure
/// over a bounded window ([`RESYNC_LOOKAHEAD`] bytes). Truncated tails are
/// accepted: a wrapped or cut-short buffer legitimately ends mid-packet,
/// and rejecting it would discard every real sync point in a damaged
/// trace.
pub fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len())
        .filter(|&i| bytes[i] == OP_PSB)
        .find(|&i| plausible_from(bytes, i))
}

/// Structurally validates a bounded window after a candidate sync point.
/// Walks packet lengths without materializing packets, so each candidate
/// costs O(`RESYNC_LOOKAHEAD`) instead of a full-suffix decode.
fn plausible_from(bytes: &[u8], start: usize) -> bool {
    let window_end = bytes.len().min(start.saturating_add(RESYNC_LOOKAHEAD));
    let mut i = start;
    while i < window_end {
        match bytes[i] {
            OP_PSB | OP_OVF | OP_RET => i += 1,
            OP_TIP => i += 5,
            OP_PTW | OP_TSC | OP_PGE => i += 9,
            OP_TNT => {
                let Some(&count) = bytes.get(i + 1) else {
                    // The count byte itself was cut off: a truncated tail,
                    // which is a valid place for a damaged buffer to end.
                    return true;
                };
                i += 2 + (count as usize).div_ceil(8);
            }
            _ => return false,
        }
    }
    // Either the window was clean, or the final packet's payload extends
    // past the end of the buffer (a truncated tail) — both are plausible.
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(packets: Vec<Packet>) {
        let bytes = encode(&packets);
        assert_eq!(decode(&bytes).unwrap(), packets);
    }

    #[test]
    fn roundtrips_every_packet_kind() {
        roundtrip(vec![
            Packet::Psb,
            Packet::Pge { tid: 0 },
            Packet::Tsc { tsc: 12345 },
            Packet::Tnt {
                count: 10,
                bits: vec![0b1010_1010, 0b0000_0011],
            },
            Packet::Tip { target: 7 },
            Packet::Ptw {
                value: 0xdead_beef_cafe_f00d,
            },
            Packet::Ret,
            Packet::Ovf,
        ]);
    }

    #[test]
    fn empty_stream_decodes_empty() {
        assert_eq!(decode(&[]).unwrap(), vec![]);
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&[Packet::Ptw { value: 42 }]);
        let err = decode(&bytes[..5]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { at: 0 }));
    }

    #[test]
    fn bad_opcode_detected() {
        let err = decode(&[0x42]).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::BadOpcode {
                opcode: 0x42,
                at: 0
            }
        ));
    }

    #[test]
    fn resync_skips_partial_head() {
        let mut bytes = vec![0x11, 0x22]; // garbage from a wrapped packet
        bytes.extend(encode(&[Packet::Psb, Packet::Ret]));
        let at = resync(&bytes, 0).unwrap();
        assert_eq!(at, 2);
        assert_eq!(
            decode_from(&bytes, at).unwrap(),
            vec![Packet::Psb, Packet::Ret]
        );
    }

    #[test]
    fn resync_accepts_truncated_tail() {
        // A wrapped buffer that ends mid-packet still has a perfectly good
        // sync point; the old full-decode validation wrongly rejected it.
        let mut bytes = vec![0x13]; // garbage from a wrapped packet
        bytes.extend(encode(&[Packet::Psb, Packet::Ptw { value: 7 }]));
        bytes.truncate(bytes.len() - 3); // cut the PTW payload short
        let at = resync(&bytes, 0).expect("truncated tail is a valid sync point");
        assert_eq!(at, 1);
        assert!(matches!(
            decode_from(&bytes, at),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn resync_validation_is_bounded() {
        // Damage far beyond the lookahead window does not disqualify a
        // candidate: validation is O(RESYNC_LOOKAHEAD), and distant damage
        // is the decode loop's problem, not resync's.
        let mut bytes = encode(&[Packet::Psb]);
        bytes.extend(std::iter::repeat_n(super::OP_RET, RESYNC_LOOKAHEAD));
        bytes.push(0xFF);
        assert_eq!(resync(&bytes, 0), Some(0));
    }

    #[test]
    fn resync_rejects_psb_byte_inside_payload() {
        // A PTW whose payload contains the PSB opcode byte: resync must not
        // lock onto the payload byte.
        let packets = vec![
            Packet::Ptw {
                value: u64::from(OP_PSB),
            },
            Packet::Psb,
            Packet::Ret,
        ];
        let bytes = encode(&packets);
        let at = resync(&bytes, 1).unwrap();
        assert_eq!(bytes[at], OP_PSB);
        let decoded = decode_from(&bytes, at).unwrap();
        assert_eq!(decoded, vec![Packet::Psb, Packet::Ret]);
    }
}
