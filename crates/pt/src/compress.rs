//! Run-length/delta compression of PT packet streams for fleet-scale
//! trace shipping.
//!
//! The raw [`codec`] format is what the *hardware* writes:
//! fixed-width payloads (8-byte TSC/PTW/PGE, 4-byte TIP) and one TNT
//! packet per 64 branches. Shipping ring-buffer snapshots from every
//! instance of a production fleet to the analysis engine makes the wire
//! and storage format worth optimizing, so this module re-encodes packet
//! streams with the classic trace tricks:
//!
//! * **TNT run merging** — consecutive full TNT packets collapse into one
//!   run header plus a contiguous bit payload; loop-heavy traces are long
//!   runs of identical bit bytes, so the payload is further byte-RLE'd.
//! * **TSC deltas** — timestamps are monotone counters; the zigzag-varint
//!   delta from the previous TSC is 1–2 bytes instead of 8.
//! * **PTW deltas** — recorded data values are frequently clustered
//!   (indices, small keys), so they delta-chain too.
//! * **Varint TIP/PGE** — control-flow targets and thread ids are small.
//! * **RET run-length** — return bursts (call-stack unwinds) collapse.
//!
//! The format is *exactly* round-trip faithful: for any packet sequence
//! `p`, `decompress(&compress(&p)) == p`, byte-for-byte including TNT
//! padding bits (property-tested against [`codec`] in
//! `tests/prop_compress.rs`). Compression is measured by
//! [`ratio`]: raw codec bytes over compressed bytes.

use crate::codec::{self, DecodeError};
use crate::packet::Packet;

/// Format version tag (first byte of every compressed stream).
const VERSION: u8 = 0x01;

const C_PSB: u8 = 0x01;
const C_OVF: u8 = 0x02;
const C_RET: u8 = 0x03; // + varint run length
const C_TNT_RUN: u8 = 0x04; // + varint bit count + RLE payload
const C_TNT_RAW: u8 = 0x05; // + count byte + raw bit bytes (non-canonical)
const C_TIP: u8 = 0x06; // + varint target
const C_PTW: u8 = 0x07; // + zigzag varint delta
const C_TSC: u8 = 0x08; // + zigzag varint delta
const C_PGE: u8 = 0x09; // + varint tid

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], i: &mut usize, at: usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*i).ok_or(DecodeError::Truncated { at })?;
        *i += 1;
        if shift >= 64 {
            return Err(DecodeError::Corrupt { at });
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Byte-level RLE: control varints alternate between literal chunks
/// (`n<<1`, then `n` bytes) and runs (`n<<1|1`, then the repeated byte).
fn rle_encode(bytes: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < bytes.len() {
        // Measure the run starting here.
        let b = bytes[i];
        let mut run = 1;
        while i + run < bytes.len() && bytes[i + run] == b {
            run += 1;
        }
        if run >= 3 {
            put_varint(((run as u64) << 1) | 1, out);
            out.push(b);
            i += run;
            continue;
        }
        // Literal chunk: scan forward until the next run of >= 3.
        let start = i;
        i += run;
        while i < bytes.len() {
            let b = bytes[i];
            let mut run = 1;
            while i + run < bytes.len() && bytes[i + run] == b {
                run += 1;
            }
            if run >= 3 {
                break;
            }
            i += run;
        }
        put_varint(((i - start) as u64) << 1, out);
        out.extend_from_slice(&bytes[start..i]);
    }
}

fn rle_decode(
    bytes: &[u8],
    i: &mut usize,
    expect: usize,
    at: usize,
) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::with_capacity(expect.min(1 << 20));
    while out.len() < expect {
        let control = get_varint(bytes, i, at)?;
        let n = usize::try_from(control >> 1).map_err(|_| DecodeError::Corrupt { at })?;
        if control & 1 == 1 {
            let &b = bytes.get(*i).ok_or(DecodeError::Truncated { at })?;
            *i += 1;
            out.extend(std::iter::repeat_n(b, n));
        } else {
            let end = i.checked_add(n).ok_or(DecodeError::Corrupt { at })?;
            if end > bytes.len() {
                return Err(DecodeError::Truncated { at });
            }
            out.extend_from_slice(&bytes[*i..end]);
            *i = end;
        }
    }
    if out.len() != expect {
        return Err(DecodeError::Corrupt { at });
    }
    Ok(out)
}

/// Whether a TNT packet is *canonical*: the shape [`crate::sink::PtSink`]
/// emits (1..=64 bits, exactly `ceil(count/8)` bit bytes). Only canonical
/// packets may join a merged run; anything else is stored verbatim so
/// arbitrary streams still round-trip exactly.
fn canonical_tnt(count: u8, bits: &[u8]) -> bool {
    (1..=64).contains(&count) && bits.len() == (count as usize).div_ceil(8)
}

/// Compresses a packet sequence. Never fails; the output always begins
/// with a one-byte version tag.
pub fn compress(packets: &[Packet]) -> Vec<u8> {
    let mut out = Vec::with_capacity(packets.len() + 1);
    out.push(VERSION);
    let mut last_tsc = 0u64;
    let mut last_ptw = 0u64;
    let mut i = 0;
    while i < packets.len() {
        match &packets[i] {
            Packet::Psb => {
                out.push(C_PSB);
                i += 1;
            }
            Packet::Ovf => {
                out.push(C_OVF);
                i += 1;
            }
            Packet::Ret => {
                let mut run = 1;
                while run < (1 << 24) && matches!(packets.get(i + run), Some(Packet::Ret)) {
                    run += 1;
                }
                out.push(C_RET);
                put_varint(run as u64, &mut out);
                i += run;
            }
            Packet::Tnt { count, bits } if canonical_tnt(*count, bits) => {
                // Greedily merge: every packet but the last must carry a
                // full 64 bits so the decoder can re-split unambiguously.
                let mut nbits = u64::from(*count);
                let mut payload: Vec<u8> = bits.clone();
                let mut run = 1;
                let mut prev_count = *count;
                while prev_count == 64 && nbits < (1 << 29) {
                    match packets.get(i + run) {
                        Some(Packet::Tnt { count, bits }) if canonical_tnt(*count, bits) => {
                            nbits += u64::from(*count);
                            payload.extend_from_slice(bits);
                            prev_count = *count;
                            run += 1;
                        }
                        _ => break,
                    }
                }
                out.push(C_TNT_RUN);
                put_varint(nbits, &mut out);
                rle_encode(&payload, &mut out);
                i += run;
            }
            Packet::Tnt { count, bits } => {
                out.push(C_TNT_RAW);
                out.push(*count);
                put_varint(bits.len() as u64, &mut out);
                out.extend_from_slice(bits);
                i += 1;
            }
            Packet::Tip { target } => {
                out.push(C_TIP);
                put_varint(u64::from(*target), &mut out);
                i += 1;
            }
            Packet::Ptw { value } => {
                out.push(C_PTW);
                put_varint(zigzag(value.wrapping_sub(last_ptw) as i64), &mut out);
                last_ptw = *value;
                i += 1;
            }
            Packet::Tsc { tsc } => {
                out.push(C_TSC);
                put_varint(zigzag(tsc.wrapping_sub(last_tsc) as i64), &mut out);
                last_tsc = *tsc;
                i += 1;
            }
            Packet::Pge { tid } => {
                out.push(C_PGE);
                put_varint(*tid, &mut out);
                i += 1;
            }
        }
    }
    out
}

/// Decompresses a stream produced by [`compress`].
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, an unknown opcode or version,
/// or a malformed run header.
pub fn decompress(bytes: &[u8]) -> Result<Vec<Packet>, DecodeError> {
    let mut out = Vec::new();
    if bytes.is_empty() {
        return Err(DecodeError::Truncated { at: 0 });
    }
    if bytes[0] != VERSION {
        return Err(DecodeError::BadOpcode {
            opcode: bytes[0],
            at: 0,
        });
    }
    let mut last_tsc = 0u64;
    let mut last_ptw = 0u64;
    let mut i = 1;
    while i < bytes.len() {
        let at = i;
        let op = bytes[i];
        i += 1;
        match op {
            C_PSB => out.push(Packet::Psb),
            C_OVF => out.push(Packet::Ovf),
            C_RET => {
                let run = get_varint(bytes, &mut i, at)?;
                if run == 0 || run > (1 << 24) {
                    return Err(DecodeError::Corrupt { at });
                }
                for _ in 0..run {
                    out.push(Packet::Ret);
                }
            }
            C_TNT_RUN => {
                let mut nbits = get_varint(bytes, &mut i, at)?;
                if nbits == 0 || nbits > (1 << 30) {
                    return Err(DecodeError::Corrupt { at });
                }
                // Payload length: full packets carry 8 bytes per 64 bits,
                // the final partial packet ceil(rem/8).
                let full = ((nbits - 1) / 64) as usize;
                let rem = nbits - full as u64 * 64; // 1..=64
                let payload_len = full * 8 + (rem as usize).div_ceil(8);
                let payload = rle_decode(bytes, &mut i, payload_len, at)?;
                let mut off = 0;
                while nbits > 64 {
                    out.push(Packet::Tnt {
                        count: 64,
                        bits: payload[off..off + 8].to_vec(),
                    });
                    off += 8;
                    nbits -= 64;
                }
                out.push(Packet::Tnt {
                    count: nbits as u8,
                    bits: payload[off..].to_vec(),
                });
            }
            C_TNT_RAW => {
                let &count = bytes.get(i).ok_or(DecodeError::Truncated { at })?;
                i += 1;
                let nb = get_varint(bytes, &mut i, at)? as usize;
                if nb > bytes.len() {
                    return Err(DecodeError::Corrupt { at });
                }
                let end = i.checked_add(nb).ok_or(DecodeError::Corrupt { at })?;
                if end > bytes.len() {
                    return Err(DecodeError::Truncated { at });
                }
                out.push(Packet::Tnt {
                    count,
                    bits: bytes[i..end].to_vec(),
                });
                i = end;
            }
            C_TIP => {
                let target = get_varint(bytes, &mut i, at)?;
                let target = u32::try_from(target).map_err(|_| DecodeError::Corrupt { at })?;
                out.push(Packet::Tip { target });
            }
            C_PTW => {
                let d = unzigzag(get_varint(bytes, &mut i, at)?);
                last_ptw = last_ptw.wrapping_add(d as u64);
                out.push(Packet::Ptw { value: last_ptw });
            }
            C_TSC => {
                let d = unzigzag(get_varint(bytes, &mut i, at)?);
                last_tsc = last_tsc.wrapping_add(d as u64);
                out.push(Packet::Tsc { tsc: last_tsc });
            }
            C_PGE => {
                let tid = get_varint(bytes, &mut i, at)?;
                out.push(Packet::Pge { tid });
            }
            opcode => return Err(DecodeError::BadOpcode { opcode, at }),
        }
    }
    Ok(out)
}

/// Compression ratio achieved on `packets`: raw [`codec`] bytes over
/// compressed bytes (higher is better; 1.0 means no gain).
pub fn ratio(packets: &[Packet]) -> f64 {
    let raw = codec::encode(packets).len().max(1);
    let packed = compress(packets).len().max(1);
    raw as f64 / packed as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(packets: Vec<Packet>) {
        let packed = compress(&packets);
        assert_eq!(decompress(&packed).unwrap(), packets);
    }

    #[test]
    fn roundtrips_every_packet_kind() {
        roundtrip(vec![
            Packet::Psb,
            Packet::Pge { tid: 3 },
            Packet::Tsc { tsc: 1_000_000 },
            Packet::Tnt {
                count: 64,
                bits: vec![0xff; 8],
            },
            Packet::Tnt {
                count: 10,
                bits: vec![0xaa, 0x03],
            },
            Packet::Tip { target: 7 },
            Packet::Ptw {
                value: u64::MAX - 3,
            },
            Packet::Ptw { value: 5 },
            Packet::Ret,
            Packet::Ret,
            Packet::Ovf,
        ]);
    }

    #[test]
    fn empty_stream_roundtrips() {
        roundtrip(vec![]);
    }

    #[test]
    fn non_canonical_tnt_is_stored_verbatim() {
        // count > 64 and padding bytes survive exactly.
        roundtrip(vec![
            Packet::Tnt {
                count: 200,
                bits: vec![0x5a; 25],
            },
            Packet::Tnt {
                count: 64,
                bits: vec![1, 2, 3, 4, 5, 6, 7, 8],
            },
            Packet::Tnt {
                count: 3,
                bits: vec![0xff], // padding bits set: must survive
            },
        ]);
    }

    #[test]
    fn loop_heavy_trace_compresses_well() {
        // 10k all-taken branches, the shape `crunch` loops produce.
        let mut packets = vec![Packet::Psb];
        for _ in 0..156 {
            packets.push(Packet::Tnt {
                count: 64,
                bits: vec![0xff; 8],
            });
        }
        packets.push(Packet::Tnt {
            count: 16,
            bits: vec![0xff, 0xff],
        });
        let r = ratio(&packets);
        assert!(r > 10.0, "expected RLE to crush the loop, got {r:.2}x");
        roundtrip(packets);
    }

    #[test]
    fn timestamp_deltas_compress() {
        let packets: Vec<Packet> = (0..100)
            .map(|i| Packet::Tsc {
                tsc: 1_000_000 + i * 400,
            })
            .collect();
        let packed = compress(&packets);
        let raw = codec::encode(&packets);
        assert!(
            packed.len() * 2 < raw.len(),
            "{} vs {}",
            packed.len(),
            raw.len()
        );
        roundtrip(packets);
    }

    #[test]
    fn truncation_and_bad_version_detected() {
        let packed = compress(&[Packet::Tsc { tsc: 123456 }]);
        assert!(decompress(&packed[..packed.len() - 1]).is_err());
        assert!(matches!(
            decompress(&[]),
            Err(DecodeError::Truncated { at: 0 })
        ));
        assert!(matches!(
            decompress(&[0x7f, C_PSB]),
            Err(DecodeError::BadOpcode {
                opcode: 0x7f,
                at: 0
            })
        ));
    }

    #[test]
    fn tnt_run_split_is_unambiguous_at_multiples_of_64() {
        roundtrip(vec![
            Packet::Tnt {
                count: 64,
                bits: vec![0x11; 8],
            },
            Packet::Tnt {
                count: 64,
                bits: vec![0x22; 8],
            },
        ]);
    }
}
