//! Compression of decoded trace events for fleet-scale trace storage.
//!
//! The analysis engine reads a trace's decoded control-flow events
//! ([`crate::sink::PtTrace::decode`]), never its packets, so the fleet's
//! trace store keeps exactly those events. Everything the decoder drops
//! as noise (timestamps, sync points, resumes of the running thread, TNT
//! packet boundaries) is gone before compression, so two runs that differ
//! only in where their quantum boundaries fell compress to the same bytes.
//! A wrapped ring's lost prefix travels as the leading
//! [`TraceEvent::Gap`].
//!
//! After a one-byte version tag, the stream is a sequence of records, one
//! per event kind:
//!
//! | tag | record | payload |
//! |---|---|---|
//! | `0x01` | branch run | varint bit count, then the LSB-first bit bytes, byte-RLE'd |
//! | `0x02` | `Call` | varint target |
//! | `0x03` | `Ret` run | varint run length |
//! | `0x04` | `PtWrite` | zigzag varint delta from the previous payload |
//! | `0x05` | `ThreadResume` | varint tid |
//! | `0x06` | `Gap` | none |
//!
//! Loop-heavy traces are long runs of identical bit bytes, which the RLE
//! crushes; recorded values are often clustered, so they delta-chain.
//! Branch and return runs longer than [`MAX_RUN`] take several records,
//! which bounds what one record can make a decoder produce. For any event
//! sequence `e`, `decompress_events(&compress_events(&e)) == e`
//! (property-tested in `tests/prop_compress.rs`).

use crate::codec::DecodeError;
use crate::packet::TraceEvent;

/// Format version tag (first byte of every compressed stream).
const VERSION: u8 = 0x02;

const E_BRANCHES: u8 = 0x01;
const E_CALL: u8 = 0x02;
const E_RET: u8 = 0x03;
const E_PTWRITE: u8 = 0x04;
const E_RESUME: u8 = 0x05;
const E_GAP: u8 = 0x06;

/// Most branches or returns one record holds.
pub const MAX_RUN: usize = 1 << 20;

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
        // The tenth byte holds bit 63 alone; anything more overflows.
        if shift > 63 || (shift == 63 && b & 0x7e != 0) {
            return Err(DecodeError::Corrupt { at });
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// A varint that must name a run of 1..=[`MAX_RUN`] items.
fn get_run(bytes: &[u8], i: &mut usize, at: usize) -> Result<usize, DecodeError> {
    match usize::try_from(get_varint(bytes, i, at)?) {
        Ok(n @ 1..=MAX_RUN) => Ok(n),
        _ => Err(DecodeError::Corrupt { at }),
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

/// Decodes `expect` payload bytes into `out`, replacing its contents (the
/// caller reuses one buffer across records).
fn rle_decode(
    bytes: &[u8],
    i: &mut usize,
    expect: usize,
    at: usize,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    out.clear();
    while out.len() < expect {
        let control = get_varint(bytes, i, at)?;
        let n = usize::try_from(control >> 1).map_err(|_| DecodeError::Corrupt { at })?;
        // A chunk that overshoots the payload is corrupt; reject it before
        // materializing it, so a damaged run length cannot demand an
        // arbitrary allocation. Nothing is reserved off the payload's
        // claimed length either: `out` grows only by chunks whose bytes
        // are present.
        let overshoots = n > expect - out.len();
        if control & 1 == 1 {
            let &b = bytes.get(*i).ok_or(DecodeError::Truncated { at })?;
            *i += 1;
            if overshoots {
                return Err(DecodeError::Corrupt { at });
            }
            out.extend(std::iter::repeat_n(b, n));
        } else {
            let end = i.checked_add(n).ok_or(DecodeError::Corrupt { at })?;
            if end > bytes.len() {
                return Err(DecodeError::Truncated { at });
            }
            if overshoots {
                return Err(DecodeError::Corrupt { at });
            }
            out.extend_from_slice(&bytes[*i..end]);
            *i = end;
        }
    }
    Ok(())
}

/// Compresses an event sequence. Never fails; the output always begins
/// with a one-byte version tag.
pub fn compress_events(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() / 8 + 1);
    out.push(VERSION);
    let mut last_ptw = 0u64;
    let mut bits: Vec<u8> = Vec::new();
    let mut i = 0;
    while i < events.len() {
        match events[i] {
            TraceEvent::Branch(_) => {
                bits.clear();
                let start = i;
                while let Some(&TraceEvent::Branch(taken)) = events.get(i) {
                    let k = i - start;
                    if k == MAX_RUN {
                        break;
                    }
                    if k % 8 == 0 {
                        bits.push(0);
                    }
                    bits[k / 8] |= u8::from(taken) << (k % 8);
                    i += 1;
                }
                out.push(E_BRANCHES);
                put_varint((i - start) as u64, &mut out);
                rle_encode(&bits, &mut out);
            }
            TraceEvent::Ret => {
                let start = i;
                while i - start < MAX_RUN && events.get(i) == Some(&TraceEvent::Ret) {
                    i += 1;
                }
                out.push(E_RET);
                put_varint((i - start) as u64, &mut out);
            }
            TraceEvent::Call(target) => {
                out.push(E_CALL);
                put_varint(u64::from(target), &mut out);
                i += 1;
            }
            TraceEvent::PtWrite(value) => {
                out.push(E_PTWRITE);
                put_varint(zigzag(value.wrapping_sub(last_ptw) as i64), &mut out);
                last_ptw = value;
                i += 1;
            }
            TraceEvent::ThreadResume(tid) => {
                out.push(E_RESUME);
                put_varint(tid, &mut out);
                i += 1;
            }
            TraceEvent::Gap => {
                out.push(E_GAP);
                i += 1;
            }
        }
    }
    out
}

/// Decompresses a stream produced by [`compress_events`]. The output
/// grows only as records deliver events, so damaged bytes cannot make it
/// reserve more than they describe.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, an unknown tag or version, or a
/// malformed record (a run outside 1..=[`MAX_RUN`], set padding bits, an
/// overlong varint, a call target beyond `u32`).
pub fn decompress_events(bytes: &[u8]) -> Result<Vec<TraceEvent>, DecodeError> {
    match bytes.first() {
        None => return Err(DecodeError::Truncated { at: 0 }),
        Some(&VERSION) => {}
        Some(&opcode) => return Err(DecodeError::BadOpcode { opcode, at: 0 }),
    }
    let mut events = Vec::new();
    let mut last_ptw = 0u64;
    let mut payload = Vec::new();
    let mut i = 1;
    while i < bytes.len() {
        let at = i;
        let tag = bytes[i];
        i += 1;
        let event = match tag {
            E_BRANCHES => {
                let n = get_run(bytes, &mut i, at)?;
                rle_decode(bytes, &mut i, n.div_ceil(8), at, &mut payload)?;
                if n % 8 != 0 && payload[n / 8] >> (n % 8) != 0 {
                    return Err(DecodeError::Corrupt { at });
                }
                events
                    .extend((0..n).map(|k| TraceEvent::Branch(payload[k / 8] >> (k % 8) & 1 == 1)));
                continue;
            }
            E_RET => {
                let n = get_run(bytes, &mut i, at)?;
                events.extend(std::iter::repeat_n(TraceEvent::Ret, n));
                continue;
            }
            E_CALL => {
                let target = get_varint(bytes, &mut i, at)?;
                TraceEvent::Call(u32::try_from(target).map_err(|_| DecodeError::Corrupt { at })?)
            }
            E_PTWRITE => {
                let d = unzigzag(get_varint(bytes, &mut i, at)?);
                last_ptw = last_ptw.wrapping_add(d as u64);
                TraceEvent::PtWrite(last_ptw)
            }
            E_RESUME => TraceEvent::ThreadResume(get_varint(bytes, &mut i, at)?),
            E_GAP => TraceEvent::Gap,
            opcode => return Err(DecodeError::BadOpcode { opcode, at }),
        };
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use TraceEvent::{Branch, Call, Gap, PtWrite, Ret, ThreadResume};

    fn roundtrip(events: Vec<TraceEvent>) -> Vec<u8> {
        let packed = compress_events(&events);
        assert_eq!(decompress_events(&packed).unwrap(), events);
        packed
    }

    #[test]
    fn roundtrips_every_event_kind() {
        roundtrip(vec![
            Gap,
            ThreadResume(3),
            Branch(true),
            Branch(false),
            Call(7),
            PtWrite(u64::MAX - 3),
            PtWrite(5),
            Ret,
            Ret,
            Gap,
            ThreadResume(u64::MAX),
            Call(u32::MAX),
        ]);
    }

    #[test]
    fn empty_stream_roundtrips() {
        assert_eq!(roundtrip(vec![]), [VERSION]);
    }

    #[test]
    fn loop_heavy_trace_compresses_well() {
        // 10k all-taken branches, the shape `crunch` loops produce: 1250
        // bytes of bits (and more of raw TNT packets) in a few bytes.
        let packed = roundtrip(vec![Branch(true); 10_000]);
        assert!(packed.len() < 10, "{} bytes", packed.len());
    }

    #[test]
    fn runs_past_the_record_cap_split() {
        let packed = roundtrip(vec![Ret; MAX_RUN + 3]);
        assert_eq!(packed[1], E_RET);
        roundtrip(vec![Branch(false); 2 * MAX_RUN + 1]);
    }

    #[test]
    fn overlong_rle_run_is_corrupt_not_an_allocation() {
        // An 8-byte branch run whose RLE control claims a run of 2^60 bytes.
        let mut bytes = vec![VERSION, E_BRANCHES];
        put_varint(64, &mut bytes);
        put_varint((1 << 61) | 1, &mut bytes);
        bytes.push(0xff);
        assert_eq!(
            decompress_events(&bytes),
            Err(DecodeError::Corrupt { at: 1 })
        );
    }

    #[test]
    fn malformed_records_are_corrupt() {
        let corrupt = |record: &[u8]| {
            let mut bytes = vec![VERSION];
            bytes.extend_from_slice(record);
            assert_eq!(
                decompress_events(&bytes),
                Err(DecodeError::Corrupt { at: 1 }),
                "{record:?}"
            );
        };
        corrupt(&[E_RET, 0]);
        corrupt(&[E_BRANCHES, 0]);
        // Three branches with a padding bit set.
        corrupt(&[E_BRANCHES, 3, 1 << 1, 0b1000]);
        // A call target past u32, and a varint past 64 bits.
        corrupt(&[E_CALL, 0x80, 0x80, 0x80, 0x80, 0x10]);
        corrupt(&[
            E_RESUME, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02,
        ]);
    }

    #[test]
    fn truncation_and_bad_version_detected() {
        let packed = compress_events(&[PtWrite(123_456)]);
        assert_eq!(
            decompress_events(&packed[..packed.len() - 1]),
            Err(DecodeError::Truncated { at: 1 })
        );
        assert_eq!(
            decompress_events(&[]),
            Err(DecodeError::Truncated { at: 0 })
        );
        assert_eq!(
            decompress_events(&[0x01, E_GAP]),
            Err(DecodeError::BadOpcode {
                opcode: 0x01,
                at: 0
            })
        );
        assert_eq!(
            decompress_events(&[VERSION, 0x7f]),
            Err(DecodeError::BadOpcode {
                opcode: 0x7f,
                at: 1
            })
        );
    }
}
