//! A software model of Intel Processor Trace (PT).
//!
//! ER's runtime (paper §3.1, §4) records control flow, coarse timestamps,
//! and `ptwrite` data values into a per-process ring buffer using Intel PT.
//! Real PT needs silicon; this crate models the parts ER's algorithms
//! actually consume:
//!
//! * **Packets** ([`packet`]): TNT (taken/not-taken bits), TIP (control-flow
//!   targets), RET, PTW (`ptwrite` payloads), TSC (timestamps), PGE
//!   (trace-on / thread-resume), PSB (sync points), and OVF (overflow).
//! * **Byte codec** ([`codec`]): a compact binary encoding — branches cost
//!   about one bit each, exactly the property that makes PT cheap enough for
//!   always-on production tracing.
//! * **Ring buffer** ([`ring`]): fixed-capacity circular storage (the
//!   paper's is 64 MB); wrap-around drops the oldest packets and the decoder
//!   resynchronizes at the next PSB.
//! * **Sink** ([`sink`]): [`sink::PtSink`] plugs into the interpreter's
//!   [`er_minilang::trace::TraceSink`] and packetizes events online.
//! * **Compression** ([`compress`]): run-length/delta encoding of decoded
//!   events (bit-packed branch runs, zigzag PTW deltas) for fleet-scale
//!   trace storage; exactly round-trip faithful to what
//!   [`sink::PtTrace::decode`] yields.
//!
//! # Example
//!
//! ```
//! use er_minilang::{compile, env::Env, interp::Machine};
//! use er_pt::sink::{PtConfig, PtSink};
//!
//! let program = compile("fn main() { let x: u32 = 1; if x < 2 { print(x); } }")?;
//! let sink = PtSink::new(PtConfig::default());
//! let report = Machine::with_sink(&program, Env::new(), sink).run();
//! let trace = report.sink.finish();
//! let decoded = trace.decode()?;
//! assert_eq!(decoded.branch_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codec;
pub mod compress;
pub mod packet;
pub mod ring;
pub mod sink;

pub use codec::DecodeError;
pub use packet::{Packet, TraceEvent};
pub use ring::RingBuffer;
pub use sink::{DecodedTrace, PtConfig, PtSink, PtTrace};
