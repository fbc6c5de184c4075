//! Baseline failure-reproduction systems ER is compared against.
//!
//! * [`rr`] — a Mozilla-rr-style full record/replay engine: records every
//!   nondeterministic event (inputs, clock reads, scheduling quanta) with
//!   realistic per-event interception costs, and replays deterministically.
//!   Used for the Fig. 6 efficiency comparison and the accuracy discussion
//!   in §2.3.
//! * [`rept`] — a REPT-style reverse-execution engine: recovers data values
//!   from a control-flow trace plus the final memory image, with the honest
//!   failure mode the paper reports (values become unknown or wrong as the
//!   reconstruction window grows, §2.2/§5.2). Its tape is a traced run of
//!   the production interpreter: the binary and its PT trace give the
//!   instruction sequence, and the values a recording build writes into
//!   the trace are the ground truth used for grading.

pub mod rept;
pub mod rr;

pub use rept::{ReptAnalysis, ReptReport};
pub use rr::{RrLog, RrRecorder};
