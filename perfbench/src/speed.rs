//! Machine-speed reference for the benchmark's timings.
//!
//! Sandboxed CPUs are shared with other tenants, and their speed drifts by
//! up to 1.5x within a minute while the run is in progress. Every timed
//! region (an investigation or a set-up) is therefore bracketed by a
//! probe: a fixed computation made only of benchmark and standard-library
//! code, so no change to the pipeline can speed it up or slow it down.
//! A timing is reported scaled by `NOMINAL_PROBE_MS` over the mean of its
//! two adjacent probes: milliseconds on a machine that runs the probe in
//! its nominal time. On a quiet machine the scale is close to one.

use crate::deep::mix;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe duration on a quiet 2-vCPU x86-64 sandbox, the reference speed.
pub const NOMINAL_PROBE_MS: f64 = 0.55;

/// Entries of the probe's pointer-chasing permutation (128 KiB).
const CHASE: usize = 1 << 15;
/// Steps of the probe's main loop.
const STEPS: u64 = 1 << 14;

/// Runs the probe once and returns its wall time in milliseconds. Its
/// mix of pointer chasing, hashing and small allocations resembles the
/// pipeline's interpreter, symbolic executor and solver.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut x = 0x1234_5678u64;
    let next: Vec<u32> = (0..CHASE)
        .map(|_| {
            x = mix(x);
            (x % CHASE as u64) as u32
        })
        .collect();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut at = 0usize;
    let mut acc = 0u64;
    for i in 0..STEPS {
        at = next[at] as usize;
        acc = acc.wrapping_add(at as u64);
        *counts.entry(acc % 4096).or_default() += i;
        let scratch: Vec<u64> = (0..8).map(|j| acc ^ j).collect();
        acc ^= scratch[(i % 8) as usize];
    }
    black_box((acc, counts.len()));
    start.elapsed().as_secs_f64() * 1e3
}

/// A stream of probes bracketing consecutive timed regions.
pub struct Bracket {
    last: f64,
}

impl Bracket {
    /// Opens the stream with a first probe.
    pub fn start() -> Bracket {
        Bracket { last: probe() }
    }

    /// Probes after a region that took `wall` and returns the region's
    /// time at nominal speed, in milliseconds.
    pub fn scale(&mut self, wall: Duration) -> f64 {
        let now = probe();
        let machine = (self.last + now) / 2.0;
        self.last = now;
        wall.as_secs_f64() * 1e3 * NOMINAL_PROBE_MS / machine
    }
}
