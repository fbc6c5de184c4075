//! Seeded generator of solver-heavy failure programs for `deep-solve`.
//!
//! Each program hides its crash behind three symbolic-table stages (a store
//! through a masked symbolic index, then a branch on a symbolic read of
//! the same table) and a multiply-xorshift hash of a 64-bit input whose
//! low bits must hit a target. Shepherded symbolic execution follows the
//! failing trace in one pass; the final solve must then eliminate the
//! table reads and invert the hash bit by bit, so the investigation's time
//! sits in the solver. Every program shares one shape and draws only its
//! constants from the seed, which keeps solver effort similar across seeds.

use er_minilang::env::Env;
use std::fmt::Write as _;

/// Symbolic-table stages guarding the crash.
const STAGES: u32 = 3;
/// Entries per stage table (a power of two; keys are masked to it).
const TABLE: u64 = 32;
/// Low bits of the hash the crash condition pins.
const TARGET_BITS: u32 = 16;
/// Every `PERIOD`-th production run carries the failing request.
pub const PERIOD: u64 = 4;

/// One generated program: its source and the request that crashes it.
pub struct DeepProgram {
    pub source: String,
    secret: u64,
    noise: u64,
}

/// Splitmix64 step: the benchmark's only source of randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl DeepProgram {
    /// The program drawn from `key`.
    pub fn generate(key: u64) -> DeepProgram {
        let mut state = key;
        let mut draw = || {
            state = mix(state);
            state
        };
        let shift = 13 + draw() % 20;
        let mul = draw() | 1;
        let secret = draw();
        let noise = draw();
        let mask = (1u64 << TARGET_BITS) - 1;
        let target = (secret ^ (secret >> shift)).wrapping_mul(mul) & mask;

        let mut src = String::new();
        for s in 1..=STAGES {
            writeln!(src, "global T{s}: [u64; {TABLE}];").expect("write to String");
        }
        writeln!(
            src,
            "fn main() {{\n    let h: u64 = input_u64(0);\n    h = (h ^ (h >> {shift})) * {mul};"
        )
        .expect("write to String");
        for s in 1..=STAGES {
            let marker = 40 + s;
            write!(
                src,
                "    let k{s}: u64 = input_u64(1) & {m};\n    let p{s}: u64 = input_u64(1) & {m};\n    T{s}[k{s}] = {marker};\n    if T{s}[p{s}] == {marker} {{\n",
                m = TABLE - 1
            )
            .expect("write to String");
        }
        writeln!(
            src,
            "    if (h & {mask}) == {target} {{ abort(\"deep-solve target reached\"); }}"
        )
        .expect("write to String");
        for _ in 0..STAGES {
            src.push_str("    }\n");
        }
        src.push_str("    print(h);\n}\n");
        DeepProgram {
            source: src,
            secret,
            noise,
        }
    }

    /// Production request `run`: the failing request on every
    /// `PERIOD`-th run, otherwise a random hash input with misaligned
    /// stage keys (those runs cannot reach the crash).
    pub fn input(&self, run: u64) -> Env {
        let failing = run % PERIOD == PERIOD - 1;
        let r = mix(self.noise ^ run);
        let mut env = Env::new();
        let h = if failing { self.secret } else { r };
        env.push_input(0, &h.to_le_bytes());
        for s in 0..u64::from(STAGES) {
            let k = mix(r.wrapping_add(s)) % TABLE;
            let p = if failing { k } else { (k + 1) % TABLE };
            env.push_input(1, &k.to_le_bytes());
            env.push_input(1, &p.to_le_bytes());
        }
        env
    }
}
