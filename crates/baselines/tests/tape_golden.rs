//! Golden tapes for the REPT baseline's recorder.
//!
//! Pins what [`ConcreteTape::record`] produces for a fixed set of
//! programs: the entry count, a digest over every entry's
//! `(site, frame, truth_dst)`, digests of the crash-time registers and
//! memory, and whether the run faulted. Any change to how the tape is
//! recorded that moves the instruction sequence, a frame id, a ground-truth
//! value or the crash dump fails here.
//!
//! To re-record after an *intended* change, empty [`GOLDEN`] and copy the
//! rows the failing assertion prints.

use er_baselines::rept::ConcreteTape;
use er_minilang::compile;
use er_minilang::env::Env;

/// FNV-1a, 64-bit, fed one little-endian `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

fn tape_row(name: &str, src: &str, inputs: &[(u32, Vec<u8>)], window: usize) -> String {
    let program = compile(src).expect("compiles");
    let mut env = Env::new();
    for (s, b) in inputs {
        env.push_input(*s, b);
    }
    let tape = ConcreteTape::record(&program, env, window).expect("single-threaded");
    let mut entries = Fnv::new();
    for e in &tape.entries {
        entries.word(u64::from(e.site.func.0));
        entries.word(u64::from(e.site.block.0));
        entries.word(e.site.index as u64);
        entries.word(e.frame);
        entries.word(e.truth_dst);
    }
    let mut regs: Vec<_> = tape.final_regs.iter().collect();
    regs.sort();
    let mut reg_digest = Fnv::new();
    for (&(frame, reg), &v) in regs {
        reg_digest.word(frame);
        reg_digest.word(u64::from(reg));
        reg_digest.word(v);
    }
    let mut mem: Vec<_> = tape.final_mem.iter().collect();
    mem.sort();
    let mut mem_digest = Fnv::new();
    for (&addr, &b) in mem {
        mem_digest.word(addr);
        mem_digest.word(u64::from(b));
    }
    format!(
        "{name} n={} entries={:016x} regs={}:{:016x} mem={}:{:016x} faulted={}",
        tape.entries.len(),
        entries.0,
        tape.final_regs.len(),
        reg_digest.0,
        tape.final_mem.len(),
        mem_digest.0,
        tape.faulted
    )
}

fn u32_input(v: u32) -> Vec<(u32, Vec<u8>)> {
    vec![(0, v.to_le_bytes().to_vec())]
}

/// One row per program (see [`tape_row`]).
fn rows() -> Vec<String> {
    vec![
        tape_row(
            "short_window",
            r#"
            fn main() {
                let a: u32 = input_u32(0);
                let b: u32 = a + 7;
                let c: u32 = b * 3;
                store32(alloc(16), c);
                abort("crash");
            }
            "#,
            &u32_input(5),
            1_000_000,
        ),
        tape_row(
            "decay",
            r#"
            global TBL: [u32; 64];
            fn main() {
                let n: u32 = input_u32(0);
                let acc: u32 = 0;
                for i: u32 = 0; i < n; i = i + 1 {
                    let x: u32 = (i * 2654435761) ^ acc;
                    acc = x % 255;
                    TBL[i % 64] = acc;
                }
                assert(acc == 999999, "always fails");
            }
            "#,
            &u32_input(4000),
            1_000_000,
        ),
        tape_row(
            "no_alias",
            r#"
            global SLOTS: [u32; 32];
            fn main() {
                let k: u32 = input_u32(0);
                for round: u32 = 0; round < 200; round = round + 1 {
                    let idx: u32 = (k + round * 7) % 32;
                    SLOTS[idx] = round;
                    let probe: u32 = SLOTS[(k + round) % 32];
                    let sink: u32 = probe + 1;
                    print(sink);
                }
                abort("done");
            }
            "#,
            &u32_input(3),
            1_000_000,
        ),
        tape_row(
            "completed",
            "fn main() { let a: u32 = 1 + 2; print(a); }",
            &[],
            1_000_000,
        ),
        tape_row("rept_accuracy", REPT_ACCURACY, &u32_input(2_000), 2_000_000),
        // The same run through a window far shorter than it: the tape
        // keeps only the newest entries.
        tape_row(
            "rept_accuracy_windowed",
            REPT_ACCURACY,
            &u32_input(2_000),
            1_000,
        ),
        tape_row(
            "stored_returns",
            r#"
            global OUT: [u64; 8];
            fn mix(x: u64, k: u64) -> u64 {
                let y: u64 = x * 31 + k;
                return y ^ (y >> 3);
            }
            fn fold(x: u64) -> u64 {
                var scratch: [u64; 4];
                scratch[x % 4] = mix(x, 7);
                let b: u64 = mix(scratch[x % 4], 11);
                return scratch[x % 4] + b;
            }
            fn main() {
                let seed: u64 = input_u64(0);
                for i: u64 = 0; i < 20; i = i + 1 {
                    let v: u64 = fold(seed + i);
                    OUT[i % 8] = v;
                    let p: u64 = alloc(16);
                    store64(p, mix(v, i));
                    free(p);
                }
                abort("done");
            }
            "#,
            &[(0, 12_345u64.to_le_bytes().to_vec())],
            1_000_000,
        ),
        tape_row(
            "unmapped_store",
            r#"
            fn poke(p: u64, v: u64) {
                store64(p, v);
            }
            fn main() {
                let a: u64 = input_u64(0);
                let p: u64 = alloc(8);
                store64(p, a);
                let q: u64 = load64(p) + 1;
                poke(p, q);
                poke(q * 8, q);
                print(q);
            }
            "#,
            &[(0, 41u64.to_le_bytes().to_vec())],
            1_000_000,
        ),
        tape_row(
            "failed_assert",
            r#"
            fn check(x: u32) -> u32 {
                let y: u32 = x * 3;
                assert(y < 150, "x too large");
                return y + 1;
            }
            fn main() {
                for i: u32 = 0; i < 100; i = i + 1 {
                    let y: u32 = check(i);
                    store32(alloc(4), y);
                }
            }
            "#,
            &[],
            1_000_000,
        ),
    ]
}

/// The §5.2 accuracy program of the `rept_accuracy` bench binary.
const REPT_ACCURACY: &str = r#"
    global TBL: [u32; 64];
    fn main() {
        let n: u32 = input_u32(0);
        let acc: u32 = 0;
        for i: u32 = 0; i < n; i = i + 1 {
            let x: u32 = acc + i;
            let y: u32 = x ^ 2654435761;
            acc = y % 255;
            TBL[i % 64] = acc;
            let probe: u32 = TBL[(i * 7) % 64];
            let s: u32 = probe + 1;
            print(s);
        }
        assert(acc == 999999999, "latent corruption detected");
    }
"#;

const GOLDEN: &[&str] = &[
    "short_window n=8 entries=5d638e1834215101 regs=7:9c0490aae92a32a2 mem=16:562036ea522d7041 faulted=true",
    "decay n=52006 entries=28bb8b70b9f2593f regs=15:88e6828bb36808f6 mem=256:2057d813e6873d61 faulted=true",
    "no_alias n=4004 entries=41ca97a4c1a96095 regs=21:b0ab90960250db64 mem=128:80bc72bd8cbe3c65 faulted=true",
    "completed n=2 entries=a751437419cf0e24 regs=0:cbf29ce484222325 mem=0:cbf29ce484222325 faulted=false",
    "rept_accuracy n=46006 entries=4037e0f89f37b5fb regs=25:3bd35df4572a7e98 mem=256:3cd3e25af9b445b9 faulted=true",
    "rept_accuracy_windowed n=1000 entries=ffd51d6e37045abd regs=25:3bd35df4572a7e98 mem=256:3cd3e25af9b445b9 faulted=true",
    "stored_returns n=864 entries=86afcfef008782f9 regs=15:22c1ce2242dfc67a mem=416:dfda1e345851baf1 faulted=true",
    "unmapped_store n=10 entries=952c44c745e74ad1 regs=12:9c2247d1a7175666 mem=16:438abe38e39b338f faulted=true",
    "failed_assert n=505 entries=49345f2ea0766378 regs=11:a0e2d3cb7e3ed2f5 mem=800:45b448748336e920 faulted=true",
];

#[test]
fn tapes_match_the_golden_rows() {
    let got = rows();
    let want: Vec<String> = GOLDEN.iter().map(|s| (*s).to_string()).collect();
    assert_eq!(
        got,
        want,
        "tape rows moved; current rows:\n{}",
        got.iter()
            .map(|r| format!("    \"{r}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn multithreaded_programs_keep_their_error() {
    let program = compile("fn w() {}\nfn main() { let t: u64 = spawn w(); join(t); }").unwrap();
    let err = ConcreteTape::record(&program, Env::new(), 100).unwrap_err();
    assert_eq!(err, "REPT tape supports single-threaded programs");
}
