//! Golden per-site execution counts of the shepherded executor.
//!
//! `exec_golden.rs` pins only the sum of a run's site counts, but key data
//! value selection reads them per site (paper §3.3's cost model), so a
//! step loop that bills one site's execution to another, or counts one of
//! two ops it ran in one dispatch, changes what selection picks without
//! moving that sum. This test pins, for the first recorded failure trace
//! of every Table-1 workload at test scale, the run's status, its step
//! count, its checkpoint cursors and a digest over every
//! `(site, count)` pair of [`SiteCounts::iter`]. It does so twice: on the
//! plain build, and on the build that records every value-defining site
//! (whose recording slots break up every fused pair and end every
//! concrete stretch after one op). Each checkpoint is also resumed on the
//! same trace, and the resumed run's steps and digest are pinned.
//!
//! To re-record after an *intended* behavior change, empty [`GOLDEN`] and
//! copy the rows the failing assertion prints.
//!
//! [`SiteCounts::iter`]: er_symex::SiteCounts::iter

use er_core::instrument::InstrumentedProgram;
use er_minilang::code::Pc;
use er_minilang::ir::InstrId;
use er_symex::{ShepherdStatus, SiteCounts, SymMachine, SymRunResult};
use er_workloads::{Scale, Workload};

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

/// How many sites ran, and a digest over each one's id and count.
fn counts_digest(counts: &SiteCounts) -> String {
    let mut h = Fnv::new();
    let mut n = 0;
    for (site, count) in counts.iter() {
        h.word(u64::from(site.func.0));
        h.word(u64::from(site.block.0));
        h.word(site.index as u64);
        h.word(count);
        n += 1;
    }
    format!("{n}:{:016x}", h.0)
}

fn status(run: &SymRunResult) -> String {
    match &run.status {
        ShepherdStatus::Completed => "completed".to_string(),
        ShepherdStatus::Stalled { reason, at } => format!(
            "stalled:{reason:?}@f{}.b{}.{}",
            at.func.0, at.block.0, at.index
        ),
        ShepherdStatus::Diverged(d) => format!("diverged:{d:?}"),
    }
}

/// The rows of the first failure trace of `inst`: the full run, then one
/// row per checkpoint, resumed on the same events.
fn rows_of(w: &Workload, build: &str, inst: &InstrumentedProgram) -> Vec<String> {
    let d = w.deployment(Scale::TEST);
    let config = w.er_config();
    let occ = d
        .run_until_failure(inst, None, 0, config.max_runs_per_occurrence)
        .expect("workload fails in production");
    let events = occ.trace.decode().expect("trace decodes").events;
    let run = SymMachine::new(&inst.program, config.sym).run(&events, Some(&occ.failure));
    let cursors: Vec<String> = run
        .checkpoints
        .iter()
        .map(|c| c.cursor().to_string())
        .collect();
    let mut rows = vec![format!(
        "{} {build} {} steps={} sites={} checkpoints=[{}]",
        w.name,
        status(&run),
        run.stats.steps,
        counts_digest(&run.site_counts),
        cursors.join(",")
    )];
    for cp in &run.checkpoints {
        let cursor = cp.cursor();
        let resumed = SymMachine::resume(&inst.program, config.sym, cp.clone())
            .run(&events, Some(&occ.failure));
        rows.push(format!(
            "{} {build} @{cursor} {} steps={} sites={}",
            w.name,
            status(&resumed),
            resumed.stats.steps,
            counts_digest(&resumed.site_counts)
        ));
    }
    rows
}

/// Every value-defining site of `inst`'s program.
fn all_sites(inst: &InstrumentedProgram) -> Vec<InstrId> {
    let code = inst.program.code();
    (0..code.ops().len() as Pc)
        .filter(|&pc| code.defines_value(pc))
        .map(|pc| code.id_of(pc))
        .collect()
}

#[test]
fn per_site_counts_match_golden() {
    let mut rows = Vec::new();
    for w in er_workloads::all() {
        let plain = InstrumentedProgram::unmodified(w.deployment(Scale::TEST).program());
        let recording = InstrumentedProgram::new(&plain.program, &all_sites(&plain));
        rows.extend(rows_of(&w, "plain", &plain));
        rows.extend(rows_of(&w, "recording", &recording));
    }
    let rendered: String = rows.iter().map(|r| format!("    \"{r}\",\n")).collect();
    assert_eq!(
        rows.len(),
        GOLDEN.len(),
        "row count differs; actual rows:\n{rendered}"
    );
    for (a, g) in rows.iter().zip(GOLDEN) {
        assert_eq!(a, g, "row differs; actual rows:\n{rendered}");
    }
}

const GOLDEN: &[&str] = &[
    "PHP-2012-2386 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=121276 sites=235:e9ab6e4b96ac83fb checkpoints=[1024,3072,5120,7168,9216]",
    "PHP-2012-2386 plain @1024 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=110038 sites=235:e9ab6e4b96ac83fb",
    "PHP-2012-2386 plain @3072 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=87510 sites=235:e9ab6e4b96ac83fb",
    "PHP-2012-2386 plain @5120 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=64982 sites=235:e9ab6e4b96ac83fb",
    "PHP-2012-2386 plain @7168 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=42454 sites=235:e9ab6e4b96ac83fb",
    "PHP-2012-2386 plain @9216 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=19926 sites=235:e9ab6e4b96ac83fb",
    "PHP-2012-2386 recording completed steps=223628 sites=298:f5b5d1f9c72b6c34 checkpoints=[1024,17408,33792,50176,66560,82944,99328]",
    "PHP-2012-2386 recording @1024 completed steps=221582 sites=298:f5b5d1f9c72b6c34",
    "PHP-2012-2386 recording @17408 completed steps=188814 sites=298:f5b5d1f9c72b6c34",
    "PHP-2012-2386 recording @33792 completed steps=156046 sites=298:f5b5d1f9c72b6c34",
    "PHP-2012-2386 recording @50176 completed steps=123278 sites=298:f5b5d1f9c72b6c34",
    "PHP-2012-2386 recording @66560 completed steps=90510 sites=298:f5b5d1f9c72b6c34",
    "PHP-2012-2386 recording @82944 completed steps=57742 sites=298:f5b5d1f9c72b6c34",
    "PHP-2012-2386 recording @99328 completed steps=24974 sites=298:f5b5d1f9c72b6c34",
    "PHP-74194 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=132276 sites=235:95ce5d246a785ddf checkpoints=[1024,3072,5120,7168,9216,11264]",
    "PHP-74194 plain @1024 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=121038 sites=235:95ce5d246a785ddf",
    "PHP-74194 plain @3072 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=98510 sites=235:95ce5d246a785ddf",
    "PHP-74194 plain @5120 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=75982 sites=235:95ce5d246a785ddf",
    "PHP-74194 plain @7168 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=53454 sites=235:95ce5d246a785ddf",
    "PHP-74194 plain @9216 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=30926 sites=235:95ce5d246a785ddf",
    "PHP-74194 plain @11264 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=8398 sites=235:95ce5d246a785ddf",
    "PHP-74194 recording completed steps=241628 sites=350:6bc13548e11691e8 checkpoints=[1024,17408,33792,50176,66560,82944,99328,115712]",
    "PHP-74194 recording @1024 completed steps=239582 sites=350:6bc13548e11691e8",
    "PHP-74194 recording @17408 completed steps=206814 sites=350:6bc13548e11691e8",
    "PHP-74194 recording @33792 completed steps=174046 sites=350:6bc13548e11691e8",
    "PHP-74194 recording @50176 completed steps=141278 sites=350:6bc13548e11691e8",
    "PHP-74194 recording @66560 completed steps=108510 sites=350:6bc13548e11691e8",
    "PHP-74194 recording @82944 completed steps=75742 sites=350:6bc13548e11691e8",
    "PHP-74194 recording @99328 completed steps=42974 sites=350:6bc13548e11691e8",
    "PHP-74194 recording @115712 completed steps=10206 sites=350:6bc13548e11691e8",
    "SQLite-7be932d plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=32177 sites=236:4df804717c0a6756 checkpoints=[1024,2048]",
    "SQLite-7be932d plain @1024 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=20938 sites=236:4df804717c0a6756",
    "SQLite-7be932d plain @2048 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=9674 sites=236:4df804717c0a6756",
    "SQLite-7be932d recording completed steps=58537 sites=250:f789f8f1e2f6d973 checkpoints=[1024,5120,9216,13312,17408,21504,25600]",
    "SQLite-7be932d recording @1024 completed steps=56491 sites=250:f789f8f1e2f6d973",
    "SQLite-7be932d recording @5120 completed steps=48299 sites=250:f789f8f1e2f6d973",
    "SQLite-7be932d recording @9216 completed steps=40106 sites=250:f789f8f1e2f6d973",
    "SQLite-7be932d recording @13312 completed steps=31915 sites=250:f789f8f1e2f6d973",
    "SQLite-7be932d recording @17408 completed steps=23723 sites=250:f789f8f1e2f6d973",
    "SQLite-7be932d recording @21504 completed steps=15531 sites=250:f789f8f1e2f6d973",
    "SQLite-7be932d recording @25600 completed steps=7339 sites=250:f789f8f1e2f6d973",
    "SQLite-787fa71 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=25576 sites=235:59519b300a4fb561 checkpoints=[1024,2048]",
    "SQLite-787fa71 plain @1024 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=14338 sites=235:59519b300a4fb561",
    "SQLite-787fa71 plain @2048 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=3074 sites=235:59519b300a4fb561",
    "SQLite-787fa71 recording completed steps=46574 sites=267:c043eaf134e27eec checkpoints=[1024,5120,9216,13312,17408,21504]",
    "SQLite-787fa71 recording @1024 completed steps=44528 sites=267:c043eaf134e27eec",
    "SQLite-787fa71 recording @5120 completed steps=36336 sites=267:c043eaf134e27eec",
    "SQLite-787fa71 recording @9216 completed steps=28144 sites=267:c043eaf134e27eec",
    "SQLite-787fa71 recording @13312 completed steps=19952 sites=267:c043eaf134e27eec",
    "SQLite-787fa71 recording @17408 completed steps=11760 sites=267:c043eaf134e27eec",
    "SQLite-787fa71 recording @21504 completed steps=3568 sites=267:c043eaf134e27eec",
    "SQLite-4e8e485 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=27777 sites=236:6b14f16d9fc758b8 checkpoints=[1024,2048]",
    "SQLite-4e8e485 plain @1024 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=16538 sites=236:6b14f16d9fc758b8",
    "SQLite-4e8e485 plain @2048 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=5274 sites=236:6b14f16d9fc758b8",
    "SQLite-4e8e485 recording completed steps=50640 sites=253:4a25b1285e9555b1 checkpoints=[1024,5120,9216,13312,17408,21504]",
    "SQLite-4e8e485 recording @1024 completed steps=48594 sites=253:4a25b1285e9555b1",
    "SQLite-4e8e485 recording @5120 completed steps=40402 sites=253:4a25b1285e9555b1",
    "SQLite-4e8e485 recording @9216 completed steps=32209 sites=253:4a25b1285e9555b1",
    "SQLite-4e8e485 recording @13312 completed steps=24018 sites=253:4a25b1285e9555b1",
    "SQLite-4e8e485 recording @17408 completed steps=15826 sites=253:4a25b1285e9555b1",
    "SQLite-4e8e485 recording @21504 completed steps=7634 sites=253:4a25b1285e9555b1",
    "Nasm-2004-1287 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=34150 sites=47:76902bbdabb68103 checkpoints=[1024,2048,3072]",
    "Nasm-2004-1287 plain @1024 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=22910 sites=47:76902bbdabb68103",
    "Nasm-2004-1287 plain @2048 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=11646 sites=47:76902bbdabb68103",
    "Nasm-2004-1287 plain @3072 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=382 sites=47:76902bbdabb68103",
    "Nasm-2004-1287 recording completed steps=62650 sites=63:3bb7e9eabb8927c8 checkpoints=[1024,5120,9216,13312,17408,21504,25600,29696]",
    "Nasm-2004-1287 recording @1024 completed steps=60604 sites=63:3bb7e9eabb8927c8",
    "Nasm-2004-1287 recording @5120 completed steps=52412 sites=63:3bb7e9eabb8927c8",
    "Nasm-2004-1287 recording @9216 completed steps=44220 sites=63:3bb7e9eabb8927c8",
    "Nasm-2004-1287 recording @13312 completed steps=36028 sites=63:3bb7e9eabb8927c8",
    "Nasm-2004-1287 recording @17408 completed steps=27836 sites=63:3bb7e9eabb8927c8",
    "Nasm-2004-1287 recording @21504 completed steps=19644 sites=63:3bb7e9eabb8927c8",
    "Nasm-2004-1287 recording @25600 completed steps=11452 sites=63:3bb7e9eabb8927c8",
    "Nasm-2004-1287 recording @29696 completed steps=3260 sites=63:3bb7e9eabb8927c8",
    "Objdump-2018-6323 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=7648 sites=237:bd0cd09b6aa00632 checkpoints=[]",
    "Objdump-2018-6323 recording completed steps=14829 sites=257:92903caa3f657339 checkpoints=[1024,2048,3072,4096,5120,6144,7168]",
    "Objdump-2018-6323 recording @1024 completed steps=12783 sites=257:92903caa3f657339",
    "Objdump-2018-6323 recording @2048 completed steps=10735 sites=257:92903caa3f657339",
    "Objdump-2018-6323 recording @3072 completed steps=8687 sites=257:92903caa3f657339",
    "Objdump-2018-6323 recording @4096 completed steps=6639 sites=257:92903caa3f657339",
    "Objdump-2018-6323 recording @5120 completed steps=4591 sites=257:92903caa3f657339",
    "Objdump-2018-6323 recording @6144 completed steps=2543 sites=257:92903caa3f657339",
    "Objdump-2018-6323 recording @7168 completed steps=410 sites=257:92903caa3f657339",
    "Matrixssl-2014-1569 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=50878 sites=237:23a5cb13270e96d9 checkpoints=[1024,2048,3072,4096]",
    "Matrixssl-2014-1569 plain @1024 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=39638 sites=237:23a5cb13270e96d9",
    "Matrixssl-2014-1569 plain @2048 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=28374 sites=237:23a5cb13270e96d9",
    "Matrixssl-2014-1569 plain @3072 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=17110 sites=237:23a5cb13270e96d9",
    "Matrixssl-2014-1569 plain @4096 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=5846 sites=237:23a5cb13270e96d9",
    "Matrixssl-2014-1569 recording completed steps=185084 sites=296:a1a18e4c1c206912 checkpoints=[1024,17408,33792,50176,66560,82944]",
    "Matrixssl-2014-1569 recording @1024 completed steps=183038 sites=296:a1a18e4c1c206912",
    "Matrixssl-2014-1569 recording @17408 completed steps=150270 sites=296:a1a18e4c1c206912",
    "Matrixssl-2014-1569 recording @33792 completed steps=117502 sites=296:a1a18e4c1c206912",
    "Matrixssl-2014-1569 recording @50176 completed steps=84654 sites=296:a1a18e4c1c206912",
    "Matrixssl-2014-1569 recording @66560 completed steps=51887 sites=296:a1a18e4c1c206912",
    "Matrixssl-2014-1569 recording @82944 completed steps=19119 sites=296:a1a18e4c1c206912",
    "Memcached-2019-11596 plain stalled:ArrayCells { cells: 4096 }@f2.b7.3 steps=45332 sites=215:e2ccb20308ba3ea2 checkpoints=[1024,2048,3072,4096]",
    "Memcached-2019-11596 plain @1024 stalled:ArrayCells { cells: 4096 }@f2.b7.3 steps=34094 sites=215:e2ccb20308ba3ea2",
    "Memcached-2019-11596 plain @2048 stalled:ArrayCells { cells: 4096 }@f2.b7.3 steps=22830 sites=215:e2ccb20308ba3ea2",
    "Memcached-2019-11596 plain @3072 stalled:ArrayCells { cells: 4096 }@f2.b7.3 steps=11566 sites=215:e2ccb20308ba3ea2",
    "Memcached-2019-11596 plain @4096 stalled:ArrayCells { cells: 4096 }@f2.b7.3 steps=1303 sites=215:e2ccb20308ba3ea2",
    "Memcached-2019-11596 recording completed steps=82616 sites=216:c72cef7daf516688 checkpoints=[1024,9216,17408,25600,33792]",
    "Memcached-2019-11596 recording @1024 completed steps=80570 sites=216:c72cef7daf516688",
    "Memcached-2019-11596 recording @9216 completed steps=64186 sites=216:c72cef7daf516688",
    "Memcached-2019-11596 recording @17408 completed steps=47802 sites=216:c72cef7daf516688",
    "Memcached-2019-11596 recording @25600 completed steps=31418 sites=216:c72cef7daf516688",
    "Memcached-2019-11596 recording @33792 completed steps=15034 sites=216:c72cef7daf516688",
    "Libpng-2004-0597 plain completed steps=2319 sites=29:0fd0cb7b55819e41 checkpoints=[]",
    "Libpng-2004-0597 recording completed steps=4086 sites=29:0fd0cb7b55819e41 checkpoints=[1024]",
    "Libpng-2004-0597 recording @1024 completed steps=2040 sites=29:0fd0cb7b55819e41",
    "Bash-108885 plain completed steps=19836 sites=30:27d38c1e33265486 checkpoints=[1024]",
    "Bash-108885 plain @1024 completed steps=8598 sites=30:27d38c1e33265486",
    "Bash-108885 recording completed steps=36058 sites=30:27d38c1e33265486 checkpoints=[1024,5120,9216,13312,17408]",
    "Bash-108885 recording @1024 completed steps=34012 sites=30:27d38c1e33265486",
    "Bash-108885 recording @5120 completed steps=25820 sites=30:27d38c1e33265486",
    "Bash-108885 recording @9216 completed steps=17628 sites=30:27d38c1e33265486",
    "Bash-108885 recording @13312 completed steps=9436 sites=30:27d38c1e33265486",
    "Bash-108885 recording @17408 completed steps=1244 sites=30:27d38c1e33265486",
    "Python-2018-1000030 plain completed steps=829691 sites=213:9d98856a41874203 checkpoints=[1024,17408,33792,50176,66560]",
    "Python-2018-1000030 plain @1024 completed steps=818453 sites=213:9d98856a41874203",
    "Python-2018-1000030 plain @17408 completed steps=638229 sites=213:9d98856a41874203",
    "Python-2018-1000030 plain @33792 completed steps=458005 sites=213:9d98856a41874203",
    "Python-2018-1000030 plain @50176 completed steps=277781 sites=213:9d98856a41874203",
    "Python-2018-1000030 plain @66560 completed steps=97557 sites=213:9d98856a41874203",
    "Python-2018-1000030 recording completed steps=1507928 sites=213:613fefd24614b9d6 checkpoints=[1024,132096,263168,394240,525312,656384]",
    "Python-2018-1000030 recording @1024 completed steps=1505882 sites=213:613fefd24614b9d6",
    "Python-2018-1000030 recording @132096 completed steps=1243738 sites=213:613fefd24614b9d6",
    "Python-2018-1000030 recording @263168 completed steps=981594 sites=213:613fefd24614b9d6",
    "Python-2018-1000030 recording @394240 completed steps=719450 sites=213:613fefd24614b9d6",
    "Python-2018-1000030 recording @525312 completed steps=457306 sites=213:613fefd24614b9d6",
    "Python-2018-1000030 recording @656384 completed steps=195162 sites=213:613fefd24614b9d6",
    "Pbzip2 plain stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=154234 sites=200:416e11e32b0287c5 checkpoints=[1024,3072,5120,7168,9216,11264,13312]",
    "Pbzip2 plain @1024 stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=142996 sites=200:416e11e32b0287c5",
    "Pbzip2 plain @3072 stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=120468 sites=200:416e11e32b0287c5",
    "Pbzip2 plain @5120 stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=97940 sites=200:416e11e32b0287c5",
    "Pbzip2 plain @7168 stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=75412 sites=200:416e11e32b0287c5",
    "Pbzip2 plain @9216 stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=52884 sites=200:416e11e32b0287c5",
    "Pbzip2 plain @11264 stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=30356 sites=200:416e11e32b0287c5",
    "Pbzip2 plain @13312 stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=7828 sites=200:416e11e32b0287c5",
    "Pbzip2 recording completed steps=296092 sites=219:d172163445b7c26c checkpoints=[1024,33792,66560,99328,132096]",
    "Pbzip2 recording @1024 completed steps=294046 sites=219:d172163445b7c26c",
    "Pbzip2 recording @33792 completed steps=228510 sites=219:d172163445b7c26c",
    "Pbzip2 recording @66560 completed steps=162974 sites=219:d172163445b7c26c",
    "Pbzip2 recording @99328 completed steps=97438 sites=219:d172163445b7c26c",
    "Pbzip2 recording @132096 completed steps=31902 sites=219:d172163445b7c26c",
];
