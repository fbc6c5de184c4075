//! Golden per-site execution counts of the shepherded executor.
//!
//! `exec_golden.rs` pins only the sum of a run's site counts, but key data
//! value selection reads them per site (paper §3.3's cost model), so a
//! step loop that bills one site's execution to another, or counts one of
//! two ops it ran in one dispatch, changes what selection picks without
//! moving that sum. This test pins, for the first recorded failure trace
//! of every Table-1 workload at test scale, the run's status, its step
//! count and a digest over every `(site, count)` pair of
//! [`SiteCounts::iter`]. It does so twice: on the plain build, and on the
//! build that records every value-defining site (whose recording slots
//! break up every fused pair and end every concrete stretch after one
//! op). Each build's run from its symbolic warm start, where it has one,
//! follows the same trace mid-way; its steps are pinned, and its digest
//! must equal the run from the entry's, since the warm state bills the
//! prefix's counts exactly.
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

/// One golden row: `from` is empty for the run from the entry.
fn row(w: &Workload, build: &str, from: &str, run: &SymRunResult) -> String {
    format!(
        "{} {build} {from}{} steps={} sites={}",
        w.name,
        status(run),
        run.stats.steps,
        counts_digest(&run.site_counts)
    )
}

/// The rows of the first failure trace of `inst`: the run from the entry,
/// then, if the binary has a symbolic warm start and the trace starts
/// with its prefix's events, the run from there on the same events.
fn rows_of(w: &Workload, build: &str, inst: &InstrumentedProgram) -> Vec<String> {
    let d = w.deployment(Scale::TEST);
    let config = w.er_config();
    let occ = d
        .run_until_failure(inst, None, 0, config.max_runs_per_occurrence)
        .expect("workload fails in production");
    let events = occ.trace.decode().expect("trace decodes").events;
    let cold = SymMachine::new(&inst.program, config.sym).run(&events, Some(&occ.failure));
    let mut rows = vec![row(w, build, "", &cold)];
    let Some(state) = inst.symbolic_warm_start() else {
        return rows;
    };
    let start = inst
        .warm_start()
        .expect("a symbolic warm start has a warm start");
    if events.len() <= start.events() || !start.prefix_matches(&events) {
        return rows;
    }
    let warm = SymMachine::resume(&inst.program, config.sym, state.clone())
        .run(&events, Some(&occ.failure));
    assert_eq!(
        counts_digest(&warm.site_counts),
        counts_digest(&cold.site_counts),
        "{} {build}: the warm run bills the cold run's site counts",
        w.name
    );
    rows.push(row(w, build, &format!("warm@{} ", state.cursor()), &warm));
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
    "PHP-2012-2386 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=121276 sites=235:e9ab6e4b96ac83fb",
    "PHP-2012-2386 plain warm@11004 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=266 sites=235:e9ab6e4b96ac83fb",
    "PHP-2012-2386 recording completed steps=223628 sites=298:f5b5d1f9c72b6c34",
    "PHP-2012-2386 recording warm@1 completed steps=223626 sites=298:f5b5d1f9c72b6c34",
    "PHP-74194 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=132276 sites=235:95ce5d246a785ddf",
    "PHP-74194 plain warm@12004 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=266 sites=235:95ce5d246a785ddf",
    "PHP-74194 recording completed steps=241628 sites=350:6bc13548e11691e8",
    "PHP-74194 recording warm@1 completed steps=241626 sites=350:6bc13548e11691e8",
    "SQLite-7be932d plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=32177 sites=236:4df804717c0a6756",
    "SQLite-7be932d plain warm@2904 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=266 sites=236:4df804717c0a6756",
    "SQLite-7be932d recording completed steps=58537 sites=250:f789f8f1e2f6d973",
    "SQLite-7be932d recording warm@0 completed steps=58536 sites=250:f789f8f1e2f6d973",
    "SQLite-787fa71 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=25576 sites=235:59519b300a4fb561",
    "SQLite-787fa71 plain warm@2304 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=266 sites=235:59519b300a4fb561",
    "SQLite-787fa71 recording completed steps=46574 sites=267:c043eaf134e27eec",
    "SQLite-787fa71 recording warm@1 completed steps=46572 sites=267:c043eaf134e27eec",
    "SQLite-4e8e485 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=27777 sites=236:6b14f16d9fc758b8",
    "SQLite-4e8e485 plain warm@2504 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=266 sites=236:6b14f16d9fc758b8",
    "SQLite-4e8e485 recording completed steps=50640 sites=253:4a25b1285e9555b1",
    "SQLite-4e8e485 recording warm@0 completed steps=50639 sites=253:4a25b1285e9555b1",
    "Nasm-2004-1287 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=34150 sites=47:76902bbdabb68103",
    "Nasm-2004-1287 plain warm@3104 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=38 sites=47:76902bbdabb68103",
    "Nasm-2004-1287 recording completed steps=62650 sites=63:3bb7e9eabb8927c8",
    "Nasm-2004-1287 recording warm@0 completed steps=62649 sites=63:3bb7e9eabb8927c8",
    "Objdump-2018-6323 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=7648 sites=237:bd0cd09b6aa00632",
    "Objdump-2018-6323 plain warm@674 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=266 sites=237:bd0cd09b6aa00632",
    "Objdump-2018-6323 recording completed steps=14829 sites=257:92903caa3f657339",
    "Objdump-2018-6323 recording warm@0 completed steps=14828 sites=257:92903caa3f657339",
    "Matrixssl-2014-1569 plain stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=50878 sites=237:23a5cb13270e96d9",
    "Matrixssl-2014-1569 plain warm@4604 stalled:ArrayCells { cells: 4096 }@f1.b1.9 steps=266 sites=237:23a5cb13270e96d9",
    "Matrixssl-2014-1569 recording completed steps=185084 sites=296:a1a18e4c1c206912",
    "Matrixssl-2014-1569 recording warm@0 completed steps=185083 sites=296:a1a18e4c1c206912",
    "Memcached-2019-11596 plain stalled:ArrayCells { cells: 4096 }@f2.b7.3 steps=45332 sites=215:e2ccb20308ba3ea2",
    "Memcached-2019-11596 plain warm@3804 stalled:ArrayCells { cells: 4096 }@f2.b7.3 steps=3522 sites=215:e2ccb20308ba3ea2",
    "Memcached-2019-11596 recording completed steps=82616 sites=216:c72cef7daf516688",
    "Memcached-2019-11596 recording warm@1 completed steps=82614 sites=216:c72cef7daf516688",
    "Libpng-2004-0597 plain completed steps=2319 sites=29:0fd0cb7b55819e41",
    "Libpng-2004-0597 plain warm@154 completed steps=657 sites=29:0fd0cb7b55819e41",
    "Libpng-2004-0597 recording completed steps=4086 sites=29:0fd0cb7b55819e41",
    "Libpng-2004-0597 recording warm@0 completed steps=4085 sites=29:0fd0cb7b55819e41",
    "Bash-108885 plain completed steps=19836 sites=30:27d38c1e33265486",
    "Bash-108885 plain warm@1804 completed steps=26 sites=30:27d38c1e33265486",
    "Bash-108885 recording completed steps=36058 sites=30:27d38c1e33265486",
    "Bash-108885 recording warm@1 completed steps=36056 sites=30:27d38c1e33265486",
    "Python-2018-1000030 plain completed steps=829691 sites=213:9d98856a41874203",
    "Python-2018-1000030 plain warm@75004 completed steps=4681 sites=213:9d98856a41874203",
    "Python-2018-1000030 recording completed steps=1507928 sites=213:613fefd24614b9d6",
    "Python-2018-1000030 recording warm@1 completed steps=1507926 sites=213:613fefd24614b9d6",
    "Pbzip2 plain stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=154234 sites=200:416e11e32b0287c5",
    "Pbzip2 plain warm@14004 stalled:ArrayCells { cells: 3072 }@f1.b0.5 steps=224 sites=200:416e11e32b0287c5",
    "Pbzip2 recording completed steps=296092 sites=219:d172163445b7c26c",
    "Pbzip2 recording warm@1 completed steps=296090 sites=219:d172163445b7c26c",
];
