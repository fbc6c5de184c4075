//! Golden equivalence for the two step loops.
//!
//! `determinism.rs` compares two modes of the same binary; this test pins
//! the executors' observable behavior to constants recorded before the
//! step loops were rewritten for speed (borrowed dispatch, direct segment
//! lookup, inline input bytes, the fixed hasher). Any change to the
//! interpreter, the PT encoder, or the shepherded executor that alters a
//! run's outcome, instruction count, output, trace bytes, symbolic step
//! count, path, or generated test case fails here.
//!
//! To re-record after an *intended* behavior change, empty the constant
//! tables and copy the rows the failing assertion prints.

use er_core::deploy::Deployment;
use er_core::instrument::InstrumentedProgram;
use er_core::shepherd;
use er_core::Reconstructor;
use er_minilang::interp::{Machine, RunOutcome};
use er_pt::sink::{PtConfig, PtSink};
use er_symex::ShepherdStatus;
use er_workloads::{Scale, Workload};

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn outcome_digest(outcome: &RunOutcome) -> String {
    match outcome {
        RunOutcome::Completed => "ok".to_string(),
        RunOutcome::Failure(f) => format!(
            "{:?}:{:016x}",
            f.fault.kind(),
            fnv64(format!("{f:?}").as_bytes())
        ),
    }
}

/// One row per production run: outcome, dynamic instruction count,
/// printed output, and the PT byte stream.
fn concrete_rows(w: &Workload, d: &Deployment) -> Vec<String> {
    let program = d.program();
    (0..16u64)
        .map(|run| {
            let report =
                Machine::with_sink(program, d.env_for(run), PtSink::new(PtConfig::default()))
                    .with_sched(d.sched_for(run))
                    .run();
            let output: Vec<u8> = report.output.iter().flat_map(|v| v.to_le_bytes()).collect();
            let trace = report.sink.finish();
            format!(
                "{} r{run} {} n={} out={}:{:016x} pt={}:{:016x}",
                w.name,
                outcome_digest(&report.outcome),
                report.instr_count,
                report.output.len(),
                fnv64(&output),
                trace.bytes.len(),
                fnv64(&trace.bytes),
            )
        })
        .collect()
}

fn inputs_digest(inputs: &[(u32, Vec<u8>)]) -> String {
    let mut flat = Vec::new();
    for (source, bytes) in inputs {
        flat.extend_from_slice(&source.to_le_bytes());
        flat.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        flat.extend_from_slice(bytes);
    }
    format!("{}:{:016x}", flat.len(), fnv64(&flat))
}

/// The first occurrence shepherded from scratch, plus the test case the
/// whole reconstruction loop ends with.
fn symbolic_row(w: &Workload, d: &Deployment) -> String {
    let config = w.er_config();
    let inst = InstrumentedProgram::unmodified(d.program());
    let occ = d
        .run_until_failure(&inst, None, 0, config.max_runs_per_occurrence)
        .expect("workload fails in production");
    let mut report = shepherd::shepherd(&inst.program, &occ.trace, Some(&occ.failure), config.sym)
        .expect("first trace decodes");
    let run = &mut report.run;
    let status = match &run.status {
        ShepherdStatus::Completed => "completed".to_string(),
        ShepherdStatus::Stalled { reason, .. } => format!("stalled:{reason:?}"),
        ShepherdStatus::Diverged(d) => format!("diverged:{d:?}"),
    };
    let (steps, path, sites) = (
        run.stats.steps,
        run.path.len(),
        run.site_counts.values().sum::<u64>(),
    );
    let first = if matches!(run.status, ShepherdStatus::Completed) {
        match shepherd::solve_inputs(run, &config.final_budget) {
            Ok(inputs) => inputs_digest(&inputs),
            Err(e) => format!("{e:?}"),
        }
    } else {
        "-".to_string()
    };
    let full = Reconstructor::new(config).reconstruct(d);
    let last = full
        .outcome
        .test_case()
        .map_or_else(|| "-".to_string(), |tc| inputs_digest(&tc.inputs));
    format!(
        "{} {status} steps={steps} path={path} sites={sites} first={first} occ={} final={last}",
        w.name, full.occurrences
    )
}

fn assert_rows(what: &str, actual: &[String], golden: &[&str]) {
    let rendered: String = actual.iter().map(|r| format!("    \"{r}\",\n")).collect();
    assert_eq!(
        actual.len(),
        golden.len(),
        "{what}: row count differs; actual rows:\n{rendered}"
    );
    for (a, g) in actual.iter().zip(golden) {
        assert_eq!(a, g, "{what}: row differs; actual rows:\n{rendered}");
    }
}

#[test]
fn concrete_runs_match_golden() {
    let rows: Vec<String> = er_workloads::all()
        .iter()
        .flat_map(|w| concrete_rows(w, &w.deployment(Scale::TEST)))
        .collect();
    assert_rows("concrete", &rows, CONCRETE);
}

#[test]
fn shepherded_runs_match_golden() {
    let rows: Vec<String> = er_workloads::all()
        .iter()
        .map(|w| symbolic_row(w, &w.deployment(Scale::TEST)))
        .collect();
    assert_rows("symbolic", &rows, SYMBOLIC);
}

const CONCRETE: &[&str] = &[
    "PHP-2012-2386 r0 ok n=121269 out=2:eff05f7af2924500 pt=4109:fa45130e07632ed4",
    "PHP-2012-2386 r1 ok n=121269 out=2:eff05f7af2924500 pt=4010:35f05b892e2df800",
    "PHP-2012-2386 r2 ok n=121269 out=2:eff05f7af2924500 pt=4010:35f05b892e2df800",
    "PHP-2012-2386 r3 ok n=121269 out=2:eff05f7af2924500 pt=4123:079d935feb70e21d",
    "PHP-2012-2386 r4 Assertion:9df275261e0378bd n=123253 out=1:77c560ab3c6ba500 pt=4203:db51f4a25b504cdf",
    "PHP-2012-2386 r5 ok n=121269 out=2:eff05f7af2924500 pt=4145:64d753543202ba51",
    "PHP-2012-2386 r6 ok n=121269 out=2:eff05f7af2924500 pt=4145:64d753543202ba51",
    "PHP-2012-2386 r7 ok n=121269 out=2:eff05f7af2924500 pt=4033:957dad6676fdd3dc",
    "PHP-2012-2386 r8 ok n=121269 out=2:eff05f7af2924500 pt=4033:957dad6676fdd3dc",
    "PHP-2012-2386 r9 Assertion:9df275261e0378bd n=123253 out=1:77c560ab3c6ba500 pt=4175:58db0c8cc18831ea",
    "PHP-2012-2386 r10 ok n=121269 out=2:eff05f7af2924500 pt=4115:600b43d0540fa41e",
    "PHP-2012-2386 r11 ok n=121269 out=2:eff05f7af2924500 pt=4169:dc29af94905d4e43",
    "PHP-2012-2386 r12 ok n=121269 out=2:eff05f7af2924500 pt=4169:dc29af94905d4e43",
    "PHP-2012-2386 r13 ok n=121269 out=2:eff05f7af2924500 pt=4042:c5393f6ebd554b38",
    "PHP-2012-2386 r14 Assertion:9df275261e0378bd n=123253 out=1:77c560ab3c6ba500 pt=4120:76f0dfc5976d6b58",
    "PHP-2012-2386 r15 ok n=121269 out=2:eff05f7af2924500 pt=4118:dbbfa22d99990bf3",
    "PHP-74194 r0 ok n=132269 out=2:0d3db9c509a2cc16 pt=4476:79de7a45f75faf66",
    "PHP-74194 r1 ok n=132269 out=2:0d3db9c509a2cc16 pt=4377:6dec9f433e1e4c56",
    "PHP-74194 r2 ok n=132269 out=2:0d3db9c509a2cc16 pt=4377:6dec9f433e1e4c56",
    "PHP-74194 r3 ok n=132269 out=2:0d3db9c509a2cc16 pt=4534:1d74de9fe512aa80",
    "PHP-74194 r4 Assertion:67c1c467263cd2d5 n=132969 out=1:977f8d8137a54556 pt=4567:743bad4cfb396594",
    "PHP-74194 r5 ok n=132269 out=2:0d3db9c509a2cc16 pt=4552:b64786a2485bfd73",
    "PHP-74194 r6 ok n=132269 out=2:0d3db9c509a2cc16 pt=4552:b64786a2485bfd73",
    "PHP-74194 r7 ok n=132269 out=2:0d3db9c509a2cc16 pt=4398:a6aa3694b2913c29",
    "PHP-74194 r8 ok n=132269 out=2:0d3db9c509a2cc16 pt=4398:a6aa3694b2913c29",
    "PHP-74194 r9 Assertion:67c1c467263cd2d5 n=132969 out=1:977f8d8137a54556 pt=4505:8d97ed8235f72b04",
    "PHP-74194 r10 ok n=132269 out=2:0d3db9c509a2cc16 pt=4472:39c78969d9a8470b",
    "PHP-74194 r11 ok n=132269 out=2:0d3db9c509a2cc16 pt=4556:c055aedba2513d4d",
    "PHP-74194 r12 ok n=132269 out=2:0d3db9c509a2cc16 pt=4556:c055aedba2513d4d",
    "PHP-74194 r13 ok n=132269 out=2:0d3db9c509a2cc16 pt=4394:77f76c3d0d63edce",
    "PHP-74194 r14 Assertion:67c1c467263cd2d5 n=132969 out=1:977f8d8137a54556 pt=4426:f840391b2eed7f6e",
    "PHP-74194 r15 ok n=132269 out=2:0d3db9c509a2cc16 pt=4466:98690f97ddb989e0",
    "SQLite-7be932d r0 ok n=32170 out=2:4a8afc32f4088362 pt=1101:ff565aed943d4569",
    "SQLite-7be932d r1 ok n=32170 out=2:4a8afc32f4088362 pt=1084:00536d97991bb4ec",
    "SQLite-7be932d r2 ok n=32170 out=2:4a8afc32f4088362 pt=1084:00536d97991bb4ec",
    "SQLite-7be932d r3 ok n=32170 out=2:4a8afc32f4088362 pt=1081:e83c0b9b5e9680ad",
    "SQLite-7be932d r4 NullDeref:2be0e3be732feca3 n=32195 out=1:006ba4723e694b22 pt=1080:09cf3814f469e059",
    "SQLite-7be932d r5 ok n=32170 out=2:4a8afc32f4088362 pt=1160:347fb4d348ff9bc6",
    "SQLite-7be932d r6 ok n=32170 out=2:4a8afc32f4088362 pt=1160:347fb4d348ff9bc6",
    "SQLite-7be932d r7 ok n=32170 out=2:4a8afc32f4088362 pt=1051:bd695aef825617aa",
    "SQLite-7be932d r8 ok n=32170 out=2:4a8afc32f4088362 pt=1051:bd695aef825617aa",
    "SQLite-7be932d r9 NullDeref:2be0e3be732feca3 n=32195 out=1:006ba4723e694b22 pt=1065:d9deab20e1677da2",
    "SQLite-7be932d r10 ok n=32170 out=2:4a8afc32f4088362 pt=1066:0d3f38def4203770",
    "SQLite-7be932d r11 ok n=32170 out=2:4a8afc32f4088362 pt=1105:9c16363b24add5d2",
    "SQLite-7be932d r12 ok n=32170 out=2:4a8afc32f4088362 pt=1105:9c16363b24add5d2",
    "SQLite-7be932d r13 ok n=32170 out=2:4a8afc32f4088362 pt=1124:31bc8ef9b8ed3488",
    "SQLite-7be932d r14 NullDeref:2be0e3be732feca3 n=32195 out=1:006ba4723e694b22 pt=1123:a6e137af5c44112a",
    "SQLite-7be932d r15 ok n=32170 out=2:4a8afc32f4088362 pt=1106:a63fb4751b4b0268",
    "SQLite-787fa71 r0 ok n=25569 out=2:50477b996d94b145 pt=894:d83809d5243a836d",
    "SQLite-787fa71 r1 ok n=25569 out=2:50477b996d94b145 pt=872:efa953549e8c7b3d",
    "SQLite-787fa71 r2 ok n=25569 out=2:50477b996d94b145 pt=872:efa953549e8c7b3d",
    "SQLite-787fa71 r3 ok n=25569 out=2:50477b996d94b145 pt=836:05bbc4aa0a6656ce",
    "SQLite-787fa71 r4 Assertion:77593a53ab6e2517 n=25615 out=1:a8753dae7620aaa5 pt=835:58d5b770cb9fd259",
    "SQLite-787fa71 r5 ok n=25569 out=2:50477b996d94b145 pt=914:a87e5cb8ff3730e8",
    "SQLite-787fa71 r6 ok n=25569 out=2:50477b996d94b145 pt=914:a87e5cb8ff3730e8",
    "SQLite-787fa71 r7 ok n=25569 out=2:50477b996d94b145 pt=859:a0fcdfd46bc51fa5",
    "SQLite-787fa71 r8 ok n=25569 out=2:50477b996d94b145 pt=859:a0fcdfd46bc51fa5",
    "SQLite-787fa71 r9 Assertion:77593a53ab6e2517 n=25615 out=1:a8753dae7620aaa5 pt=833:f00c12a83c069e18",
    "SQLite-787fa71 r10 ok n=25569 out=2:50477b996d94b145 pt=834:651af3de0923df51",
    "SQLite-787fa71 r11 ok n=25569 out=2:50477b996d94b145 pt=858:31366185a75c9b66",
    "SQLite-787fa71 r12 ok n=25569 out=2:50477b996d94b145 pt=858:31366185a75c9b66",
    "SQLite-787fa71 r13 ok n=25569 out=2:50477b996d94b145 pt=911:ee6f4e7629befa66",
    "SQLite-787fa71 r14 Assertion:77593a53ab6e2517 n=25615 out=1:a8753dae7620aaa5 pt=910:eb63e26c8e7de5a1",
    "SQLite-787fa71 r15 ok n=25569 out=2:50477b996d94b145 pt=895:e77e0b8d57ac2f8d",
    "SQLite-4e8e485 r0 ok n=27770 out=2:58f7bb1ac65623ff pt=964:6d4c191e9686d169",
    "SQLite-4e8e485 r1 ok n=27770 out=2:58f7bb1ac65623ff pt=942:f65ca4ac55669bc4",
    "SQLite-4e8e485 r2 ok n=27770 out=2:58f7bb1ac65623ff pt=942:f65ca4ac55669bc4",
    "SQLite-4e8e485 r3 ok n=27770 out=2:58f7bb1ac65623ff pt=924:d0a2e699930bbc76",
    "SQLite-4e8e485 r4 NullDeref:50d5388e94f3b91f n=27858 out=1:365565f26a5aea1f pt=924:f30df699aeef1c26",
    "SQLite-4e8e485 r5 ok n=27770 out=2:58f7bb1ac65623ff pt=1004:d44983599330df79",
    "SQLite-4e8e485 r6 ok n=27770 out=2:58f7bb1ac65623ff pt=1004:d44983599330df79",
    "SQLite-4e8e485 r7 ok n=27770 out=2:58f7bb1ac65623ff pt=931:ad924d6b744fe6db",
    "SQLite-4e8e485 r8 ok n=27770 out=2:58f7bb1ac65623ff pt=931:ad924d6b744fe6db",
    "SQLite-4e8e485 r9 NullDeref:50d5388e94f3b91f n=27858 out=1:365565f26a5aea1f pt=909:cef5121379091b8e",
    "SQLite-4e8e485 r10 ok n=27770 out=2:58f7bb1ac65623ff pt=909:44f30213aabc89fe",
    "SQLite-4e8e485 r11 ok n=27770 out=2:58f7bb1ac65623ff pt=949:4a83f70187216ae3",
    "SQLite-4e8e485 r12 ok n=27770 out=2:58f7bb1ac65623ff pt=949:4a83f70187216ae3",
    "SQLite-4e8e485 r13 ok n=27770 out=2:58f7bb1ac65623ff pt=986:5939b231b911b934",
    "SQLite-4e8e485 r14 NullDeref:50d5388e94f3b91f n=27858 out=1:365565f26a5aea1f pt=986:467242319e01e038",
    "SQLite-4e8e485 r15 ok n=27770 out=2:58f7bb1ac65623ff pt=968:c0c7498403e1d3c7",
    "Nasm-2004-1287 r0 ok n=34143 out=2:ae187062bdbb6163 pt=1171:0f85f9ed72bca3d6",
    "Nasm-2004-1287 r1 ok n=34143 out=2:ae187062bdbb6163 pt=1155:7a5d85c00d9ff411",
    "Nasm-2004-1287 r2 ok n=34143 out=2:ae187062bdbb6163 pt=1155:7a5d85c00d9ff411",
    "Nasm-2004-1287 r3 ok n=34143 out=2:ae187062bdbb6163 pt=1151:213176deec524618",
    "Nasm-2004-1287 r4 Assertion:9ce48f705c5e1110 n=34506 out=1:b29eba2baa6b2303 pt=1156:a696b71f1eb38b76",
    "Nasm-2004-1287 r5 ok n=34143 out=2:ae187062bdbb6163 pt=1212:7af92d5825c3aa57",
    "Nasm-2004-1287 r6 ok n=34143 out=2:ae187062bdbb6163 pt=1212:7af92d5825c3aa57",
    "Nasm-2004-1287 r7 ok n=34143 out=2:ae187062bdbb6163 pt=1122:1aedbf64fefc8da9",
    "Nasm-2004-1287 r8 ok n=34143 out=2:ae187062bdbb6163 pt=1122:1aedbf64fefc8da9",
    "Nasm-2004-1287 r9 Assertion:9ce48f705c5e1110 n=34506 out=1:b29eba2baa6b2303 pt=1159:44e4eb759fdf872d",
    "Nasm-2004-1287 r10 ok n=34143 out=2:ae187062bdbb6163 pt=1134:20a1e6633ba467d7",
    "Nasm-2004-1287 r11 ok n=34143 out=2:ae187062bdbb6163 pt=1175:f33380dc69a8531d",
    "Nasm-2004-1287 r12 ok n=34143 out=2:ae187062bdbb6163 pt=1175:f33380dc69a8531d",
    "Nasm-2004-1287 r13 ok n=34143 out=2:ae187062bdbb6163 pt=1194:23112d473e40678a",
    "Nasm-2004-1287 r14 Assertion:9ce48f705c5e1110 n=34506 out=1:b29eba2baa6b2303 pt=1199:67f933947fa66de0",
    "Nasm-2004-1287 r15 ok n=34143 out=2:ae187062bdbb6163 pt=1198:b93a12ba9d9cce7c",
    "Objdump-2018-6323 r0 ok n=7641 out=2:3ff89d4238a45710 pt=267:d70c82055d1f7111",
    "Objdump-2018-6323 r1 ok n=7641 out=2:3ff89d4238a45710 pt=268:83e3ed219f256c5e",
    "Objdump-2018-6323 r2 ok n=7641 out=2:3ff89d4238a45710 pt=268:83e3ed219f256c5e",
    "Objdump-2018-6323 r3 ok n=7641 out=2:3ff89d4238a45710 pt=270:59371c67fe834376",
    "Objdump-2018-6323 r4 Assertion:0897c35379884c23 n=8233 out=1:0d962a39733b1510 pt=281:d05396b5b42687aa",
    "Objdump-2018-6323 r5 ok n=7641 out=2:3ff89d4238a45710 pt=271:9199dc1e843ec89d",
    "Objdump-2018-6323 r6 ok n=7641 out=2:3ff89d4238a45710 pt=271:9199dc1e843ec89d",
    "Objdump-2018-6323 r7 ok n=7641 out=2:3ff89d4238a45710 pt=272:eb5af59e025611ba",
    "Objdump-2018-6323 r8 ok n=7641 out=2:3ff89d4238a45710 pt=272:eb5af59e025611ba",
    "Objdump-2018-6323 r9 Assertion:0897c35379884c23 n=8233 out=1:0d962a39733b1510 pt=282:f5f307da32d73213",
    "Objdump-2018-6323 r10 ok n=7641 out=2:3ff89d4238a45710 pt=271:abd1587d062a449d",
    "Objdump-2018-6323 r11 ok n=7641 out=2:3ff89d4238a45710 pt=251:80b004a7bd610eb1",
    "Objdump-2018-6323 r12 ok n=7641 out=2:3ff89d4238a45710 pt=251:80b004a7bd610eb1",
    "Objdump-2018-6323 r13 ok n=7641 out=2:3ff89d4238a45710 pt=289:8fbd937c4c3b3749",
    "Objdump-2018-6323 r14 Assertion:0897c35379884c23 n=8233 out=1:0d962a39733b1510 pt=321:213b562f79e42ed7",
    "Objdump-2018-6323 r15 ok n=7641 out=2:3ff89d4238a45710 pt=270:e6ac26c5b0c690c5",
    "Matrixssl-2014-1569 r0 ok n=50871 out=2:c3b595fe132c9001 pt=1749:2661964a7d858e0e",
    "Matrixssl-2014-1569 r1 ok n=50871 out=2:c3b595fe132c9001 pt=1682:68c72df544c44a26",
    "Matrixssl-2014-1569 r2 ok n=50871 out=2:c3b595fe132c9001 pt=1682:68c72df544c44a26",
    "Matrixssl-2014-1569 r3 ok n=50871 out=2:c3b595fe132c9001 pt=1734:0b4d4394437fc3f2",
    "Matrixssl-2014-1569 r4 Assertion:1f98e85843fe99a1 n=101836 out=2:dc5b82a67ed7bf1d pt=3519:f4b90a6c79e98054",
    "Matrixssl-2014-1569 r5 ok n=50871 out=2:c3b595fe132c9001 pt=1774:c31687acb67420b8",
    "Matrixssl-2014-1569 r6 ok n=50871 out=2:c3b595fe132c9001 pt=1774:c31687acb67420b8",
    "Matrixssl-2014-1569 r7 ok n=50871 out=2:c3b595fe132c9001 pt=1666:5b040bad329204a1",
    "Matrixssl-2014-1569 r8 ok n=50871 out=2:c3b595fe132c9001 pt=1666:5b040bad329204a1",
    "Matrixssl-2014-1569 r9 Assertion:1f98e85843fe99a1 n=101836 out=2:dc5b82a67ed7bf1d pt=3464:3e60623e263a31e0",
    "Matrixssl-2014-1569 r10 ok n=50871 out=2:c3b595fe132c9001 pt=1659:a6f29ed351cf9ce7",
    "Matrixssl-2014-1569 r11 ok n=50871 out=2:c3b595fe132c9001 pt=1779:3ddab75bc37a4c32",
    "Matrixssl-2014-1569 r12 ok n=50871 out=2:c3b595fe132c9001 pt=1779:3ddab75bc37a4c32",
    "Matrixssl-2014-1569 r13 ok n=50871 out=2:c3b595fe132c9001 pt=1757:15c5b4e659698a09",
    "Matrixssl-2014-1569 r14 Assertion:1f98e85843fe99a1 n=101836 out=2:dc5b82a67ed7bf1d pt=3426:2b77a9dd181c454b",
    "Matrixssl-2014-1569 r15 ok n=50871 out=2:c3b595fe132c9001 pt=1760:444c75e5c1e6b852",
    "Memcached-2019-11596 r0 ok n=50107 out=4:ee5a547ea3d16b6c pt=3245:ee11d6d1131ac9fb",
    "Memcached-2019-11596 r1 NullDeref:ef8bb0db80af906b n=45320 out=2:8530dd963e8a0b90 pt=3005:0aee2ea5c16c5746",
    "Memcached-2019-11596 r2 NullDeref:ef8bb0db80af906b n=45320 out=2:8530dd963e8a0b90 pt=3005:0aee2ea5c16c5746",
    "Memcached-2019-11596 r3 ok n=50107 out=4:ee5a547ea3d16b6c pt=3318:76507a52496f87a6",
    "Memcached-2019-11596 r4 NullDeref:ef8bb0db80af906b n=45769 out=2:8530dd963e8a0b90 pt=2989:248d1ce9590007bc",
    "Memcached-2019-11596 r5 NullDeref:ef8bb0db80af906b n=45923 out=2:8530dd963e8a0b90 pt=3050:b43d4e82972aa7e4",
    "Memcached-2019-11596 r6 ok n=50107 out=4:ee5a547ea3d16b6c pt=3377:4454b09c1ced7577",
    "Memcached-2019-11596 r7 NullDeref:ef8bb0db80af906b n=45956 out=2:8530dd963e8a0b90 pt=2970:754ef2d0c398462a",
    "Memcached-2019-11596 r8 NullDeref:ef8bb0db80af906b n=45956 out=2:8530dd963e8a0b90 pt=2970:754ef2d0c398462a",
    "Memcached-2019-11596 r9 ok n=50107 out=4:ee5a547ea3d16b6c pt=3208:798c28211090c0ed",
    "Memcached-2019-11596 r10 NullDeref:ef8bb0db80af906b n=45831 out=2:8530dd963e8a0b90 pt=2860:be347bcd8e035afb",
    "Memcached-2019-11596 r11 NullDeref:ef8bb0db80af906b n=45661 out=2:8530dd963e8a0b90 pt=2848:ec86e80ac546f49d",
    "Memcached-2019-11596 r12 ok n=50107 out=4:ee5a547ea3d16b6c pt=3199:29ce86e9c0c42a21",
    "Memcached-2019-11596 r13 NullDeref:ef8bb0db80af906b n=45526 out=2:8530dd963e8a0b90 pt=2885:0f50da2168886ebe",
    "Memcached-2019-11596 r14 NullDeref:ef8bb0db80af906b n=45526 out=2:8530dd963e8a0b90 pt=2885:0f50da2168886ebe",
    "Memcached-2019-11596 r15 ok n=50107 out=4:ee5a547ea3d16b6c pt=3381:08e7b757cb9524e4",
    "Libpng-2004-0597 r0 ok n=1937 out=2:c7d7e24443ee0dc2 pt=77:d47e25882b9a753a",
    "Libpng-2004-0597 r1 ok n=1937 out=2:c7d7e24443ee0dc2 pt=98:9d82624a234fd1f7",
    "Libpng-2004-0597 r2 ok n=1937 out=2:c7d7e24443ee0dc2 pt=98:9d82624a234fd1f7",
    "Libpng-2004-0597 r3 Assertion:bcfef4268bdaa736 n=2319 out=1:593e3da8c76749a2 pt=102:0abb5180ca631930",
    "Libpng-2004-0597 r4 ok n=1937 out=2:c7d7e24443ee0dc2 pt=77:7e51d9530021face",
    "Libpng-2004-0597 r5 ok n=1937 out=2:c7d7e24443ee0dc2 pt=79:7ab1fcc605950531",
    "Libpng-2004-0597 r6 ok n=1937 out=2:c7d7e24443ee0dc2 pt=79:7ab1fcc605950531",
    "Libpng-2004-0597 r7 Assertion:bcfef4268bdaa736 n=2319 out=1:593e3da8c76749a2 pt=102:2d6d415fc8467a34",
    "Libpng-2004-0597 r8 ok n=1937 out=2:c7d7e24443ee0dc2 pt=77:7aaaef7bc95e2e59",
    "Libpng-2004-0597 r9 ok n=1937 out=2:c7d7e24443ee0dc2 pt=78:7c78a18977e656b4",
    "Libpng-2004-0597 r10 ok n=1937 out=2:c7d7e24443ee0dc2 pt=78:7c78a18977e656b4",
    "Libpng-2004-0597 r11 Assertion:bcfef4268bdaa736 n=2319 out=1:593e3da8c76749a2 pt=84:ca3a4482fdbc9a56",
    "Libpng-2004-0597 r12 ok n=1937 out=2:c7d7e24443ee0dc2 pt=77:6be08448f7e0cf56",
    "Libpng-2004-0597 r13 ok n=1937 out=2:c7d7e24443ee0dc2 pt=79:a79aa9a16a5679ef",
    "Libpng-2004-0597 r14 ok n=1937 out=2:c7d7e24443ee0dc2 pt=79:a79aa9a16a5679ef",
    "Libpng-2004-0597 r15 Assertion:bcfef4268bdaa736 n=2319 out=1:593e3da8c76749a2 pt=102:e8fcdd28489780a0",
    "Bash-108885 r0 ok n=19832 out=2:f9a864b908a38bda pt=681:cf65fd7dd8e22fcb",
    "Bash-108885 r1 ok n=19832 out=2:f9a864b908a38bda pt=676:d3b4b58f431c68ce",
    "Bash-108885 r2 ok n=19832 out=2:f9a864b908a38bda pt=676:d3b4b58f431c68ce",
    "Bash-108885 r3 ok n=19832 out=2:f9a864b908a38bda pt=680:1ca93d15971ba7b1",
    "Bash-108885 r4 ok n=19832 out=2:f9a864b908a38bda pt=680:1ca93d15971ba7b1",
    "Bash-108885 r5 NullDeref:62247b9b432048cd n=19836 out=1:a91bc48807da749b pt=716:4643256b1bb957f6",
    "Bash-108885 r6 ok n=19832 out=2:f9a864b908a38bda pt=717:fbe3d5001c0f2319",
    "Bash-108885 r7 ok n=19832 out=2:f9a864b908a38bda pt=664:8b7c52db8b502a8c",
    "Bash-108885 r8 ok n=19832 out=2:f9a864b908a38bda pt=664:8b7c52db8b502a8c",
    "Bash-108885 r9 ok n=19832 out=2:f9a864b908a38bda pt=660:bc7e396a6b72e29d",
    "Bash-108885 r10 ok n=19832 out=2:f9a864b908a38bda pt=660:bc7e396a6b72e29d",
    "Bash-108885 r11 NullDeref:62247b9b432048cd n=19836 out=1:a91bc48807da749b pt=663:1b9ddac171262725",
    "Bash-108885 r12 ok n=19832 out=2:f9a864b908a38bda pt=664:4fdda6b343d6cab4",
    "Bash-108885 r13 ok n=19832 out=2:f9a864b908a38bda pt=720:020666519b918421",
    "Bash-108885 r14 ok n=19832 out=2:f9a864b908a38bda pt=720:020666519b918421",
    "Bash-108885 r15 ok n=19832 out=2:f9a864b908a38bda pt=719:dd050f63f9ab926a",
    "Python-2018-1000030 r0 ok n=833654 out=4:dfb016761c871a12 pt=52254:e2aa2cc608a7b552",
    "Python-2018-1000030 r1 Assertion:56ffc2d27057ec62 n=829676 out=2:57eaa4bf7f4d86f8 pt=52295:10649b2479d1da40",
    "Python-2018-1000030 r2 Assertion:56ffc2d27057ec62 n=829787 out=2:57eaa4bf7f4d86f8 pt=51863:98cddc6696b2ab57",
    "Python-2018-1000030 r3 ok n=833654 out=4:dfb016761c871a12 pt=52186:c4f870fbe73695aa",
    "Python-2018-1000030 r4 Assertion:56ffc2d27057ec62 n=829898 out=2:57eaa4bf7f4d86f8 pt=51943:2dcf25f12ae0f433",
    "Python-2018-1000030 r5 Assertion:56ffc2d27057ec62 n=830151 out=2:57eaa4bf7f4d86f8 pt=52225:2810da410bbed142",
    "Python-2018-1000030 r6 ok n=833654 out=4:dfb016761c871a12 pt=52317:cf9cdd440f105436",
    "Python-2018-1000030 r7 Assertion:56ffc2d27057ec62 n=829488 out=2:57eaa4bf7f4d86f8 pt=51692:572f2ccb94c3e579",
    "Python-2018-1000030 r8 Assertion:56ffc2d27057ec62 n=829897 out=2:57eaa4bf7f4d86f8 pt=52120:0bd32b2344df49c7",
    "Python-2018-1000030 r9 ok n=833654 out=4:dfb016761c871a12 pt=52612:79bacae165364465",
    "Python-2018-1000030 r10 Assertion:56ffc2d27057ec62 n=829385 out=2:57eaa4bf7f4d86f8 pt=51922:9204b5d0d73a9a34",
    "Python-2018-1000030 r11 Assertion:56ffc2d27057ec62 n=829268 out=2:57eaa4bf7f4d86f8 pt=51758:2e773292b5f8cdf9",
    "Python-2018-1000030 r12 ok n=833654 out=4:dfb016761c871a12 pt=52290:5e89120e8a259a1d",
    "Python-2018-1000030 r13 Assertion:56ffc2d27057ec62 n=829287 out=2:57eaa4bf7f4d86f8 pt=52352:1c7c9b4004f41636",
    "Python-2018-1000030 r14 Assertion:56ffc2d27057ec62 n=830334 out=2:57eaa4bf7f4d86f8 pt=51976:cb4e3fb00b75bfea",
    "Python-2018-1000030 r15 ok n=833654 out=4:dfb016761c871a12 pt=52113:a9147407f9f55b93",
    "Pbzip2 r0 ok n=157047 out=3:aca560f769aaa705 pt=11187:d049a694a5d67a06",
    "Pbzip2 r1 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11550:821f5e7f35ae0106",
    "Pbzip2 r2 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11357:01fbeb363b6f80a7",
    "Pbzip2 r3 ok n=157047 out=3:aca560f769aaa705 pt=10907:41bba347091b0733",
    "Pbzip2 r4 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11507:def64f9d588c1197",
    "Pbzip2 r5 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11810:96e81d4197b7053c",
    "Pbzip2 r6 ok n=157047 out=3:aca560f769aaa705 pt=10991:51b50e423517b04b",
    "Pbzip2 r7 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11440:d626535701879837",
    "Pbzip2 r8 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11533:ad220c2a5fe547ac",
    "Pbzip2 r9 ok n=157047 out=3:aca560f769aaa705 pt=11141:bf158a5044ff380b",
    "Pbzip2 r10 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11654:435c9b33b5e4d649",
    "Pbzip2 r11 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11432:daa742e085a4401b",
    "Pbzip2 r12 ok n=157047 out=3:aca560f769aaa705 pt=11074:abd781d69c648bd7",
    "Pbzip2 r13 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11479:c653d1462aacc12c",
    "Pbzip2 r14 MemoryCorruption:0ff55e9e7842fb2c n=163357 out=3:62bce53a1025bd91 pt=11401:00aba77b9263e8c7",
    "Pbzip2 r15 ok n=157047 out=3:aca560f769aaa705 pt=10800:c5e2f3fc07b286db",
];

const SYMBOLIC: &[&str] = &[
    "PHP-2012-2386 stalled:ArrayCells { cells: 4096 } steps=121276 path=1 sites=99227 first=- occ=6 final=424:8a02e859d256f838",
    "PHP-74194 stalled:ArrayCells { cells: 4096 } steps=132276 path=1 sites=108227 first=- occ=10 final=488:59a14bb88dfa4514",
    "SQLite-7be932d stalled:ArrayCells { cells: 4096 } steps=32177 path=1 sites=26328 first=- occ=3 final=376:9c61c9c91c8dea44",
    "SQLite-787fa71 stalled:ArrayCells { cells: 4096 } steps=25576 path=1 sites=20927 first=- occ=4 final=392:e5b89815998c0648",
    "SQLite-4e8e485 stalled:ArrayCells { cells: 4096 } steps=27777 path=1 sites=22728 first=- occ=3 final=376:9c61c9c91c8dea44",
    "Nasm-2004-1287 stalled:ArrayCells { cells: 4096 } steps=34150 path=1 sites=27939 first=- occ=3 final=72:2da6fa48f8f78b0f",
    "Objdump-2018-6323 stalled:ArrayCells { cells: 4096 } steps=7648 path=1 sites=6259 first=- occ=3 final=376:9c61c9c91c8dea44",
    "Matrixssl-2014-1569 stalled:ArrayCells { cells: 4096 } steps=50878 path=1 sites=41629 first=- occ=6 final=424:8a02e859d256f838",
    "Memcached-2019-11596 stalled:ArrayCells { cells: 4096 } steps=45332 path=1 sites=36739 first=- occ=2 final=296:4d8a2c1f901ca0dc",
    "Libpng-2004-0597 completed steps=2319 path=81 sites=1767 first=96:0e2d57f9754b2fe0 occ=1 final=96:0e2d57f9754b2fe0",
    "Bash-108885 completed steps=19836 path=4 sites=16222 first=16:db7752208b5f7487 occ=1 final=16:db7752208b5f7487",
    "Python-2018-1000030 completed steps=829691 path=1 sites=678362 first=Stall(ArrayCells { cells: 4096 }) occ=2 final=296:77cbba64e828bd2c",
    "Pbzip2 stalled:ArrayCells { cells: 3072 } steps=154234 path=1 sites=126192 first=- occ=2 final=296:a63a162f071e5e10",
];
