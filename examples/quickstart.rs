//! Quickstart: reproduce a production failure end-to-end with ER.
//!
//! This walks the paper's Fig. 2 pipeline on a small program: a deployment
//! runs under always-on PT-style tracing, a failure occurs, shepherded
//! symbolic execution follows the shipped trace, and ER emits a concrete,
//! replay-verified test case.
//!
//! Run with: `cargo run --release --example quickstart`

use er::core::deploy::Deployment;
use er::core::reconstruct::{ErConfig, Outcome, Reconstructor};
use er::minilang::compile;
use er::minilang::env::Env;

fn main() {
    // 1. The "application": crashes when the two halves of a request id
    //    multiply to a magic value. The failure depends on input data, so a
    //    crash dump alone would not tell you which request did it.
    let program = compile(
        r#"
        fn checksum(hi: u32, lo: u32) -> u32 {
            return hi * 31 + lo;
        }

        fn handle(request: u32) {
            let hi: u32 = request >> 8;
            let lo: u32 = request & 255;
            if checksum(hi, lo) == 297 {
                abort("request corrupted the session table");
            }
            print(request);
        }

        fn main() {
            let request: u32 = input_u32(0);
            handle(request);
        }
        "#,
    )
    .expect("the demo program compiles");

    // 2. The "production deployment": every run receives a different
    //    request. Run 2322 will turn out to be fatal, but ER does not know
    //    that — it just watches traces.
    let deployment = Deployment::new(program, |run| {
        let mut env = Env::new();
        let request = (run as u32) % 65_536; // request 0x0912 = 2322 is fatal
        env.push_input(0, &request.to_le_bytes());
        env
    });

    // 3. Reconstruct. ER waits for the failure, ships the trace to
    //    shepherded symbolic execution, and solves for a failing input.
    let report = Reconstructor::new(ErConfig::default()).reconstruct(&deployment);

    println!(
        "failure observed: {:?}",
        report.target.as_ref().map(|f| f.fault.to_string())
    );
    println!("occurrences consumed: {}", report.occurrences);
    println!("total symbex time: {:?}", report.total_symbex());
    match &report.outcome {
        Outcome::Reproduced(test_case) => {
            println!("reproduced! generated input streams:");
            for (source, bytes) in &test_case.inputs {
                println!("  stream {source}: {bytes:?}");
            }
            // 4. The guarantee: the generated input may differ from the one
            //    production saw, but it replays to the same failure. Verify
            //    it one more time here.
            let verdict = test_case.verify(deployment.program());
            println!("replay verification: {verdict:?}");
            assert!(verdict.reproduced());
        }
        Outcome::GaveUp(reason) => panic!("reconstruction failed: {reason:?}"),
    }
}
