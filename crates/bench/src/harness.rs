//! Shared infrastructure for the table/figure-regenerating binaries.
//!
//! Every binary prints a Markdown table (the human-readable artifact that
//! EXPERIMENTS.md quotes) and writes a JSON record under `results/` so the
//! numbers are machine-checkable.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The process-wide worker pool lives in `er-fleet` (production-side code
/// needs it too); re-exported here for the bench binaries.
pub use er_fleet::pool::parallel_map;

/// Mean and standard error of repeated measurements.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Standard error of the mean.
    pub stderr: f64,
    /// Sample count.
    pub n: usize,
}

/// Computes mean ± standard error.
pub fn stats(samples: &[f64]) -> Stats {
    let n = samples.len().max(1);
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
    } else {
        0.0
    };
    Stats {
        mean,
        stderr: (var / n as f64).sqrt(),
        n,
    }
}

/// Times one invocation of `f`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` `reps` times and returns per-run wall seconds.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        out.push(start.elapsed().as_secs_f64());
    }
    out
}

/// Normalized overhead of `measured` relative to `baseline`, in percent.
pub fn overhead_pct(baseline: f64, measured: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (measured / baseline - 1.0) * 100.0
}

/// Writes `value` as pretty JSON to `<dir>/<name>.json`, where `<dir>`
/// is `$ER_RESULTS_DIR` (default `results`). Returns the written path,
/// or `None` if serialization or the write failed.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var("ER_RESULTS_DIR").unwrap_or_else(|_| "results".into()));
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = fs::write(&path, s) {
                er_telemetry::log!(warn, "could not write {}: {e}", path.display());
                None
            } else {
                er_telemetry::log!(info, "(wrote {})", path.display());
                Some(path)
            }
        }
        Err(e) => {
            er_telemetry::log!(warn, "could not serialize {name}: {e}");
            None
        }
    }
}

/// Prints a Markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Formats a duration compactly.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mean_and_stderr() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-9);
        assert!(s.stderr > 0.0);
        assert_eq!(s.n, 3);
        let single = stats(&[5.0]);
        assert_eq!(single.stderr, 0.0);
    }

    #[test]
    fn overhead_math() {
        assert!((overhead_pct(2.0, 3.0) - 50.0).abs() < 1e-9);
        assert_eq!(overhead_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn write_json_honors_results_dir_override() {
        // Use a subdirectory of the target dir so parallel tests in other
        // processes (which read ER_RESULTS_DIR at call time) are unaffected.
        let dir = std::env::temp_dir().join(format!("er-results-test-{}", std::process::id()));
        std::env::set_var("ER_RESULTS_DIR", &dir);
        let path = write_json("harness_selftest", &vec![1u64, 2, 3]).expect("write succeeds");
        std::env::remove_var("ER_RESULTS_DIR");
        assert!(path.starts_with(&dir));
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains('1') && text.contains('3'));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.0 ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(2.5)), "2.50 s");
        assert_eq!(fmt_duration(Duration::from_secs(120)), "2.0 min");
    }
}
