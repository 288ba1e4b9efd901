//! Two runs of the same workload and seed must print identical quality
//! metrics: `accuracy`, `rules` and `fidelity` are computed over row sets
//! the seed fixes, never over whatever finished in time.
//!
//! `cargo test --release --manifest-path e2ebench/Cargo.toml` (a few
//! minutes: it mines the suite four times).

use std::process::Command;

const QUALITY: [&str; 3] = ["accuracy", "rules", "fidelity"];

/// Runs one workload from the repository root and returns its result line.
fn run(workload: &str, seed: &str) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .current_dir(root)
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The JSON text of one metric's value in a result line.
fn value<'a>(result: &'a str, metric: &str) -> &'a str {
    let key = format!("\"{metric}\": {{\"value\": ");
    let start = result
        .find(&key)
        .unwrap_or_else(|| panic!("{metric} missing"))
        + key.len();
    let len = result[start..].find(',').expect("value ends");
    &result[start..start + len]
}

fn assert_repeatable(workload: &str) {
    let first = run(workload, "7");
    let second = run(workload, "7");
    assert!(first.starts_with("{\"correct\": true"), "{first}");
    for metric in QUALITY {
        assert_eq!(
            value(&first, metric),
            value(&second, metric),
            "{workload} {metric}"
        );
    }
}

#[test]
fn mine_quality_repeats() {
    assert_repeatable("mine");
}

#[test]
fn scan_quality_repeats() {
    assert_repeatable("scan");
}

#[test]
fn serve_quality_repeats() {
    assert_repeatable("serve");
}
