//! Tiny-scale smoke of every workload in both modes: each metric named in
//! `BENCHMARK.json` is emitted with its unit, and every result agrees
//! with the reference (the binary exits non-zero on any mismatch).

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in the `key` section of BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &text[start..];
    let section = &section[..section.find(']').expect("metric list closes")];
    let field = |entry: &str, f: &str| -> String {
        let at = entry.find(&format!("\"{f}\"")).expect("metric field") + f.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("string end");
        rest[open..open + len].to_string()
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pbsmbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "0.01"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = run(workload, trace);
        assert!(result.starts_with("{\"correct\": true,"), "{result}");
        assert!(result.contains("\"failed\": 0,"), "{result}");
        let metrics = declared(key);
        assert!(!metrics.is_empty());
        for (name, unit) in metrics {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = result
                .find(&entry)
                .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}: {result}"));
            let rest = &result[at + entry.len()..];
            let value_end = rest.find(',').expect("value then unit");
            let value: f64 = rest[..value_end].parse().expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            assert!(
                rest[value_end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
                "{name} unit: {rest}"
            );
        }
    }
}

#[test]
fn tiger_cold_smoke() {
    check("tiger_cold");
}

#[test]
fn sequoia_warm_smoke() {
    check("sequoia_warm");
}

#[test]
fn rejects_bad_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbsmbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
