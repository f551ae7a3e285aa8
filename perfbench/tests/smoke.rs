//! Smoke test: every workload at the tiny size. Checks that every metric
//! `BENCHMARK.json` names is printed with its unit, that every reference
//! check runs, and that the fingerprint repeats across same-seed runs.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["bulk_mine", "serve_read", "update_mix"];

/// Metrics each workload's report names, with their units.
const REPORTED: [(&str, &[(&str, &str)]); 3] = [
    (
        "bulk_mine",
        &[
            ("setup_s", "s"),
            ("bulk_docs_per_s", "docs/s"),
            ("recover_s", "s"),
            ("failed_share", "ratio"),
            ("peak_rss_mb", "MB"),
        ],
    ),
    (
        "serve_read",
        &[
            ("setup_s", "s"),
            ("read_rps", "req/s"),
            ("read_p50_us", "us"),
            ("read_p99_us", "us"),
            ("failed_share", "ratio"),
            ("peak_rss_mb", "MB"),
        ],
    ),
    (
        "update_mix",
        &[
            ("setup_s", "s"),
            ("read_p50_us", "us"),
            ("read_p99_us", "us"),
            ("write_p50_us", "us"),
            ("write_p99_us", "us"),
            ("failed_share", "ratio"),
            ("peak_rss_mb", "MB"),
        ],
    ),
];

/// Reference checks each workload must run.
const CHECKS: [(&str, &[&str]); 3] = [
    (
        "bulk_mine",
        &["determinism", "pipeline", "replay", "search", "serve"],
    ),
    (
        "serve_read",
        &["pipeline", "replay", "search", "serve", "timed_answers"],
    ),
    (
        "update_mix",
        &[
            "pipeline",
            "replay",
            "search",
            "operations",
            "search_after_writes",
            "replay_after_writes",
        ],
    ),
];

struct Run {
    lines: Vec<String>,
    result: Value,
}

impl Run {
    fn fingerprint(&self) -> &str {
        self.lines
            .iter()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .expect("fingerprint line")
    }

    fn check_attempted(&self, kind: &str) -> u64 {
        let prefix = format!("check {kind} attempted ");
        self.lines
            .iter()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|rest| rest.split_whitespace().next())
            .map_or(0, |n| n.parse().expect("attempted count"))
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let spans = format!("{}/spans-{workload}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_wf-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--size", "tiny", "--spans", &spans])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = serde_json::from_str(lines.last().expect("a result line")).expect("JSON result");
    Run { lines, result }
}

/// `(name, unit)` of one metric list in `BENCHMARK.json`.
fn contract(list: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let v: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
    v[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn assert_metrics(workload: &str, run: &Run, expected: &[(String, String)]) {
    let metrics = run.result["metrics"].as_object().expect("metrics object");
    let names: Vec<&String> = metrics.keys().collect();
    let mut want: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    want.sort();
    assert_eq!(names, want, "{workload}: metric names");
    for (name, unit) in expected {
        let m = &metrics[name];
        assert!(
            m["value"].as_f64().is_some(),
            "{workload}: {name} has no value"
        );
        assert_eq!(
            m["unit"].as_str(),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
    }
}

#[test]
fn every_workload_reports_checks_and_repeats_its_fingerprint() {
    let end_to_end = contract("end_to_end");
    let per_layer = contract("per_layer");
    let reported: BTreeMap<&str, &[(&str, &str)]> = REPORTED.into_iter().collect();
    let checks: BTreeMap<&str, &[&str]> = CHECKS.into_iter().collect();
    for workload in WORKLOADS {
        let first = run(workload, 3, false);
        assert_metrics(workload, &first, &end_to_end);
        assert!(first.result["attempted"].as_u64().unwrap_or(0) >= 1);
        assert!(first.result["failed"].as_u64().is_some());
        for (name, unit) in reported[workload] {
            let line = format!("metric {name} ");
            let found = first.lines.iter().find(|l| l.starts_with(&line));
            let found = found.unwrap_or_else(|| panic!("{workload}: no {name} line"));
            assert!(found.ends_with(&format!(" {unit}")), "{workload}: {found}");
        }
        for kind in checks[workload] {
            assert!(
                first.check_attempted(kind) > 0,
                "{workload}: check {kind} did not run"
            );
        }

        let second = run(workload, 3, false);
        assert_eq!(first.fingerprint(), second.fingerprint(), "{workload}");
        assert_ne!(
            first.fingerprint(),
            run(workload, 4, false).fingerprint(),
            "{workload}: the seed changes the inputs"
        );

        let traced = run(workload, 3, true);
        assert_metrics(workload, &traced, &per_layer);
        assert_eq!(first.fingerprint(), traced.fingerprint(), "{workload}");
    }
}
