//! Smoke tests: every workload at tiny size prints every metric that
//! `BENCHMARK.json` names, with its unit, and passes its output checks;
//! `BENCHMARK.json` itself stays within the benchmark contract.

use chopper_benchmark::suite::{Kind, Size};
use chopper_benchmark::{repo_root, run, Config};
use serde::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn manifest() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(j: &'a Json, name: &str) -> &'a Json {
    j.get_field(name)
        .unwrap_or_else(|| panic!("missing field `{name}`"))
}

fn str_of(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn num_of(j: &Json) -> f64 {
    match j {
        Json::Int(i) => *i as f64,
        Json::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn arr_of(j: &Json) -> &[Json] {
    match j {
        Json::Arr(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn keys_of(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// `name → unit` of one metric list of the manifest.
fn metric_units(list: &str) -> BTreeMap<String, String> {
    arr_of(field(&manifest(), list))
        .iter()
        .map(|m| {
            (
                str_of(field(m, "name")).to_string(),
                str_of(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Parses a result line and checks its shape, returning `name → unit`.
fn result_units(line: &str) -> BTreeMap<String, String> {
    let json = Json::parse(line).expect("the result line is JSON");
    assert_eq!(
        keys_of(&json),
        ["correct", "attempted", "failed", "metrics"]
    );
    assert_eq!(field(&json, "correct"), &Json::Bool(true), "{line}");
    assert!(num_of(field(&json, "attempted")) >= 1.0);
    assert_eq!(num_of(field(&json, "failed")), 0.0);
    match field(&json, "metrics") {
        Json::Obj(metrics) => metrics
            .iter()
            .map(|(name, m)| {
                assert_eq!(keys_of(m), ["value", "unit"]);
                assert!(num_of(field(m, "value")).is_finite());
                (name.clone(), str_of(field(m, "unit")).to_string())
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn smoke(kind: Kind, trace: bool) {
    let cfg = Config {
        kind,
        seed: 1,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    };
    let report = run(&cfg, None);
    assert!(report.correct, "{kind:?}: {:?}", report.notes);
    let printed = report.render();
    for m in &report.metrics {
        assert!(printed.contains(&m.name), "{} not printed", m.name);
    }
    for key in [
        "host_cores",
        "workers",
        "grid_parallelism",
        "seed",
        "git_commit",
    ] {
        assert!(
            printed.contains(&format!("\"{key}\"")),
            "metadata lacks {key}"
        );
    }
    let expected = metric_units(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(result_units(&report.json_line()), expected, "{kind:?}");
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    for kind in Kind::ALL {
        smoke(kind, false);
    }
}

#[test]
fn every_workload_reports_the_per_layer_metrics() {
    for kind in Kind::ALL {
        smoke(kind, true);
    }
}

#[test]
fn listed_workloads_exist() {
    for w in arr_of(field(&manifest(), "workloads")) {
        let name = str_of(field(w, "name"));
        assert!(Kind::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn manifest_meets_the_contract() {
    let m = manifest();
    assert_eq!(
        keys_of(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let secs = num_of(field(&m, "run_seconds"));
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    let valid_name = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names = std::collections::BTreeSet::new();
    let workloads = arr_of(field(&m, "workloads"));
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys_of(w), ["name", "why"]);
        let why = str_of(field(w, "why"));
        assert!(why.len() <= 200 && !why.contains('\n'));
        assert!(valid_name(str_of(field(w, "name"))));
    }
    let e2e = arr_of(field(&m, "end_to_end"));
    let mut setup_bound = 0.0;
    let mut max_bound: f64 = 0.0;
    for e in e2e {
        assert_eq!(keys_of(e), ["name", "unit", "better", "bound"]);
        let bound = num_of(field(e, "bound"));
        assert!(bound > 0.0 && bound <= 0.25);
        max_bound = max_bound.max(bound);
        if str_of(field(e, "name")) == "setup_s" {
            assert_eq!(str_of(field(e, "unit")), "s");
            assert_eq!(str_of(field(e, "better")), "lower");
            setup_bound = bound;
        }
    }
    assert!(
        setup_bound > 0.0 && setup_bound == max_bound,
        "setup_s has the largest bound"
    );
    for e in arr_of(field(&m, "per_layer")) {
        assert_eq!(keys_of(e), ["name", "unit", "better"]);
    }
    for e in e2e.iter().chain(arr_of(field(&m, "per_layer"))) {
        let name = str_of(field(e, "name"));
        assert!(valid_name(name), "{name}");
        assert!(names.insert(name.to_string()), "{name} listed twice");
        let unit = str_of(field(e, "unit"));
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
        assert!(["lower", "higher"].contains(&str_of(field(e, "better"))));
    }
}

#[test]
fn the_binary_prints_the_result_line_last() {
    let out = Command::new(env!("CARGO_BIN_EXE_chopper-benchmark"))
        .args(["--workload", "skewed", "--seed", "3", "--seconds", "0"])
        .args(["--trace", "0", "--size", "tiny"])
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    assert_eq!(result_units(last), metric_units("end_to_end"));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_chopper-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
