//! End-to-end tests driving the compiled `chopper-cli` binary through the
//! full tune → inspect → plan → run pipeline.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chopper-cli"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chopper-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn help_prints_usage() {
    let out = run_ok(bin().arg("help"));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chopper-cli"));
    assert!(text.contains("compare"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn missing_required_flag_fails_cleanly() {
    let out = bin().args(["run"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload"));
}

#[test]
fn retired_and_misspelled_flags_fail_naming_the_flag() {
    for (args, flag) in [
        (
            &["run", "--workload", "sql", "--batch", "off"][..],
            "--batch",
        ),
        (
            &["run", "--workload", "sql", "--pipeline", "off"],
            "--pipeline",
        ),
        (
            &["run", "--workload", "sql", "--partitons", "8"],
            "--partitons",
        ),
    ] {
        let out = bin().args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn run_prints_stage_table() {
    let out = run_ok(bin().args([
        "run",
        "--workload",
        "sql",
        "--scale",
        "0.05",
        "--cluster",
        "uniform:2,4,2.0",
        "--partitions",
        "16",
    ]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("join-revenue"),
        "stage table expected:\n{text}"
    );
    assert!(text.contains("total:"));
}

#[test]
fn tune_plan_run_round_trip() {
    let dir = tmpdir("roundtrip");
    let db = dir.join("db.json");
    let conf = dir.join("conf.txt");

    // Tune on a tiny grid.
    run_ok(bin().args([
        "tune",
        "--workload",
        "sql",
        "--db",
        db.to_str().unwrap(),
        "--cluster",
        "uniform:2,4,2.0",
        "--partitions",
        "64",
        "--scales",
        "0.02,0.05",
        "--test-partitions",
        "8,24,64",
    ]));
    assert!(db.exists(), "database persisted");

    // Inspect it.
    let out = run_ok(bin().args(["inspect", "--db", db.to_str().unwrap()]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("workload 'sql'"));
    assert!(text.contains("join"));

    // Plan from it, writing the Fig. 6 config file.
    let out = run_ok(bin().args([
        "plan",
        "--workload",
        "sql",
        "--db",
        db.to_str().unwrap(),
        "--cluster",
        "uniform:2,4,2.0",
        "--partitions",
        "64",
        "--out-conf",
        conf.to_str().unwrap(),
    ]));
    assert!(String::from_utf8_lossy(&out.stdout).contains("retune"));
    assert!(conf.exists());

    // Validate the config file.
    let out = run_ok(bin().args(["conf", "--file", conf.to_str().unwrap()]));
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid"));

    // Run under the tuned configuration.
    run_ok(bin().args([
        "run",
        "--workload",
        "sql",
        "--scale",
        "0.05",
        "--cluster",
        "uniform:2,4,2.0",
        "--partitions",
        "64",
        "--copartition",
        "--conf",
        conf.to_str().unwrap(),
    ]));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conf_rejects_garbage() {
    let dir = tmpdir("badconf");
    let path = dir.join("bad.txt");
    std::fs::write(&path, "stage zz hash ten\n").unwrap();
    let out = bin()
        .args(["conf", "--file", path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_accepts_a_trace_longer_than_its_queue() {
    let dir = tmpdir("shortqueue");
    let trace = dir.join("jobs.trace");
    run_ok(bin().args([
        "loadgen",
        "--out",
        trace.to_str().unwrap(),
        "--tenants",
        "4",
        "--jobs",
        "56",
        "--seed",
        "11",
    ]));
    // 56 jobs through a 2-deep queue: overflow is rejected at admission
    // and never executes, so the run completes and reports the rejects.
    let out = run_ok(bin().args([
        "serve",
        "--trace",
        trace.to_str().unwrap(),
        "--queue-cap",
        "2",
        "--slots",
        "1",
        "--workers",
        "2",
        "--partitions",
        "8",
        "--cluster",
        "uniform:4,4,2.0",
    ]));
    let text = String::from_utf8_lossy(&out.stdout);
    let rejected: usize = text
        .split_whitespace()
        .find_map(|w| w.strip_prefix("rejected="))
        .expect("summary line reports rejected=N")
        .parse()
        .unwrap();
    assert!(rejected > 0, "a 2-deep queue should reject:\n{text}");
    assert!(text.contains("rejected (queue full)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
