//! The harness end to end, through the built executable, at `--smoke`
//! size: every run is a real child process, so allocation counts and
//! peak RSS are as undisturbed as in a real run.

use std::path::PathBuf;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_rlive-benchmark");

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("spawn benchmark")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default()
        .to_string()
}

#[test]
fn smoke_suite_runs_all_four_workloads_and_validates() {
    let dir = out_dir("suite");
    let dir_s = dir.to_str().unwrap();
    let started = std::time::Instant::now();
    let out = run(&[
        "--smoke",
        "--repeats",
        "2",
        "--seconds",
        "0.4",
        "--seed",
        "7",
        "--out",
        dir_s,
    ]);
    let took = started.elapsed();
    assert!(
        out.status.success(),
        "suite failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took.as_secs_f64() < 10.0, "smoke suite took {took:?}");
    let results = dir.join("results.json");
    let check = run(&["--check", results.to_str().unwrap()]);
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for w in ["sched_10k", "sched_30k", "dataplane", "storm"] {
        assert!(
            dir.join(format!("trace.{w}.json")).is_file(),
            "{w}: no trace file"
        );
        assert!(stdout.contains(&format!("{w} ops_failed 0 count")), "{w}");
        assert!(stdout.contains(&format!("{w} events_per_sec ")), "{w}");
        assert!(
            stdout.contains(&format!("{w} sim.event.push_pop_ns ")),
            "{w}"
        );
    }
    // Only the storm shape seals windows and resolves hedges.
    let positive = |w: &str, metric: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{w} {metric} ")))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .map(|v| v > 0.0)
    };
    assert_eq!(positive("storm", "sim.obs.window_seal_calls"), Some(true));
    assert_eq!(
        positive("dataplane", "sim.obs.window_seal_calls"),
        Some(false)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_single_run_ends_with_exactly_the_result_object() {
    let dir = out_dir("single");
    let dir_s = dir.to_str().unwrap();
    for (trace, first_metric) in [("0", "events_per_sec"), ("1", "core.world.peak_rss_mb")] {
        let out = run(&[
            "--workload",
            "storm",
            "--seed",
            "3",
            "--seconds",
            "0.4",
            "--trace",
            trace,
            "--smoke",
            "--out",
            dir_s,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = last_line(&out);
        assert!(
            line.starts_with("{\"correct\": true,\"attempted\": ") && line.ends_with("}}}"),
            "{line}"
        );
        assert!(line.contains(&format!("\"metrics\": {{\"{first_metric}\": {{\"value\": ")));
        assert!(line.contains("\"failed\": 0,"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--check", "/nonexistent/results.json"][..],
        &["--bogus"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
