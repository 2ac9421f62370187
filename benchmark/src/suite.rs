//! The suite: every selected workload `repeats` times untraced and once
//! traced, each run in a fresh child process so that `peak_heap_mb`
//! belongs to that run alone, summarised into `out/results.json`.

use crate::results::{self, parse_run_output, summary_json, RunResult};
use crate::stats::summarize;
use crate::workloads::{self, Workload};
use crate::Args;
use rlive_bench::perf::Json;
use std::process::{Command, Stdio};

/// Runs this executable once in single-run mode and parses its output.
fn child(args: &Args, w: &Workload, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // A child that found failed checks exits non-zero but still prints
    // its result; those failures are carried into `ops_failed`.
    parse_run_output(w.name, &stdout).map_err(|e| {
        format!(
            "{} (trace {}): {e}; exit {}",
            w.name, trace as u8, out.status
        )
    })
}

/// One workload's block of `results.json`, printing each metric as
/// `workload metric value unit` on the way.
fn workload_block(args: &Args, w: &Workload) -> Result<(Json, u64), String> {
    let mut runs = Vec::with_capacity(args.repeats);
    for _ in 0..args.repeats {
        runs.push(child(args, w, false)?);
    }
    let traced = child(args, w, true)?;

    let mut ops = traced.ops.attempted;
    let mut failed = traced.ops.failed;
    for r in &runs {
        ops += r.ops.attempted;
        failed += r.ops.failed;
    }
    // One more operation: every process simulated the same thing — the
    // whole panel in the untraced runs, world 0 in all of them.
    ops += 1;
    let digest = runs[0]
        .panel_digest
        .ok_or("an untraced run printed no sim_digest")?;
    if runs.iter().any(|r| r.panel_digest != Some(digest))
        || runs.iter().any(|r| r.world0_digest != traced.world0_digest)
    {
        failed += 1;
        eprintln!(
            "benchmark: CHECK FAILED: {}: sim_digest differs between processes",
            w.name
        );
    }

    let mut e2e = Vec::new();
    for (name, unit, _, _) in results::END_TO_END {
        let samples: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.iter().find(|m| m.name == name))
            .map(|m| m.value)
            .collect();
        if samples.len() != runs.len() {
            return Err(format!("{}: an untraced run did not report {name}", w.name));
        }
        let s = summarize(&samples).ok_or_else(|| format!("{}: {name} is not finite", w.name))?;
        println!(
            "{} {name} {} {unit} (n {} min {} q1 {} q3 {} max {} iqr/median {:.4})",
            w.name,
            s.median,
            s.n,
            s.min,
            s.q1,
            s.q3,
            s.max,
            s.iqr_share()
        );
        e2e.push((name.to_string(), summary_json(&s, unit)));
    }
    for m in &traced.metrics {
        println!("{} {} {} {}", w.name, m.name, m.value, m.unit);
    }
    let layers = traced.metrics.iter().map(|m| m.to_member()).collect();
    println!("{} ops {ops} count", w.name);
    println!("{} ops_failed {failed} count", w.name);
    println!("{} sim_digest {digest:016x} fnv1a", w.name);

    let block = Json::Obj(vec![
        ("name".into(), Json::Str(w.name.into())),
        ("why".into(), Json::Str(w.why.into())),
        ("nodes".into(), Json::Num(w.nodes as f64)),
        ("viewers".into(), Json::Num(w.viewers as f64)),
        ("streams".into(), Json::Num(w.streams as f64)),
        ("sim_secs".into(), Json::Num(w.sim_secs as f64)),
        ("ops".into(), Json::Num(ops as f64)),
        ("ops_failed".into(), Json::Num(failed as f64)),
        ("sim_digest".into(), Json::Str(format!("{digest:016x}"))),
        ("end_to_end".into(), Json::Obj(e2e)),
        ("per_layer".into(), Json::Obj(layers)),
    ]);
    Ok((block, failed))
}

/// Runs the suite, writes `out/results.json`, and fails if any
/// operation failed.
pub fn run(args: &Args) -> Result<(), String> {
    let selected: Vec<Workload> = workloads::WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .map(|w| if args.smoke { w.smoke() } else { *w })
        .collect();
    let mut blocks = Vec::new();
    let mut failed = 0;
    for w in &selected {
        let (block, f) = workload_block(args, w)?;
        blocks.push(block);
        failed += f;
    }
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(results::SCHEMA.into())),
        // The change that defines the benchmark claims no gain.
        ("claim".into(), Json::Null),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("repeats".into(), Json::Num(args.repeats as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("workloads".into(), Json::Arr(blocks)),
    ]);
    results::check(&doc)?;
    let text = doc.render()?;
    let path = args.out.join("results.json");
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("benchmark: wrote {}", path.display());
    if failed > 0 {
        return Err(format!("{failed} operations failed"));
    }
    Ok(())
}
