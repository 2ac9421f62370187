//! The repo benchmark. See `benchmark/README.md`.
//!
//! Two ways in, told apart by `--trace`:
//!
//! - `--workload W --seed N --seconds S --trace 0|1` is **one run** in
//!   this process: untraced (`0`) it reports the end-to-end metrics,
//!   traced (`1`) the per-layer metrics. The last line of stdout is one
//!   JSON object `{correct, attempted, failed, metrics}`.
//! - without `--trace` it is the **suite**: every workload `--repeats`
//!   times untraced plus once traced, each run a fresh child process,
//!   summarised into `out/results.json`.

mod drivers;
mod heap;
mod results;
mod spans;
mod stats;
mod suite;
mod workloads;
mod worldrun;

use results::{Metric, RunResult};
use rlive_bench::perf::peak_rss_bytes;
use rlive_media::hash::fnv1a;
use rlive_sim::obs::{profiler_enable, Stage, StageTable};
use spans::SpanLog;
use std::path::PathBuf;
use std::time::Instant;
use workloads::Workload;
use worldrun::{check_report, Ops, RunSample};

#[global_allocator]
static ALLOC: heap::PeakAlloc = heap::PeakAlloc;

/// Timed builds of world 0 a run starts with: at least
/// `SETUP_BUILDS_MIN`, and up to `SETUP_BUILDS_MAX` while they fit in
/// `SETUP_SECONDS`, so that a 0.1 ms build gets hundreds of samples.
/// Every job's own build adds one more sample to `setup_s`.
const SETUP_BUILDS_MIN: usize = 7;
const SETUP_BUILDS_MAX: usize = 300;
const SETUP_SECONDS: f64 = 0.1;

/// Allocation counts repeat to within this share between runs of one
/// world. They are not bit-exact: `std`'s hash maps seed their hasher
/// per instance, which decides whether a table with tombstones rehashes
/// in place or reallocates, so a run may differ by a call or two in
/// millions, and by one table's worth of bytes.
const ALLOC_REPEAT_TOLERANCE: f64 = 1e-3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// `Some` selects single-run mode.
    pub trace: Option<bool>,
    pub repeats: usize,
    pub smoke: bool,
    pub out: PathBuf,
    pub check: Option<String>,
}

const USAGE: &str = "usage:
  rlive-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
      one run in this process; the last stdout line is the result JSON
  rlive-benchmark [--seed 101] [--repeats 3] [--workload W] [--seconds 25] [--smoke] [--out DIR]
      the suite: fresh child process per run, writes DIR/results.json
  rlive-benchmark --check FILE
      validate a results.json
workloads: sched_10k sched_30k dataplane storm";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 101,
        seconds: 25.0,
        trace: None,
        repeats: 3,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        check: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if workloads::by_name(&name).is_none() {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                })
            }
            "--repeats" => {
                let n: usize = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if !(1..=50).contains(&n) {
                    return Err(format!("--repeats must be in 1..=50, got {n}"));
                }
                args.repeats = n;
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--check" => args.check = Some(value("a file")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

/// The workload at the size this invocation asked for.
fn sized(name: &str, smoke: bool) -> Workload {
    let w = *workloads::by_name(name).expect("workload name checked at parse time");
    if smoke {
        w.smoke()
    } else {
        w
    }
}

/// One untraced run: the workload's panel of worlds, over and over
/// until `seconds` are used up — at least once through, plus one repeat.
///
/// Counts come from the first pass and are sums over the panel. Times
/// are the *best* sample, not the median: noise on a shared host only
/// ever slows a job down, and on the box this was written on it comes
/// in phases of several seconds at 1.5x, so a median flips between two
/// modes while the fastest of a few dozen short jobs stays put (see the
/// README's noise study). The median and quartiles go to stderr.
fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let mut ops = Ops::default();
    let mut first: Vec<RunSample> = Vec::with_capacity(w.panel);
    let mut setup = Vec::new();
    let mut timed_build = |k: usize| {
        let t0 = Instant::now();
        let world = w.spec(seed, k).build();
        setup.push(t0.elapsed().as_secs_f64());
        world
    };
    let setup_started = Instant::now();
    for built in 0..SETUP_BUILDS_MAX {
        if built >= SETUP_BUILDS_MIN && setup_started.elapsed().as_secs_f64() > SETUP_SECONDS {
            break;
        }
        drop(timed_build(0));
    }
    let mut rates = Vec::new();
    let mut peak_heap = 0;
    let started = Instant::now();
    loop {
        let k = rates.len() % w.panel;
        let world = timed_build(k);
        let (sample, report) = worldrun::run(world);
        check_report(&mut ops, w.name, &report);
        rates.push(sample.events as f64 / sample.run_s);
        if let Some(f) = first.get(k) {
            let close = |a: u64, b: u64| a.abs_diff(b) as f64 <= ALLOC_REPEAT_TOLERANCE * b as f64;
            ops.check(
                sample.digest == f.digest
                    && close(sample.allocs, f.allocs)
                    && close(sample.alloc_bytes, f.alloc_bytes),
                &format!(
                    "{}: world {k} did not repeat: digest {:016x} vs {:016x}, \
                     allocs {} vs {}, bytes {} vs {}",
                    w.name,
                    sample.digest,
                    f.digest,
                    sample.allocs,
                    f.allocs,
                    sample.alloc_bytes,
                    f.alloc_bytes
                ),
            );
        } else {
            first.push(sample);
            if first.len() == w.panel {
                // Read at the end of the first pass, a fixed amount of
                // work: how many repeats follow depends on the host.
                peak_heap = heap::peak_live_bytes();
            }
        }
        // Start another job only while at least half of it fits.
        let elapsed = started.elapsed().as_secs_f64();
        let per_job = elapsed / rates.len() as f64;
        if rates.len() > w.panel && elapsed + 0.5 * per_job > seconds {
            break;
        }
    }

    let total = |f: fn(&RunSample) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let events = total(|s| s.events);
    let rate = stats::summarize(&rates).expect("rates are finite");
    eprintln!(
        "benchmark: {} seed {seed}: {} jobs over a panel of {}, events/s min {:.0} q1 {:.0} \
         median {:.0} q3 {:.0} max {:.0}",
        w.name, rate.n, w.panel, rate.min, rate.q1, rate.median, rate.q3, rate.max
    );
    let setup = stats::summarize(&setup).expect("timings are finite");
    let digests: Vec<u8> = first.iter().flat_map(|s| s.digest.to_le_bytes()).collect();
    RunResult {
        workload: w.name.to_string(),
        metrics: vec![
            Metric::new("events_per_sec", rate.max, "1/s"),
            Metric::new("setup_s", setup.min, "s"),
            Metric::new("allocs_per_event", total(|s| s.allocs) / events, "count"),
            Metric::new(
                "alloc_bytes_per_event",
                total(|s| s.alloc_bytes) / events,
                "B",
            ),
            Metric::new("peak_heap_mb", peak_heap as f64 / 1e6, "MB"),
        ],
        ops,
        panel_digest: Some(fnv1a(&digests)),
        world0_digest: first[0].digest,
    }
}

/// Adds the stage-profiler rows of one run to `metrics` and to the span
/// log, under the span `run_span`.
fn stage_metrics(
    metrics: &mut Vec<Metric>,
    log: &mut SpanLog,
    run_span: usize,
    table: &StageTable,
    wanted: &[(Stage, Option<&str>, &str)],
) {
    for &(stage, calls_name, self_name) in wanted {
        let row = table.row(stage);
        if let Some(name) = calls_name {
            metrics.push(Metric::new(name, row.calls as f64, "count"));
        }
        metrics.push(Metric::new(self_name, row.self_nanos as f64 / 1e9, "s"));
        if row.calls > 0 {
            log.attach_stage(run_span, stage.label(), row.calls, row.self_nanos);
        }
    }
}

/// One traced run, on world 0 of the panel: the same job untraced then
/// with the stage profiler on (their ratio is the tracing overhead),
/// once more on two shard workers, then every layer driver. Spans wrap
/// each step.
fn run_traced(w: &Workload, seed: u64, seconds: f64, out_dir: &std::path::Path) -> RunResult {
    let mut ops = Ops::default();
    let mut log = SpanLog::new(w.name);
    let mut metrics: Vec<Metric> = Vec::new();

    let spec = log.scope("scenario_build", || w.spec(seed, 0));
    let world = log.scope("world_build", || spec.build());

    profiler_enable(false);
    let (base, base_report) = log.scope("world_run_untraced", || worldrun::run(world));
    check_report(&mut ops, w.name, &base_report);
    drop(base_report);
    // Trend only: see `heap` for why `VmHWM` gates nothing.
    metrics.push(Metric::new(
        "core.world.peak_rss_mb",
        peak_rss_bytes() as f64 / 1e6,
        "MB",
    ));

    let world = spec.build();
    profiler_enable(true);
    let before = StageTable::snapshot();
    let run_span = log.enter("world_run");
    let (traced, report) = worldrun::run(world);
    log.exit(run_span);
    let table = StageTable::snapshot().delta_since(&before);
    check_report(&mut ops, w.name, &report);
    ops.check(
        traced.digest == base.digest,
        &format!(
            "{}: the stage profiler changed the simulation digest",
            w.name
        ),
    );

    // The totals of one fixed scenario: what the end-to-end per-event
    // metrics are ratios of, for world 0 alone. `run_s` is the traced
    // run's, so that every stage's self time is a share of it.
    let events = traced.events;
    metrics.push(Metric::new("core.world.events", events as f64, "count"));
    metrics.push(Metric::new("core.world.run_s", traced.run_s, "s"));
    metrics.push(Metric::new(
        "core.world.alloc_count_m",
        base.allocs as f64 / 1e6,
        "M",
    ));
    metrics.push(Metric::new(
        "core.world.alloc_gb",
        base.alloc_bytes as f64 / 1e9,
        "GB",
    ));
    for kind in results::EVENT_KINDS {
        metrics.push(Metric::new(
            &format!("core.world.ev.{kind}"),
            report.event_counts.get(kind) as f64,
            "count",
        ));
    }
    metrics.push(Metric::new(
        "core.world.unattributed_share",
        1.0 - table.total_self_nanos() as f64 / 1e9 / traced.run_s,
        "ratio",
    ));
    metrics.push(Metric::new(
        "core.world.trace_overhead_frac",
        traced.run_s / base.run_s - 1.0,
        "ratio",
    ));
    metrics.push(Metric::new(
        "core.shard.shardable_event_share",
        report.shardable_events as f64 / events.max(1) as f64,
        "ratio",
    ));
    stage_metrics(
        &mut metrics,
        &mut log,
        run_span,
        &table,
        &[
            (
                Stage::SchedulerCall,
                Some("control.scheduler.recommend_calls"),
                "control.scheduler.recommend_self_s",
            ),
            (
                Stage::ReorderDrain,
                Some("data.reorder.drain_calls"),
                "data.reorder.drain_self_s",
            ),
            (
                Stage::RecoveryDecision,
                Some("data.recovery.decide_calls"),
                "data.recovery.decide_self_s",
            ),
            (
                Stage::WindowSeal,
                Some("sim.obs.window_seal_calls"),
                "sim.obs.window_seal_self_s",
            ),
            (Stage::AlertEval, None, "sim.slo.alert_eval_self_s"),
            (
                Stage::HedgeResolve,
                Some("core.session.hedge_resolve_calls"),
                "core.session.hedge_resolve_self_s",
            ),
        ],
    );

    // Two shard workers: trend only, and the one place the shard stages
    // record anything (the inline path at one worker opens no spans).
    let mut spec_wj2 = spec.clone();
    spec_wj2.config.world_jobs = 2;
    let before = StageTable::snapshot();
    let world = spec_wj2.build();
    let wj2_span = log.enter("world_run_wj2");
    let (wj2, _) = worldrun::run(world);
    log.exit(wj2_span);
    let table_wj2 = StageTable::snapshot().delta_since(&before);
    profiler_enable(false);
    ops.check(
        wj2.digest == base.digest,
        &format!("{}: world_jobs=2 changed the simulation digest", w.name),
    );
    stage_metrics(
        &mut metrics,
        &mut log,
        wj2_span,
        &table_wj2,
        &[
            (Stage::ShardExecute, None, "core.shard.execute_self_s"),
            (Stage::ShardMerge, None, "core.shard.merge_self_s"),
        ],
    );
    metrics.push(Metric::new(
        "core.shard.speedup_wj2",
        traced.run_s / wj2.run_s,
        "ratio",
    ));

    drivers::run_all(
        &drivers::Inputs::new(w, &spec, seconds),
        &mut log,
        &mut ops,
        &mut metrics,
    );

    let trace_path = out_dir.join(format!("trace.{}.json", w.name));
    let written = std::fs::create_dir_all(out_dir)
        .map_err(|e| e.to_string())
        .and_then(|()| log.to_json().render())
        .and_then(|text| std::fs::write(&trace_path, text).map_err(|e| e.to_string()));
    ops.check(
        written.is_ok(),
        &format!("writing {}: {written:?}", trace_path.display()),
    );

    RunResult {
        workload: w.name.to_string(),
        metrics,
        ops,
        panel_digest: None,
        world0_digest: base.digest,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if let Some(path) = &args.check {
        results::check_file(path).map(|()| eprintln!("benchmark: '{path}' validates"))
    } else if let Some(trace) = args.trace {
        let name = args.workload.as_deref().expect("checked at parse time");
        let w = sized(name, args.smoke);
        let result = if trace {
            run_traced(&w, args.seed, args.seconds, &args.out)
        } else {
            run_untraced(&w, args.seed, args.seconds)
        };
        result.print().and_then(|()| {
            if result.ops.failed == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{} of {} operations failed",
                    result.ops.failed, result.ops.attempted
                ))
            }
        })
    } else {
        suite::run(&args)
    };
    if let Err(e) = outcome {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn single_run_and_suite_are_told_apart_by_trace() {
        let a = parse("--workload storm --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.trace, Some(true));
        assert_eq!((a.seed, a.seconds), (7, 3.0));
        let a = parse("--seed 202 --repeats 5").unwrap();
        assert_eq!((a.trace, a.repeats, a.seed), (None, 5, 202));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope --trace 0").is_err());
        assert!(parse("--trace 0").is_err());
        assert!(parse("--trace 2 --workload storm").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds nan").is_err());
        assert!(parse("--repeats 0").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("--seed").is_err());
    }
}
