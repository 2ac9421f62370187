//! `experiments obs` — windowed observability series from one traced
//! world.
//!
//! Runs the same scaled-down RLive world as `experiments trace`, but
//! with the obs layer enabled (`SystemConfig::obs_window_ms`), so the
//! world emits into its own unbounded trace ring and folds the full
//! record stream into per-window metric series as windows seal. Prints
//! the registry summary plus top-k window tables for the series the
//! paper's operations story cares about: recovery failure rate,
//! scheduler candidate yield, and reorder-stall hot spots.
//!
//! Everything printed to **stdout** here is a pure function of
//! `(seed, window, stream)` — the series aggregate over the trace
//! stream, which is itself seed-deterministic for any `--jobs` /
//! `--world-jobs` setting — so the output is pinned by a golden file.
//! Wall-clock stage-profiler output stays on stderr (see
//! `rlive_bench::runner`).

use rlive::report::{format_obs_summary, format_obs_windows};
use rlive_bench::cli::CliArgs;
use rlive_bench::small_world;
use rlive_sim::obs::{MetricRegistry, StageTable, WindowRatio, DEFAULT_WINDOW_MS};
use std::fs::File;
use std::io::Write;

/// Windows shown per top-k table.
const TOP_K: usize = 5;

/// Runs [`small_world`] with the obs layer enabled and prints the
/// windowed series. `--obs-window` overrides the default 1 s tumbling
/// window; `--stream` restricts the candidate-yield table to one stream
/// (one the world does not have is an error); `--obs-export P` writes
/// the raw series to `P.jsonl` and `P.csv` at the end (both files are
/// created before the world runs, so an unwritable path is an error
/// up front, not after the run); `--sched-policy` and
/// `--recovery-policy` override the policies (stdout stays a pure
/// function of the full input tuple — the default-flag output is still
/// pinned by the golden file).
pub fn obs(seed: u64, args: &CliArgs) -> Result<(), String> {
    let (stream, window_ms) = (args.stream, args.obs_window.unwrap_or(DEFAULT_WINDOW_MS));
    let world = small_world(seed, stream, |cfg| {
        cfg.obs_window_ms = window_ms;
        cfg.scheduler.policy = args.sched_policy.unwrap_or(cfg.scheduler.policy);
        cfg.recovery_policy = args.recovery_policy.unwrap_or(cfg.recovery_policy);
    })?;
    let export = args.obs_export.as_deref().map(create_export).transpose()?;
    // This subcommand runs one world inline (no cell runner), so it
    // reports its own wall-clock stage profile — stderr only, like the
    // runner's accounting line.
    let stages_before = StageTable::snapshot();
    let report = world.run();
    let stages = StageTable::snapshot().delta_since(&stages_before);
    if !stages.is_empty() {
        eprint!("{}", stages.render());
    }

    println!(
        "# obs seed={seed} window={window_ms}ms stream={}",
        stream.map_or_else(|| "all".to_string(), |s| s.to_string()),
    );
    print!("{}", format_obs_summary(&report.obs));
    println!();
    print!(
        "{}",
        format_obs_windows(
            "recovery failure rate",
            &report.obs.recovery_failure_rate(),
            TOP_K
        )
    );
    println!();
    let yield_title = match stream {
        Some(s) => format!("candidate yield (stream {s})"),
        None => "candidate yield (all streams)".to_string(),
    };
    print!(
        "{}",
        format_obs_windows(&yield_title, &report.obs.candidate_yield(stream), TOP_K)
    );
    println!();
    print!("{}", format_stall_windows(&report.obs));

    match export {
        Some(files) => export_series(&report.obs, files),
        None => Ok(()),
    }
}

/// Renders the reorder-stall hot-spot table: the windows where head
/// skips released the most held frames.
fn format_stall_windows(reg: &MetricRegistry) -> String {
    let ratios: Vec<WindowRatio> = reg
        .top_windows_where("reorder_stalls", TOP_K, |_| true)
        .into_iter()
        .map(|(w, stalls)| WindowRatio {
            window: w,
            start_ms: reg.window_start_ms(w),
            num: reg.counter_at(
                "reorder_released_after_skip",
                rlive_sim::obs::Labels::NONE,
                w,
            ),
            den: stalls,
        })
        .collect();
    // Rendered as released-per-stall so the table doubles as a severity
    // read: high den with low num means skips that freed little.
    format_obs_windows("reorder stalls (released/stall)", &ratios, TOP_K)
}

/// Creates `<path>.jsonl` and `<path>.csv` for [`export_series`].
fn create_export(path: &str) -> Result<[(String, File); 2], String> {
    let create = |p: String| match File::create(&p) {
        Ok(file) => Ok((p, file)),
        Err(e) => Err(format!("cannot create {p}: {e}")),
    };
    Ok([
        create(format!("{path}.jsonl"))?,
        create(format!("{path}.csv"))?,
    ])
}

/// Writes the JSONL and CSV exports into the files [`create_export`]
/// opened; an I/O failure is an error (the caller asked for files,
/// silently not writing them is worse).
fn export_series(reg: &MetricRegistry, files: [(String, File); 2]) -> Result<(), String> {
    let [(jsonl_path, mut jsonl), (csv_path, mut csv)] = files;
    jsonl
        .write_all(reg.to_jsonl().as_bytes())
        .map_err(|e| format!("cannot write {jsonl_path}: {e}"))?;
    csv.write_all(reg.to_csv().as_bytes())
        .map_err(|e| format!("cannot write {csv_path}: {e}"))?;
    eprintln!("[obs] wrote {jsonl_path} and {csv_path}");
    Ok(())
}
