//! Golden-output regression harness for the `experiments` binary.
//!
//! `tests/golden/<name>.seed7.txt` holds the stdout of one `experiments`
//! command line at seed 7. Each tier lists its command lines in one
//! table. A test runs all of its command lines before it fails; the
//! failure names each one whose stdout drifted — RNG draw order, event
//! ordering, float arithmetic — with its first differing line and two
//! lines of context.
//!
//! No switch re-pins a golden. After an intended output change, write
//! the row's stdout over its file and note the one cause in CHANGES.md:
//!
//! ```sh
//! cargo run --release -p rlive-bench --bin experiments -- <row args> \
//!   > tests/golden/<name>.seed7.txt
//! ```
//!
//! The tier-1 table runs in the default test pass. The full sweep runs
//! every paper world for minutes; it is `#[ignore]`d and run explicitly:
//!
//! ```sh
//! cargo test --release --test golden_experiments -- --ignored
//! ```

use std::path::Path;
use std::process::{Command, Output};

/// Worker settings appended to the world rows: stdout is byte-identical
/// for any cell-pool size and any number of shards inside each world.
const GRID: [&str; 3] = ["", "--jobs 4", "--jobs 2 --world-jobs 2"];

/// The 13 world-running paper subcommands, at seed 7.
const SWEEP: [&str; 13] = [
    "fig2a", "fig2b", "fig8", "fig9", "table2", "fig10", "fig11", "fig12", "table3", "fig13",
    "table4", "fallback", "ablation",
];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments binary")
}

/// Where `got` first departs from `want`: the line number, the two
/// lines before it, then from that line on up to three lines of each
/// side (`-` wanted, `+` actual). `None` when the texts are equal.
fn first_diff(want: &str, got: &str) -> Option<String> {
    let want: Vec<&str> = want.split_inclusive('\n').collect();
    let got: Vec<&str> = got.split_inclusive('\n').collect();
    let at = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i))?;
    let line = |mark: char, lines: &[&str], i: usize| {
        let text = match lines.get(i) {
            Some(l) if l.ends_with('\n') => l.to_string(),
            Some(l) => format!("{l} (no newline at end)\n"),
            None => "<end of output>\n".to_string(),
        };
        format!("{mark} {:>5} | {text}", i + 1)
    };
    let mut out = format!("first difference at line {}:\n", at + 1);
    for i in at.saturating_sub(2)..at {
        out += &line(' ', &want, i);
    }
    for (mark, side) in [('-', &want), ('+', &got)] {
        out += &line(mark, side, at);
        for i in (at + 1..at + 3).filter(|&i| i < side.len()) {
            out += &line(mark, side, i);
        }
    }
    Some(out)
}

/// Runs every row with each of `extras` appended, compares its stdout
/// with the row's golden file, and only then fails, naming every
/// command line that drifted.
fn assert_tier<'a>(rows: impl IntoIterator<Item = (&'a str, String)>, extras: &[&str]) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut runs = 0;
    let mut failures = Vec::new();
    for (name, args) in rows {
        let path = dir.join(format!("{name}.seed7.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        for extra in extras {
            let line = format!("{args} {extra}");
            let line = line.trim_end();
            let out = run(&line.split(' ').collect::<Vec<_>>());
            runs += 1;
            let drift = if out.status.success() {
                first_diff(&want, &String::from_utf8_lossy(&out.stdout))
            } else {
                Some(String::from_utf8_lossy(&out.stderr).into_owned())
            };
            if let Some(drift) = drift {
                failures.push(format!("`experiments {line}` ({name}): {drift}"));
            }
            eprintln!("golden ran: experiments {line}");
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {runs} command lines drifted from their golden stdout:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

fn sweep() -> impl Iterator<Item = (&'static str, String)> {
    SWEEP.iter().map(|&name| (name, format!("{name} 7")))
}

/// Requires `experiments <args>` to exit 2 with nothing on stdout;
/// returns its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "experiments {args:?}");
    assert!(
        out.stdout.is_empty(),
        "experiments {args:?} wrote to stdout"
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn diff_names_the_first_drifted_line_with_context() {
    let want = "a\nb\nc\nd\ne\nf\n";
    assert_eq!(first_diff(want, want), None);
    let changed = first_diff(want, "a\nb\nc\nX\ne\nf\n").unwrap();
    assert_eq!(
        changed,
        "first difference at line 4:\n      2 | b\n      3 | c\n\
         -     4 | d\n-     5 | e\n-     6 | f\n+     4 | X\n+     5 | e\n+     6 | f\n"
    );
    let missing = first_diff("a\nb\n", "a\n").unwrap();
    assert_eq!(
        missing,
        "first difference at line 2:\n      1 | a\n-     2 | b\n+     2 | <end of output>\n"
    );
    let extra = first_diff("a\n", "a\nb\n").unwrap();
    assert_eq!(
        extra,
        "first difference at line 2:\n      1 | a\n-     2 | <end of output>\n+     2 | b\n"
    );
    let unterminated = first_diff("a\n", "a").unwrap();
    assert_eq!(
        unterminated,
        "first difference at line 1:\n-     1 | a\n+     1 | a (no newline at end)\n"
    );
}

// ----- tier-1 ----------------------------------------------------------

/// The tier-1 table: one test per row, named `test`, running
/// `experiments <args>` with each worker setting in `extras` appended
/// and checking stdout against `tests/golden/<name>.seed7.txt`.
macro_rules! golden_table {
    ($($test:ident: $name:literal, $args:literal, $extras:expr;)*) => {$(
        #[test]
        fn $test() {
            assert_tier([($name, $args.to_string())], $extras);
        }
    )*};
}

// The subcommands that simulate no world (pure trace and CDF
// computations), each well under a second, and again with the event
// loop sharded across two workers: these pin flag parsing and the
// formation path; `golden_sharded_sweep` pins the expensive half.
//
// Then the world-running subcommands cheap enough for tier-1, each on
// every worker setting of GRID: the fleet preset's deliberately tiny
// worlds; the fleet flag paths (obs roll-up, merged alert log, both
// policy overrides) in one command; the scheduler and recovery policy
// A/Bs, whose feedback loops and hedge races are the most
// order-sensitive paths; one obs world; the scripted-storm SLO fleet;
// and a small fuzz campaign. Each is the end-to-end form of a case in
// `crates/core/tests/invariance.rs`.
golden_table! {
    golden_fig1b: "fig1b", "fig1b 7", &[""];
    golden_fig2c: "fig2c", "fig2c 7", &[""];
    golden_fig2d: "fig2d", "fig2d 7", &[""];
    golden_fig3: "fig3", "fig3 7", &[""];
    golden_table1: "table1", "table1 7", &[""];
    golden_fig1b_sharded: "fig1b", "fig1b 7", &["--world-jobs 2"];
    golden_fig2c_sharded: "fig2c", "fig2c 7", &["--world-jobs 2"];
    golden_fig2d_sharded: "fig2d", "fig2d 7", &["--world-jobs 2"];
    golden_fig3_sharded: "fig3", "fig3 7", &["--world-jobs 2"];
    golden_table1_sharded: "table1", "table1 7", &["--world-jobs 2"];
    golden_fleet: "fleet", "fleet 5 7", &GRID;
    golden_fleet_flags: "fleet_flags",
        "fleet 2 7 --obs-window 500 --slo --sched-policy adaptive --recovery-policy racing", &GRID;
    golden_adaptive: "adaptive", "adaptive 3 7", &GRID;
    golden_recover: "recover", "recover 3 7", &GRID;
    golden_obs: "obs", "obs 7", &GRID;
    golden_slo: "slo", "slo 7", &GRID;
    golden_fuzz: "fuzz", "fuzz 3 7", &GRID;
}

/// A flag the subcommand does not read, and a stream past the world's
/// last, are usage errors rather than the unflagged output.
#[test]
fn flag_the_subcommand_does_not_read_is_a_usage_error() {
    for (line, error) in [
        (
            "fig8 7 --obs-window 300",
            "'--obs-window' does not apply to 'fig8'",
        ),
        ("table1 7 --slo", "'--slo' does not apply to 'table1'"),
        ("trace 7 --stream 4", "'--stream 4' is out of range"),
        ("obs 7 --stream 4", "'--stream 4' is out of range"),
    ] {
        let stderr = usage_error(&line.split(' ').collect::<Vec<_>>());
        assert!(
            stderr.starts_with(&format!("error: {error}")),
            "experiments {line}: {stderr}"
        );
    }
}

// A name that is not a subcommand — `bench` was one until the repo
// benchmark (`benchmark/`) replaced it — is a usage error on stderr
// with a non-zero exit, never a panic and never a silent default.
#[test]
fn unknown_subcommand_is_a_usage_error() {
    for sub in ["bench", "nosuch"] {
        let stderr = usage_error(&[sub]);
        assert!(
            stderr.starts_with(&format!("error: unknown subcommand '{sub}'\n")),
            "experiments {sub}: {stderr}"
        );
    }
}

// An export path that cannot be created is an error before the world
// runs — usage on stderr, exit 2, empty stdout — not a panic after it.
// No file can be created under a regular file, on any host.
#[test]
fn unwritable_obs_export_is_an_error_not_a_panic() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x");
    let stderr = usage_error(&["obs", "7", "--obs-export", path]);
    assert!(
        stderr.starts_with(&format!("error: cannot create {path}.jsonl: ")),
        "obs --obs-export {path}: {stderr}"
    );
}

// The widest window whose µs width fits the clock is one window over
// the whole run: the final seal must still ingest every trace record
// (3097 at seed 7, as with the default 1 s windows).
#[test]
fn widest_obs_window_still_seals_the_final_window() {
    let out = run(&["obs", "7", "--obs-window", "18446744073709551"]);
    assert!(out.status.success(), "obs --obs-window 18446744073709551");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ingested = stdout
        .lines()
        .find_map(|l| l.strip_prefix("trace records ingested"))
        .map(str::trim);
    assert_eq!(ingested, Some("3097"), "{stdout}");
}

// One ms more overflows the µs clock: a usage error (exit 2, empty
// stdout), not a width that silently wraps to 1 ms.
#[test]
fn obs_window_past_the_clock_is_an_error_not_a_wrap() {
    usage_error(&["obs", "7", "--obs-window", "18446744073709552"]);
}

// ----- full sweep (simulated worlds; minutes in release) ---------------

#[test]
#[ignore = "runs full simulated worlds; use --release -- --ignored"]
fn golden_full_sweep() {
    assert_tier(sweep(), &[""]);
}

/// The runner merges cells deterministically: the worker count changes
/// no output byte.
#[test]
#[ignore = "runs a simulated world twice; use --release -- --ignored"]
fn golden_output_is_jobs_invariant() {
    assert_tier(
        [("fig12", "fig12 7".to_string())],
        &["--jobs 1", "--jobs 4"],
    );
}

/// Every world-running paper subcommand, with the event loop inside
/// each world sharded, hits the sequential run's golden.
#[test]
#[ignore = "runs full simulated worlds sharded; use --release -- --ignored"]
fn golden_sharded_sweep() {
    assert_tier(sweep(), &["--world-jobs 2", "--world-jobs 8"]);
}
