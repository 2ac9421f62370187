//! `experiments` — regenerates every table and figure of the RLive
//! paper's evaluation on the simulator.
//!
//! ```sh
//! cargo run --release -p rlive-bench --bin experiments -- <subcommand>
//! ```
//!
//! Subcommands map one-to-one to the paper's tables and figures; `all`
//! runs everything. Output is paper-vs-measured comparison tables plus
//! CSV series for the figure curves. Absolute values are simulator-scale;
//! the claim being reproduced is the *shape* (who wins, rough factors).
//!
//! Argument parsing lives in `rlive_bench::cli`; malformed input —
//! an unknown flag, an unparseable seed, an unknown subcommand — prints
//! the usage to stderr and exits with code 2 instead of silently
//! running something else.

use rlive_bench::cli::{self, CliArgs};

mod exp_ab;
mod exp_ablation;
mod exp_arms;
mod exp_cases;
mod exp_control;
mod exp_fuzz;
mod exp_motivation;
mod exp_multi;
mod exp_obs;
mod exp_trace;

const USAGE: &str = "\
experiments — regenerate the RLive paper's tables and figures

USAGE: experiments <subcommand> [args] [--seed N] [--jobs N] [--world-jobs N]

  Most subcommands take an optional [seed] positional (default 2026);
  --seed N overrides it. A malformed seed, an unknown flag or a flag
  the subcommand does not read is an error (exit code 2), never a
  silent fallback.

  --jobs N        worker threads for the cell runner (default: available
                  parallelism). Output is byte-identical for any N; only
                  wall-clock time changes.
  --world-jobs N  worker threads sharding the event loop INSIDE each
                  world (default 1). Output is byte-identical for any N
                  here too — see DESIGN.md \"Sharded world execution\".
  --obs-window MS tumbling-window width (sim milliseconds) for the
                  observability layer (fleet, adaptive, recover, slo
                  and obs). Must be a positive integer; default 1000
                  for obs, disabled for fleet unless given.
  --obs-export P  (obs) also write the raw series to P.jsonl and P.csv
                  at the end of the run.
  --slo           (fleet) run the SLO/alert engine in every world and
                  append the merged alert log (enables the obs layer
                  with 1 s windows unless --obs-window is given).
  --sched-policy P
                  scheduler policy for the fleet/obs worlds: 'static'
                  (default, the paper's score path) or 'adaptive'
                  (telemetry-driven windowed demotion — see DESIGN.md
                  \"Scheduler policies\"). The adaptive subcommand runs
                  both arms itself and rejects this flag.
  --recovery-policy P
                  recovery policy for the fleet/obs worlds: 'qoe_edf'
                  (default, the paper's §5.3 EDF loss minimisation) or
                  'racing' (hedged retransmissions with cancel-on-
                  first-win — see DESIGN.md \"Recovery policies\"). The
                  recover subcommand runs both arms itself and rejects
                  this flag.

  fig1b      Best-effort node bandwidth capacity CDF
  fig2a      Single-source vs CDN-only QoE degradation
  fig2b      Traffic expansion rate distribution (single-source)
  fig2c      Best-effort node lifespan CDF
  fig2d      One-way delay jitter trace through one node
  fig3       Retransmission success/latency, dedicated vs best-effort
  table1     Diurnal streams/nodes overview
  fig8       A/B split fairness (views / viewers)
  fig9       A/B QoE results (rebuffering, bitrate, E2E latency)
  table2     Equivalent traffic reduction
  fig10      Client energy consumption deltas
  fig11      Multi- vs single-source transmission
  fig12      Global control plane statistics
  table3     Centralized vs distributed frame sequencing
  fig13      RTM protocol generality A/B
  table4     FIFA World Cup case study
  fallback   Fallback threshold trade-off sweep (§7.4)
  ablation   Design ablations: probes, substreams, explore, nat, chain
  fleet <n> [seed]
             Run n seeded worlds as one fleet; print the merged
             fleet-scale A/B table plus per-world min/median/max
  adaptive <n> [seed]
             Static-vs-adaptive scheduler policy A/B: n mass-outage
             worlds per arm; QoE, recovery traffic and the adaptive
             arm's per-window demotion counts
  recover <n> [seed]
             QoE-EDF vs racing recovery policy A/B: n worlds per arm
             under a scripted mass outage + churn storm; recovery
             failure rate, deadline-blown switches, hedge win/cancel
             counts and the priced hedge traffic overhead
  fuzz <n> [seed]
             Coverage-driven scenario fuzzing: mutate n DSL programs
             from the quiet base, keep candidates that reach new
             behavioural coverage (trace kinds, mode transitions,
             recovery outcomes) or worsen QoE, and print the coverage
             matrix plus the worst candidates as replayable specs
  slo [seed]
             SLO & alerting report over a scripted storm fleet: the
             declarative rulebook, the merged fire/resolve alert log
             over sealed obs windows, and per-injection incident
             timelines (detection latency in windows, peak severity,
             resolution, demotion/hedge response)
  trace      Structured per-session event timeline of one traced world
             (--seed N selects the run, --stream S filters sessions)
  obs        Windowed observability series of one traced world:
             summary, recovery-failure-rate, candidate-yield and
             reorder-stall top-k window tables (--stream S narrows the
             yield table; --obs-window MS resizes the windows;
             --obs-export P dumps JSONL/CSV)
  all        Run everything
";

/// A paper subcommand: it takes exactly `[seed]`.
type Paper = (&'static str, fn(u64));

/// The paper's tables and figures, in the order `all` runs them.
const PAPER: [Paper; 18] = [
    ("fig1b", exp_motivation::fig1b),
    ("fig2a", exp_motivation::fig2a),
    ("fig2b", exp_motivation::fig2b),
    ("fig2c", exp_motivation::fig2c),
    ("fig2d", exp_motivation::fig2d),
    ("fig3", exp_motivation::fig3),
    ("table1", |_| exp_motivation::table1()),
    ("fig8", exp_ab::fig8),
    ("fig9", exp_ab::fig9),
    ("table2", exp_ab::table2),
    ("fig10", exp_ab::fig10),
    ("fig11", exp_multi::fig11),
    ("fig12", exp_control::fig12),
    ("table3", exp_multi::table3),
    ("fig13", exp_cases::fig13),
    ("table4", exp_cases::table4),
    ("fallback", exp_cases::fallback_threshold),
    ("ablation", exp_ablation::all),
];

fn main() {
    let args = match cli::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => die(&err),
    };
    if args.help {
        print!("{USAGE}");
        return;
    }
    if let Some(n) = args.jobs {
        rlive_bench::runner::set_jobs(n);
    }
    if let Some(n) = args.world_jobs {
        rlive::config::set_default_world_jobs(n);
    }
    // Wall-clock stage profiling is always on for the binary; its
    // output goes only to stderr (runner accounting), so golden stdout
    // stays byte-identical.
    rlive_sim::obs::profiler_enable(true);
    if let Err(err) = dispatch(&args) {
        die(&err);
    }
}

fn die(err: &str) -> ! {
    eprintln!("error: {err}\n");
    eprint!("{USAGE}");
    std::process::exit(2);
}

fn dispatch(args: &CliArgs) -> Result<(), String> {
    let command = args.command();
    if command == "help" {
        print!("{USAGE}");
        return Ok(());
    }
    // `fleet`, `adaptive`, `recover` and `fuzz` take `<n> [seed]`,
    // everything else exactly `[seed]`.
    let n = match command {
        "fleet" | "adaptive" | "recover" => {
            args.required_count_at(1, &format!("{command} world count"))?
        }
        "fuzz" => args.required_count_at(1, "fuzz candidate count")?,
        _ => 0,
    };
    let seed_at = if n > 0 { 2 } else { 1 };
    let seed = args.seed_at(seed_at)?;
    args.expect_at_most(seed_at)?;
    args.expect_flags_apply()?;
    let window = args.obs_window;
    match command {
        "fleet" => exp_arms::fleet(n, seed, args),
        "adaptive" => exp_arms::adaptive(n, seed, window),
        "recover" => exp_arms::recover(n, seed, window),
        "fuzz" => exp_fuzz::fuzz(n, seed),
        "slo" => exp_arms::slo(seed, window),
        "trace" => return exp_trace::trace(seed, args.stream),
        "obs" => return exp_obs::obs(seed, args),
        "all" => PAPER.iter().for_each(|(_, run)| run(seed)),
        name => match PAPER.iter().find(|(paper, _)| *paper == name) {
            Some((_, run)) => run(seed),
            None => return Err(format!("unknown subcommand '{name}'")),
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subcommands() -> impl Iterator<Item = &'static str> {
        let others = [
            "fleet", "adaptive", "recover", "fuzz", "slo", "trace", "obs", "all",
        ];
        PAPER.iter().map(|(name, _)| *name).chain(others)
    }

    #[test]
    fn usage_lists_exactly_the_dispatched_subcommands() {
        // A USAGE subcommand line: two spaces, a lowercase name, then the
        // end of the line, an argument or the description column.
        let mut usage: Vec<&str> = USAGE
            .lines()
            .filter_map(|line| {
                let rest = line.strip_prefix("  ")?;
                let (name, tail) = rest.split_at(rest.find(' ').unwrap_or(rest.len()));
                let word = name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit());
                let follows =
                    tail.is_empty() || ["  ", " <", " ["].iter().any(|p| tail.starts_with(p));
                (!name.is_empty() && word && follows).then_some(name)
            })
            .collect();
        let mut dispatched: Vec<&str> = subcommands().collect();
        usage.sort_unstable();
        dispatched.sort_unstable();
        assert_eq!(usage, dispatched);
    }

    #[test]
    fn a_flag_applies_exactly_to_the_subcommands_that_read_it() {
        // The global flags apply everywhere: their readers are empty.
        let readers = [
            ("--obs-window 300", "fleet adaptive recover slo obs"),
            ("--slo", "fleet"),
            ("--sched-policy adaptive", "fleet obs"),
            ("--recovery-policy racing", "fleet obs"),
            ("--stream 1", "trace obs"),
            ("--obs-export out", "obs"),
            ("--seed 7", ""),
            ("--jobs 2", ""),
            ("--world-jobs 2", ""),
        ];
        for sub in subcommands() {
            for (flag, subs) in readers {
                let line = format!("{sub} {flag}");
                let args = cli::parse_args(line.split(' ').map(String::from)).unwrap();
                let name = flag.split(' ').next().unwrap();
                let reads = subs.is_empty() || subs.split(' ').any(|s| s == sub);
                let want = reads
                    .then_some(())
                    .ok_or(format!("'{name}' does not apply to '{sub}'"));
                assert_eq!(args.expect_flags_apply(), want, "experiments {line}");
            }
        }
    }
}
