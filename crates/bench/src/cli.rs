//! Command-line parsing for the `experiments` binary, extracted from
//! `main` so it is unit-testable.
//!
//! Two silent failure modes motivated the extraction and are rejected
//! here loudly (usage + exit code 2 in `main`):
//!
//! * `experiments fig10 20x6` used to *silently* run seed 2026 — the
//!   seed positional was parsed with `.ok().unwrap_or(2026)`, which
//!   swallowed the error. [`CliArgs::seed_at`] now fails on an
//!   unparseable seed.
//! * any unknown `--flag` (e.g. the typo `--jbos=4`) used to be treated
//!   as a positional and ignored. [`parse_args`] now rejects every
//!   token starting with `-` that is not a recognised flag.

/// Default seed when none is given on the command line.
pub const DEFAULT_SEED: u64 = 2026;

/// Parsed command line: recognised flags plus raw positionals
/// (`<subcommand> [args…]`). Positional interpretation is per-command
/// (`fleet` takes `<n> [seed]`, most others `[seed]`), so resolution
/// happens via the accessor methods, not at parse time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CliArgs {
    /// Non-flag arguments in order: subcommand first.
    pub positionals: Vec<String>,
    /// `--seed N`: overrides any positional seed.
    pub seed: Option<u64>,
    /// `--stream S` (trace subcommand).
    pub stream: Option<u64>,
    /// `--jobs N`: cell-runner worker threads.
    pub jobs: Option<usize>,
    /// `--world-jobs N`: event-loop shards inside each world.
    pub world_jobs: Option<usize>,
    /// `--obs-window MS`: tumbling-window width for the observability
    /// layer, in sim milliseconds. Zero, negative and non-numeric
    /// values are rejected at parse time (a 0 ms window divides by
    /// zero conceptually; "disabled" is expressed by omitting the
    /// flag, not by passing 0).
    pub obs_window: Option<u64>,
    /// `--obs-export PATH`: write the obs series to `PATH.jsonl` and
    /// `PATH.csv` (obs subcommand).
    pub obs_export: Option<String>,
    /// `--slo` (fleet subcommand): run the SLO/alert engine in every
    /// world and append the merged alert log to the fleet report.
    pub slo: bool,
    /// `--sched-policy static|adaptive`: scheduler policy selection.
    /// Unrecognised values are rejected at parse time.
    pub sched_policy: Option<rlive_control::SchedulerPolicyKind>,
    /// `--recovery-policy qoe_edf|racing`: recovery policy selection.
    /// Unrecognised values are rejected at parse time.
    pub recovery_policy: Option<rlive_data::recovery::RecoveryPolicyKind>,
    /// `--help` / `-h`.
    pub help: bool,
}

/// Parses raw arguments (without the program name). Returns an error
/// message for unknown flags or malformed flag values; positionals are
/// collected verbatim.
pub fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<CliArgs, String> {
    let mut args = CliArgs::default();
    let mut raw = raw.into_iter();
    while let Some(arg) = raw.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            raw.next().ok_or_else(|| format!("{name} expects a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => args.help = true,
            "--seed" => args.seed = Some(parse_u64("--seed", &flag_value("--seed")?)?),
            "--stream" => args.stream = Some(parse_u64("--stream", &flag_value("--stream")?)?),
            "--jobs" => args.jobs = Some(parse_positive("--jobs", &flag_value("--jobs")?)?),
            "--world-jobs" => {
                args.world_jobs = Some(parse_positive(
                    "--world-jobs",
                    &flag_value("--world-jobs")?,
                )?)
            }
            "--obs-window" => {
                args.obs_window = Some(parse_obs_window(&flag_value("--obs-window")?)?)
            }
            "--obs-export" => args.obs_export = Some(flag_value("--obs-export")?),
            "--slo" => args.slo = true,
            "--sched-policy" => {
                args.sched_policy = Some(parse_policy(&flag_value("--sched-policy")?)?)
            }
            "--recovery-policy" => {
                args.recovery_policy =
                    Some(parse_recovery_policy(&flag_value("--recovery-policy")?)?)
            }
            _ => {
                if let Some(v) = arg.strip_prefix("--seed=") {
                    args.seed = Some(parse_u64("--seed", v)?);
                } else if let Some(v) = arg.strip_prefix("--stream=") {
                    args.stream = Some(parse_u64("--stream", v)?);
                } else if let Some(v) = arg.strip_prefix("--jobs=") {
                    args.jobs = Some(parse_positive("--jobs", v)?);
                } else if let Some(v) = arg.strip_prefix("--world-jobs=") {
                    args.world_jobs = Some(parse_positive("--world-jobs", v)?);
                } else if let Some(v) = arg.strip_prefix("--obs-window=") {
                    args.obs_window = Some(parse_obs_window(v)?);
                } else if let Some(v) = arg.strip_prefix("--obs-export=") {
                    args.obs_export = Some(v.to_string());
                } else if let Some(v) = arg.strip_prefix("--sched-policy=") {
                    args.sched_policy = Some(parse_policy(v)?);
                } else if let Some(v) = arg.strip_prefix("--recovery-policy=") {
                    args.recovery_policy = Some(parse_recovery_policy(v)?);
                } else if arg.starts_with('-') && arg.len() > 1 {
                    // A typo'd flag must not silently become an ignored
                    // positional.
                    return Err(format!("unknown flag '{arg}'"));
                } else {
                    args.positionals.push(arg);
                }
            }
        }
    }
    Ok(args)
}

fn parse_u64(name: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("{name} expects an unsigned integer, got '{v}'"))
}

fn parse_positive(name: &str, v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{name} expects a positive integer, got '{v}'")),
    }
}

/// A window width in ms whose µs value fits the simulator clock.
fn parse_obs_window(v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(ms) if ms > 0 && ms.checked_mul(1_000).is_some() => Ok(ms),
        Ok(ms) if ms > 0 => Err(format!(
            "--obs-window expects at most {} ms, got '{v}'",
            u64::MAX / 1_000
        )),
        _ => Err(format!(
            "--obs-window expects a positive integer, got '{v}'"
        )),
    }
}

fn parse_policy(v: &str) -> Result<rlive_control::SchedulerPolicyKind, String> {
    rlive_control::SchedulerPolicyKind::parse(v)
        .ok_or_else(|| format!("--sched-policy expects 'static' or 'adaptive', got '{v}'"))
}

fn parse_recovery_policy(v: &str) -> Result<rlive_data::recovery::RecoveryPolicyKind, String> {
    rlive_data::recovery::RecoveryPolicyKind::parse(v)
        .ok_or_else(|| format!("--recovery-policy expects 'qoe_edf' or 'racing', got '{v}'"))
}

impl CliArgs {
    /// The subcommand (`help` if none was given).
    pub fn command(&self) -> &str {
        self.positionals
            .first()
            .map(String::as_str)
            .unwrap_or("help")
    }

    /// Resolves the run seed: the `--seed` flag wins, else the
    /// positional at `index` (1 = first argument after the
    /// subcommand), else [`DEFAULT_SEED`]. A present-but-unparseable
    /// positional is an **error**, never a silent fallback.
    pub fn seed_at(&self, index: usize) -> Result<u64, String> {
        if let Some(seed) = self.seed {
            return Ok(seed);
        }
        match self.positionals.get(index) {
            None => Ok(DEFAULT_SEED),
            Some(raw) => parse_u64("seed", raw),
        }
    }

    /// A required positive-integer positional (e.g. `fleet <n>`).
    pub fn required_count_at(&self, index: usize, what: &str) -> Result<usize, String> {
        match self.positionals.get(index) {
            None => Err(format!("missing {what}")),
            Some(raw) => parse_positive(what, raw),
        }
    }

    /// Rejects positionals beyond the subcommand plus `n` arguments.
    pub fn expect_at_most(&self, n: usize) -> Result<(), String> {
        match self.positionals.get(n + 1) {
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positionals_and_flags_parse() {
        let a = parse(&["fig10", "7", "--jobs", "4", "--world-jobs=2"]).unwrap();
        assert_eq!(a.positionals, vec!["fig10", "7"]);
        assert_eq!(a.command(), "fig10");
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.world_jobs, Some(2));
        assert_eq!(a.seed_at(1).unwrap(), 7);
    }

    #[test]
    fn no_args_means_help_command() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.command(), "help");
        assert_eq!(a.seed_at(1).unwrap(), DEFAULT_SEED);
    }

    #[test]
    fn typoed_seed_positional_is_an_error_not_a_silent_default() {
        // The original bug: `fig10 20x6` ran seed 2026 without a word.
        let a = parse(&["fig10", "20x6"]).unwrap();
        let err = a.seed_at(1).unwrap_err();
        assert!(
            err.contains("20x6"),
            "error should name the bad value: {err}"
        );
    }

    #[test]
    fn unknown_flag_is_rejected() {
        // The original bug: `--jbos=4` was silently treated as an
        // ignored positional.
        let err = parse(&["fig10", "7", "--jbos=4"]).unwrap_err();
        assert!(
            err.contains("--jbos=4"),
            "error should name the flag: {err}"
        );
        assert!(parse(&["-x"]).is_err());
        // The flags of the removed `bench` subcommand are unknown in
        // both spellings, not silently accepted leftovers.
        for gone in ["quick", "tier", "out", "pre", "baseline", "check"] {
            for arg in [format!("--{gone}"), format!("--{gone}=x")] {
                let err = parse(&["fig10", &arg]).unwrap_err();
                assert_eq!(err, format!("unknown flag '{arg}'"));
            }
        }
        // So is the removed streamed-export flag.
        let err = parse(&["obs", "--obs-stream", "P"]).unwrap_err();
        assert_eq!(err, "unknown flag '--obs-stream'");
        let err = parse(&["obs", "--obs-stream=P"]).unwrap_err();
        assert_eq!(err, "unknown flag '--obs-stream=P'");
    }

    #[test]
    fn seed_flag_overrides_positional() {
        let a = parse(&["fig10", "7", "--seed", "9"]).unwrap();
        assert_eq!(a.seed_at(1).unwrap(), 9);
        let a = parse(&["fig10", "--seed=11"]).unwrap();
        assert_eq!(a.seed_at(1).unwrap(), 11);
    }

    #[test]
    fn malformed_flag_values_are_errors() {
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "x"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--world-jobs=0"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--stream=-1"]).is_err());
    }

    #[test]
    fn fleet_shape_positionals_resolve() {
        let a = parse(&["fleet", "5", "7"]).unwrap();
        assert_eq!(a.required_count_at(1, "world count").unwrap(), 5);
        assert_eq!(a.seed_at(2).unwrap(), 7);
        assert!(a.expect_at_most(2).is_ok());

        let a = parse(&["fleet", "5"]).unwrap();
        assert_eq!(a.seed_at(2).unwrap(), DEFAULT_SEED);

        let a = parse(&["fleet"]).unwrap();
        assert!(a
            .required_count_at(1, "world count")
            .unwrap_err()
            .contains("missing"));

        let a = parse(&["fleet", "0", "7"]).unwrap();
        assert!(a.required_count_at(1, "world count").is_err());
    }

    #[test]
    fn extra_positionals_are_rejected() {
        let a = parse(&["fig10", "7", "8"]).unwrap();
        let err = a.expect_at_most(1).unwrap_err();
        assert!(err.contains('8'), "{err}");
    }

    #[test]
    fn obs_window_parses_positive_and_rejects_everything_else() {
        let a = parse(&["obs", "7", "--obs-window", "250"]).unwrap();
        assert_eq!(a.obs_window, Some(250));
        let a = parse(&["obs", "--obs-window=2000"]).unwrap();
        assert_eq!(a.obs_window, Some(2000));
        assert_eq!(parse(&["obs"]).unwrap().obs_window, None);

        // Zero, negative and non-numeric windows are parse errors, not
        // silent fallbacks; the message must name the bad value.
        let widest = parse(&["obs", "--obs-window", "18446744073709551"]).unwrap();
        assert_eq!(widest.obs_window, Some(u64::MAX / 1_000));
        // One more ms overflows the µs clock, as does u64::MAX itself.
        for bad in [
            "0",
            "-5",
            "1.5",
            "abc",
            "",
            "18446744073709552",
            "18446744073709551615",
        ] {
            let err = parse(&["obs", "--obs-window", bad]).unwrap_err();
            assert!(
                err.contains("--obs-window") && err.contains(bad),
                "error for {bad:?} should name flag and value: {err}"
            );
        }
        assert!(parse(&["obs", "--obs-window"]).is_err(), "missing value");
    }

    #[test]
    fn obs_export_takes_a_path() {
        let a = parse(&["obs", "--obs-export", "/tmp/obs"]).unwrap();
        assert_eq!(a.obs_export.as_deref(), Some("/tmp/obs"));
        let a = parse(&["obs", "--obs-export=out"]).unwrap();
        assert_eq!(a.obs_export.as_deref(), Some("out"));
        assert!(parse(&["obs", "--obs-export"]).is_err(), "missing value");
    }

    #[test]
    fn slo_flag_parses() {
        assert!(parse(&["fleet", "5", "--slo"]).unwrap().slo);
        assert!(!parse(&["fleet", "5"]).unwrap().slo);
        assert!(parse(&["slo", "7", "--jobs", "2"]).unwrap().positionals == vec!["slo", "7"]);
    }

    #[test]
    fn sched_policy_parses_both_forms_and_rejects_junk() {
        use rlive_control::SchedulerPolicyKind;
        let a = parse(&["adaptive", "3", "--sched-policy", "adaptive"]).unwrap();
        assert_eq!(a.sched_policy, Some(SchedulerPolicyKind::Adaptive));
        let a = parse(&["fleet", "5", "--sched-policy=static"]).unwrap();
        assert_eq!(a.sched_policy, Some(SchedulerPolicyKind::Static));
        assert_eq!(parse(&["fleet", "5"]).unwrap().sched_policy, None);
        for bad in ["", "dynamic", "Adaptive", "static "] {
            let err = parse(&["fleet", "--sched-policy", bad]).unwrap_err();
            assert!(
                err.contains("--sched-policy"),
                "error for {bad:?} should name the flag: {err}"
            );
        }
        assert!(
            parse(&["fleet", "--sched-policy"]).is_err(),
            "missing value"
        );
    }

    #[test]
    fn recovery_policy_parses_both_forms_and_rejects_junk() {
        use rlive_data::recovery::RecoveryPolicyKind;
        let a = parse(&["recover", "3", "--recovery-policy", "racing"]).unwrap();
        assert_eq!(a.recovery_policy, Some(RecoveryPolicyKind::Racing));
        let a = parse(&["fleet", "5", "--recovery-policy=qoe_edf"]).unwrap();
        assert_eq!(a.recovery_policy, Some(RecoveryPolicyKind::QoeEdf));
        let a = parse(&["fleet", "5", "--recovery-policy=qoe-edf"]).unwrap();
        assert_eq!(a.recovery_policy, Some(RecoveryPolicyKind::QoeEdf));
        assert_eq!(parse(&["fleet", "5"]).unwrap().recovery_policy, None);
        for bad in ["", "hedged", "Racing", "racing "] {
            let err = parse(&["fleet", "--recovery-policy", bad]).unwrap_err();
            assert!(
                err.contains("--recovery-policy"),
                "error for {bad:?} should name the flag: {err}"
            );
        }
        assert!(
            parse(&["fleet", "--recovery-policy"]).is_err(),
            "missing value"
        );
    }

    #[test]
    fn help_flags_parse() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
    }

    #[test]
    fn single_dash_is_a_positional() {
        let a = parse(&["-"]).unwrap();
        assert_eq!(a.positionals, vec!["-"]);
    }
}
