//! The policy-A/B harness behind `fleet`, `adaptive`, `recover` and
//! `slo`: the paper's §7 comparison of arms (control vs test groups,
//! one policy vs another) on the same small 60 s storm worlds.
//!
//! The four subcommands differ only in the storm preset's free values,
//! their scripted failures and their arms. An [`Arm`] is a column label
//! plus a config edit. The grid runs as one [`Fleet::product`] (arms ×
//! seeds, outer-major), so each arm's fold is an exact
//! `worlds.chunks(n)` slice of the spec order and stdout is
//! byte-identical for any `--jobs` / `--world-jobs` combination. A
//! [`Row`] is a label plus a cell function over a [`Column`]. A bake-off
//! candidate joins `adaptive` or `recover` as one more `arms` entry,
//! which widens every table by one column; counters that only it emits
//! need rows of their own.

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::report::{format_incidents, format_obs_windows, format_slo_alerts, format_slo_rules};
use rlive::world::{GroupPolicy, RunReport};
use rlive::{
    build_incidents, Fleet, FleetReport, GroupQoe, ScriptedEvent, TrafficLedger, WorldSpec,
};
use rlive_bench::{header, offset_seeds, runner};
use rlive_control::SchedulerPolicyKind;
use rlive_data::recovery::{RecoveryPolicyKind, DEDICATED_UNIT_COST};
use rlive_sim::obs::{MetricRegistry, DEFAULT_WINDOW_MS};
use rlive_sim::slo::default_rulebook;
use rlive_sim::{SimDuration, SimTime};
use rlive_workload::scenario::Scenario;

/// The storm preset's worlds: small enough that a five-world fleet
/// finishes in seconds even in a debug build, long enough for a
/// scripted failure to straddle several obs windows.
fn storm_scenario() -> Scenario {
    let mut s = Scenario::evening_peak().scaled(0.08);
    s.duration = SimDuration::from_secs(60);
    s.streams = 3;
    s.population.isps = 2;
    s.population.regions = 2;
    s
}

/// The storm preset's configuration: peer delivery engages early, so
/// failures land on relay-sourced sessions. The free values are the
/// CDN edge capacity (90 Mbps contends `fleet` and `adaptive`, 60
/// `recover` and `slo`), the obs window (0 is off) and the SLO engine;
/// policies come from each [`Arm`].
fn storm_config(cdn_edge_mbps: u64, obs_window_ms: u64, slo_enabled: bool) -> SystemConfig {
    SystemConfig {
        cdn_edge_mbps,
        multi_source_after: SimDuration::from_secs(5),
        popularity_threshold: 1,
        obs_window_ms,
        slo_enabled,
        ..SystemConfig::default()
    }
}

/// `fraction` of the relays drop at t=15 s and stay dark for 20 s:
/// long enough for the adaptive policy's two-window hysteresis to
/// confirm the signal and demote.
fn mass_outage(fraction: f64) -> ScriptedEvent {
    ScriptedEvent::MassOutage {
        at: SimTime::from_secs(15),
        duration: SimDuration::from_secs(20),
        fraction,
    }
}

/// The storm script of `recover` and `slo`: 60 % of the relays drop at
/// t=15 s, and while the population is still refilling a churn storm
/// flaps 40 % of it at t=38 s, the racing window the hedged policy is
/// built for.
fn storm_script() -> Vec<ScriptedEvent> {
    vec![
        mass_outage(0.6),
        ScriptedEvent::ChurnStorm {
            at: SimTime::from_secs(38),
            duration: SimDuration::from_secs(12),
            fraction: 0.4,
        },
    ]
}

/// One arm: a column label plus the config edit that makes it.
#[derive(Default)]
struct Arm {
    label: &'static str,
    sched: Option<SchedulerPolicyKind>,
    recovery: Option<RecoveryPolicyKind>,
}

impl Arm {
    fn sched(kind: SchedulerPolicyKind) -> Self {
        Arm {
            label: kind.label(),
            sched: Some(kind),
            ..Arm::default()
        }
    }

    fn recovery(kind: RecoveryPolicyKind) -> Self {
        Arm {
            label: kind.label(),
            recovery: Some(kind),
            ..Arm::default()
        }
    }
}

/// Runs `arms × seeds` on the storm preset as one [`Fleet::product`]:
/// arm `i` owns `worlds[i * n..(i + 1) * n]` for `n` seeds.
fn run_arms(
    label: &str,
    config: &SystemConfig,
    groups: GroupPolicy,
    script: &[ScriptedEvent],
    arms: &[Arm],
    seeds: &[u64],
) -> FleetReport {
    let scenario = storm_scenario();
    let fleet = Fleet::product(label, arms, seeds, |arm, &seed| {
        let mut config = config.clone();
        config.scheduler.policy = arm.sched.unwrap_or(config.scheduler.policy);
        config.recovery_policy = arm.recovery.unwrap_or(config.recovery_policy);
        WorldSpec {
            seed,
            scenario: scenario.clone(),
            config,
            policy: groups.clone(),
            schedule: script.to_vec(),
        }
    });
    runner::run_fleet(fleet)
}

/// What a cell reads: one group's merged QoE and traffic, and the
/// fleet report they were folded into.
struct Column<'a> {
    label: &'a str,
    qoe: &'a GroupQoe,
    traffic: &'a TrafficLedger,
    fleet: &'a FleetReport,
}

/// What a row prints in one column.
type Cell = fn(&Column) -> String;

/// A table row: a label and its cell.
type Row<'a> = (&'a str, Cell);

/// A real-valued cell, to two decimals; a count cell is the integer.
fn mean(v: f64) -> String {
    format!("{v:.2}")
}

/// An obs counter's total over the column's fleet.
fn counter(c: &Column, name: &str) -> String {
    c.fleet.obs.counter_total(name).to_string()
}

/// Recovery failures per recovery outcome, in percent (0 without
/// outcomes).
fn failure_rate_pct(obs: &MetricRegistry) -> f64 {
    let den = obs.counter_total("recovery_outcomes");
    if den == 0 {
        0.0
    } else {
        100.0 * obs.counter_total("recovery_failures") as f64 / den as f64
    }
}

/// The merged QoE rows. `fleet` prints all of them, the policy A/Bs
/// the ones marked `true`.
const QOE_ROWS: [(bool, &str, Cell); 10] = [
    (true, "views", |c| c.qoe.views.to_string()),
    (false, "viewers", |c| c.qoe.viewers.to_string()),
    (false, "watch time s", |c| mean(c.qoe.watch_secs)),
    (true, "rebuffers /100s (mean)", |c| {
        mean(c.qoe.rebuffers_per_100s.mean())
    }),
    (true, "rebuffer ms /100s (mean)", |c| {
        mean(c.qoe.rebuffer_ms_per_100s.mean())
    }),
    (true, "bitrate Mbps (mean)", |c| {
        mean(c.qoe.bitrate_bps.mean() / 1e6)
    }),
    (true, "E2E latency ms (mean)", |c| {
        mean(c.qoe.e2e_latency_ms.mean())
    }),
    (false, "first-frame P90 ms", |c| {
        mean(c.qoe.first_frame_ms.clone().quantile(0.9))
    }),
    (true, "CDN fallbacks", |c| c.qoe.cdn_fallbacks.to_string()),
    (true, "client traffic MB", |c| {
        mean(c.traffic.client_bytes() as f64 / 1e6)
    }),
];

/// Recovery outcomes from the obs counters.
const RECOVERY_ROWS: [Row; 4] = [
    ("recovery outcomes", |c| counter(c, "recovery_outcomes")),
    ("recovery failures", |c| counter(c, "recovery_failures")),
    ("recovery failure rate %", |c| {
        mean(failure_rate_pct(&c.fleet.obs))
    }),
    ("deadline-blown switches", |c| {
        counter(c, "recovery_deadline_blown")
    }),
];

/// Hedge economics: every redundant win still moves bytes, so the
/// best-effort serving bytes cover every leg that delivered, and the
/// delta between the arms is the hedge overhead the ledger charges.
const HEDGE_ROWS: [Row; 8] = [
    ("hedge batches issued", |c| counter(c, "hedges_issued")),
    ("hedge attempts", |c| counter(c, "hedge_attempts")),
    ("hedge wins", |c| counter(c, "hedge_wins")),
    ("hedge cancellations", |c| counter(c, "hedges_cancelled")),
    ("cancelled (redundant) legs", |c| {
        counter(c, "hedge_cancelled_attempts")
    }),
    ("best-effort recovery MB", |c| {
        mean(c.traffic.best_effort_serving as f64 / 1e6)
    }),
    ("dedicated serving MB", |c| {
        mean(c.traffic.dedicated_serving as f64 / 1e6)
    }),
    ("equivalent traffic (EqT)", |c| {
        mean(c.traffic.equivalent_traffic(DEDICATED_UNIT_COST) / 1e6)
    }),
];

/// Prints a table: a heading with the column labels, a rule, and one
/// line per row.
fn print_table(head: &str, columns: &[Column], rows: &[Row]) {
    print!("\n{head:<30}");
    for c in columns {
        print!(" {:>13}", c.label);
    }
    println!("\n{}", "-".repeat(30 + 14 * columns.len()));
    for (label, cell) in rows {
        print!("{label:<30}");
        for c in columns {
            print!(" {:>13}", cell(c));
        }
        println!();
    }
}

/// A dispersion row: a label and the per-world metric.
type Metric<'a> = (&'a str, fn(&RunReport) -> f64);

/// Prints per-world min/median/max of each metric over `report`'s
/// worlds.
fn print_dispersion(head: &str, report: &FleetReport, rows: &[Metric]) {
    println!("\n{head:<30} {:>10} {:>10} {:>10}", "min", "median", "max");
    println!("{}", "-".repeat(64));
    for (label, metric) in rows {
        let d = report.dispersion(metric);
        println!(
            "{label:<30} {:>10.2} {:>10.2} {:>10.2}",
            d.min, d.median, d.max
        );
    }
}

/// Prints the scripted failures, one line each.
fn print_script(script: &[ScriptedEvent]) {
    for ev in script {
        match ev {
            ScriptedEvent::MassOutage {
                at,
                duration,
                fraction,
            } => println!(
                "mass outage: {:.0} % of relays offline from {at} for {duration}",
                fraction * 100.0
            ),
            ScriptedEvent::ChurnStorm {
                at,
                duration,
                fraction,
            } => println!(
                "churn storm: {:.0} % of relays flapping from {at} for {duration}",
                fraction * 100.0
            ),
            other => println!("scripted: {other:?}"),
        }
    }
}

/// `seeds a..=b` for a header line.
fn seed_range(seeds: &[u64]) -> String {
    format!("seeds {}..={}", seeds[0], seeds[seeds.len() - 1])
}

const ARMS_NOTE: &str = "\nnote: both arms fold per-world reports in spec order with the \
     exactly-associative metric algebra; stdout is byte-identical for any \
     --jobs / --world-jobs combination.";

/// The body of a policy A/B: the header and script, `n` RLive worlds
/// per arm, the merged QoE table, then `tables` (heading and rows) over
/// the same columns. Returns one fold per arm.
fn policy_ab(
    label: &str,
    (title, kind): (&str, &str),
    config: &SystemConfig,
    script: &[ScriptedEvent],
    arms: &[Arm],
    seeds: &[u64],
    tables: &[(&str, &[Row])],
) -> Vec<FleetReport> {
    let n = seeds.len();
    let labels: Vec<&str> = arms.iter().map(|a| a.label).collect();
    header(&format!(
        "{title} — {n} {kind} world{} per arm ({}), {} policy",
        if n == 1 { "" } else { "s" },
        seed_range(seeds),
        labels.join(" vs ")
    ));
    print_script(script);
    let groups = GroupPolicy::uniform(DeliveryMode::RLive);
    let report = run_arms(label, config, groups, script, arms, seeds);
    // Re-fold each arm's slice with the same exactly-associative
    // algebra the whole-grid report used.
    let folds: Vec<FleetReport> = report
        .worlds
        .chunks(n)
        .map(|worlds| FleetReport::fold(worlds.to_vec()))
        .collect();
    println!(
        "{} worlds, {:.0} s simulated in total (policies: {})",
        report.world_count(),
        report.duration.as_secs_f64(),
        labels.join(", ")
    );
    let columns: Vec<Column> = arms
        .iter()
        .zip(&folds)
        .map(|(arm, fleet)| Column {
            label: arm.label,
            qoe: &fleet.test_qoe,
            traffic: &fleet.test_traffic,
            fleet,
        })
        .collect();
    let qoe: Vec<Row> = QOE_ROWS
        .iter()
        .filter(|r| r.0)
        .map(|r| (r.1, r.2))
        .collect();
    print_table("metric (merged, per arm)", &columns, &qoe);
    for (head, rows) in tables {
        print_table(head, &columns, rows);
    }
    folds
}

/// `experiments fleet <n> [seed]`: `n` CdnOnly-vs-RLive worlds seeded
/// `seed..seed+n`, printed as the merged control/test table plus
/// per-world dispersion.
///
/// Every option is opt-in, so the default output (and its golden
/// digest) is unchanged. `obs_window` (`--obs-window`) turns the obs
/// layer on and appends an obs roll-up: per-world recovery-failure-rate
/// dispersion and the merged registry's worst windows. `slo` (`--slo`)
/// runs the SLO engine (on 1 s obs windows unless `--obs-window` is
/// given) and appends the merged alert log. `sched_policy`
/// (`--sched-policy`) and `recovery_policy` (`--recovery-policy`)
/// override the policies in every world.
pub fn fleet(
    n: usize,
    seed: u64,
    obs_window: Option<u64>,
    slo: bool,
    sched_policy: Option<SchedulerPolicyKind>,
    recovery_policy: Option<RecoveryPolicyKind>,
) {
    let obs_window = obs_window.or(slo.then_some(DEFAULT_WINDOW_MS));
    let config = storm_config(90, obs_window.unwrap_or(0), slo);
    let seeds = offset_seeds(seed, 0..n as u64);
    header(&format!(
        "Fleet — {n} world{} ({}), CdnOnly vs RLive A/B",
        if n == 1 { "" } else { "s" },
        seed_range(&seeds)
    ));
    let arm = Arm {
        label: "",
        sched: sched_policy,
        recovery: recovery_policy,
    };
    let groups = GroupPolicy::ab(DeliveryMode::CdnOnly, DeliveryMode::RLive);
    let report = run_arms("fleet", &config, groups, &[], &[arm], &seeds);
    println!(
        "{} worlds, {:.0} s simulated in total",
        report.world_count(),
        report.duration.as_secs_f64()
    );

    let group = |label, qoe, traffic| Column {
        label,
        qoe,
        traffic,
        fleet: &report,
    };
    let columns = [
        group("control", &report.control_qoe, &report.control_traffic),
        group("test", &report.test_qoe, &report.test_traffic),
    ];
    let eqt = format!("EqT MB (cost {DEDICATED_UNIT_COST})");
    let mut rows: Vec<Row> = QOE_ROWS.iter().map(|r| (r.1, r.2)).collect();
    rows.push((&eqt, |c| {
        mean(c.traffic.equivalent_traffic(DEDICATED_UNIT_COST) / 1e6)
    }));
    rows.push(("expansion rate γ", |c| {
        c.traffic.expansion_rate().map_or("-".to_string(), mean)
    }));
    print_table("metric (merged)", &columns, &rows);

    print_dispersion(
        "per-world dispersion (test)",
        &report,
        &[
            ("views", |w| w.test_qoe.views as f64),
            ("rebuffers /100s (mean)", |w| {
                w.test_qoe.rebuffers_per_100s.mean()
            }),
            ("bitrate Mbps (mean)", |w| {
                w.test_qoe.bitrate_bps.mean() / 1e6
            }),
            ("E2E latency ms (mean)", |w| {
                w.test_qoe.e2e_latency_ms.mean()
            }),
            ("client traffic MB", |w| {
                w.test_traffic.client_bytes() as f64 / 1e6
            }),
        ],
    );

    if let Some(w) = obs_window {
        print_dispersion(
            &format!("obs roll-up, {w} ms windows"),
            &report,
            &[
                ("recovery failure rate %", |r| failure_rate_pct(&r.obs)),
                ("candidate yield", |r| {
                    let den = r.obs.counter_total("scheduler_recommendations");
                    if den == 0 {
                        0.0
                    } else {
                        r.obs.counter_total("scheduler_candidates") as f64 / den as f64
                    }
                }),
            ],
        );
        println!();
        print!(
            "{}",
            format_obs_windows(
                "recovery failure rate (merged fleet)",
                &report.obs.recovery_failure_rate(),
                5
            )
        );
    }

    if slo {
        println!();
        print!("{}", format_slo_alerts(&report.slo));
    }

    println!(
        "\nscheduler: {} requests, {:.1} % invalid candidates",
        report.scheduler_requests,
        report.invalid_candidate_fraction * 100.0
    );
    println!("non-finite samples skipped: {}", report.skipped_samples());
    println!(
        "\nnote: the merged columns fold per-world reports in seed order with the \
         exactly-associative metric algebra; stdout is byte-identical for any \
         --jobs / --world-jobs combination."
    );
}

/// `experiments adaptive <n> [seed]`: the static vs adaptive scheduler
/// policy under a mass outage of half the relays, `n` worlds per arm.
/// Prints QoE, recovery traffic from the obs counters, and the adaptive
/// arm's per-window demotion counts.
pub fn adaptive(n: usize, seed: u64, obs_window: Option<u64>) {
    let config = storm_config(90, obs_window.unwrap_or(DEFAULT_WINDOW_MS), false);
    let arms = [
        Arm::sched(SchedulerPolicyKind::Static),
        Arm::sched(SchedulerPolicyKind::Adaptive),
    ];
    let mut recovery = RECOVERY_ROWS.to_vec();
    recovery.push(("scheduler requests", |c| {
        c.fleet.scheduler_requests.to_string()
    }));
    let folds = policy_ab(
        "adaptive",
        ("Adaptive scheduling", "outage"),
        &config,
        &[mass_outage(0.5)],
        &arms,
        &offset_seeds(seed, 0..n as u64),
        &[("recovery traffic", &recovery)],
    );

    let window_ms = config.obs_window_ms;
    let adaptive = &folds[1].sched_demotions;
    println!(
        "\nadaptive demotions by {window_ms} ms window ({} total; static arm: {}):",
        adaptive.values().sum::<u64>(),
        folds[0].sched_demotions.values().sum::<u64>(),
    );
    if adaptive.is_empty() {
        println!("  (none)");
    }
    for (&win, &count) in adaptive {
        println!(
            "  window {win:>4} [{:>6}..{:>6} ms)  demotions {count:>4}",
            win * window_ms,
            (win + 1) * window_ms
        );
    }
    println!("{ARMS_NOTE}");
}

/// `experiments recover <n> [seed]`: the QoE-EDF vs racing recovery
/// policy under the storm script, `n` worlds per arm. Prints QoE,
/// recovery outcomes, and the racing arm's hedge economics (wins,
/// cancels, redundant attempts, priced traffic).
pub fn recover(n: usize, seed: u64, obs_window: Option<u64>) {
    policy_ab(
        "recover",
        ("Racing recovery", "storm"),
        &storm_config(60, obs_window.unwrap_or(DEFAULT_WINDOW_MS), false),
        &storm_script(),
        &[
            Arm::recovery(RecoveryPolicyKind::QoeEdf),
            Arm::recovery(RecoveryPolicyKind::Racing),
        ],
        &offset_seeds(seed, 0..n as u64),
        &[
            ("recovery outcomes", &RECOVERY_ROWS),
            ("hedge economics", &HEDGE_ROWS),
        ],
    );
    println!("{ARMS_NOTE}");
}

/// `experiments slo [seed]`: the storm script over two worlds (enough
/// to exercise the cross-world alert merge) with the SLO engine on and
/// the adaptive scheduler, so incidents show their demotion response.
/// Prints the rulebook, the merged alert log — every fire/resolve edge
/// over sealed obs windows — and one incident timeline per scripted
/// injection: first-fire detection latency in windows, peak severity,
/// resolution, and the demotion/hedge mitigation counters.
pub fn slo(seed: u64, obs_window: Option<u64>) {
    let config = storm_config(60, obs_window.unwrap_or(DEFAULT_WINDOW_MS), true);
    let seeds = offset_seeds(seed, 0..2);
    header(&format!(
        "SLO & alerting — 2 storm worlds ({}), adaptive scheduler",
        seed_range(&seeds)
    ));
    let script = storm_script();
    print_script(&script);
    println!();
    print!("{}", format_slo_rules(&default_rulebook()));

    let arm = Arm::sched(SchedulerPolicyKind::Adaptive);
    let groups = GroupPolicy::uniform(DeliveryMode::RLive);
    let report = run_arms("slo", &config, groups, &script, &[arm], &seeds);
    println!();
    print!("{}", format_slo_alerts(&report.slo));
    println!();
    let incidents = build_incidents(&script, &report.slo, &report.obs, &report.sched_demotions);
    print!("{}", format_incidents(&incidents));

    println!(
        "\nnote: alerts are evaluated over sealed obs windows only and merge \
         associatively in window order, so stdout is byte-identical for any \
         --jobs / --world-jobs combination. Detection latency is in windows \
         ({} ms each).",
        config.obs_window_ms
    );
}
