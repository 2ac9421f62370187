//! The §7.1 large-scale A/B experiments: Fig 8 (split fairness), Fig 9
//! (QoE), Table 2 (equivalent traffic) and Fig 10 (energy).

use rlive::abtest::AbReport;
use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::GroupPolicy;
use rlive::WorldSpec;
use rlive_bench::metric::GAMMA;
use rlive_bench::{
    compare_head, compare_row, fanout_config, fanout_scenario, header, mean, offset_seeds,
    peak_config, peak_scenario, print_daily, series, sweep, uniform_spec, DAY_SEEDS,
};
use rlive_data::recovery::DEDICATED_UNIT_COST;
use rlive_workload::scenario::Scenario;

fn day_seeds(seed: u64) -> Vec<u64> {
    offset_seeds(seed, DAY_SEEDS)
}

/// The A/B days of each scenario, control on the CDN and test on RLive:
/// one sweep whose variants are the scenarios.
fn ab_days(
    label: &str,
    scenarios: &[Scenario],
    config: &SystemConfig,
    seeds: &[u64],
) -> Vec<Vec<AbReport>> {
    let policy = GroupPolicy::ab(DeliveryMode::CdnOnly, DeliveryMode::RLive);
    sweep(label, scenarios, seeds, |scenario, seed| WorldSpec {
        seed,
        scenario: scenario.clone(),
        config: config.clone(),
        policy: policy.clone(),
        schedule: Vec::new(),
    })
    .into_iter()
    .map(|days| days.into_iter().map(AbReport::from_run).collect())
    .collect()
}

/// Fig 8: views and viewers participating in the A/B tests — the
/// hash-based split must be unbiased.
pub fn fig8(seed: u64) {
    header("Fig 8 — A/B split fairness (views / viewers per group)");
    let days = ab_days("fig8", &[peak_scenario()], &peak_config(), &day_seeds(seed)).remove(0);
    let views = series(&days, |r| r.view_split_pct);
    let viewers = series(&days, |r| {
        let c = r.run.control_qoe.viewers.max(1) as f64;
        let t = r.run.test_qoe.viewers as f64;
        (t - c) / c * 100.0
    });
    print_daily("views diff per day", &views);
    print_daily("viewers diff per day", &viewers);
    compare_head();
    compare_row(
        "mean |views diff|",
        "~0.01 % at 1e9 views",
        &format!("{:.2} % at ~1e2 views", mean(&series(&views, |v| v.abs()))),
    );
    compare_row(
        "mean |viewers diff|",
        "~0.01 %",
        &format!("{:.2} %", mean(&series(&viewers, |v| v.abs()))),
    );
    println!("\nnote: the split is binomial; expected |diff| scales as 1/sqrt(views).");
}

/// A per-day number read from one A/B world.
type AbMetric = fn(&AbReport) -> f64;

/// Fig 9's rows: metric, per-day diff, and the paper's value for each
/// test.
const FIG9_ROWS: [(&str, AbMetric, [&str; 2]); 3] = [
    (
        "rebuffering",
        |r| r.diff.rebuffer_events_pct,
        ["about -15 %", "about -10 %"],
    ),
    (
        "bitrate",
        |r| r.diff.bitrate_pct,
        ["about +10.5 %", "about +7 %"],
    ),
    (
        "E2E latency",
        |r| r.diff.e2e_latency_pct,
        ["+4 to +6 %", "+4 to +6 %"],
    ),
];

/// Fig 9: the two A/B tests' QoE differences, day by day.
pub fn fig9(seed: u64) {
    header("Fig 9 — A/B QoE results (test vs control, daily)");
    let mut noon = Scenario::noon_peak().scaled(0.2);
    noon.duration = peak_scenario().duration;
    noon.streams = 4;
    noon.population.isps = 2;
    noon.population.regions = 4;
    let tests = ab_days(
        "fig9",
        &[peak_scenario(), noon],
        &peak_config(),
        &day_seeds(seed),
    );
    let titles = [
        "Test 1: evening peak, RLive vs CDN-only",
        "Test 2: noon window (double-peak policy vs evening-only)",
    ];
    for (title, days) in titles.iter().zip(&tests) {
        println!("\n--- {title} ---");
        for (name, diff, _) in FIG9_ROWS {
            print_daily(&format!("{name} diff"), &series(days, diff));
        }
    }
    compare_head();
    for (name, diff, paper) in FIG9_ROWS {
        for (i, days) in tests.iter().enumerate() {
            compare_row(
                &format!("Test {} {name}", i + 1),
                paper[i],
                &format!("{:+.1} %", mean(&series(days, diff))),
            );
        }
    }
}

/// Table 2: equivalent traffic (EqT) reduction.
pub fn table2(seed: u64) {
    header("Table 2 — equivalent traffic (EqT)");
    // The peak-hour A/B gives the group-level EqT difference; the
    // fanout run exhibits the unit-economics mechanism.
    let seeds: Vec<u64> = day_seeds(seed).into_iter().take(3).collect();
    let config = fanout_config(DeliveryMode::RLive);
    let days = ab_days("table2", &[fanout_scenario()], &config, &seeds).remove(0);
    let eqt = series(&days, |r| r.eqt_pct);
    print_daily("EqT diff per day", &eqt);

    // Per-byte economics from a uniform fanout run (a one-world sweep).
    let r = sweep("table2-fanout", &[()], &[seed], |_, seed| {
        uniform_spec(seed, fanout_scenario(), config.clone())
    })
    .remove(0)
    .remove(0);
    let t = &r.test_traffic;
    let per_byte = t.equivalent_traffic(DEDICATED_UNIT_COST) / t.client_bytes().max(1) as f64;
    compare_head();
    compare_row(
        "evening EqT reduction (Test 1)",
        "-7.99 %",
        &format!("{:+.1} %", mean(&eqt)),
    );
    compare_row(
        &format!("per-byte EqT vs dedicated ({DEDICATED_UNIT_COST})"),
        &format!("< {DEDICATED_UNIT_COST}"),
        &format!("{per_byte:.3}"),
    );
    compare_row(
        "traffic expansion rate γ",
        "~7 in production",
        &format!("{:.2}", GAMMA(&r)),
    );
    println!(
        "\nnote: EqT falls once fan-out amortises backhaul (γ > ~4); the A/B's test \
         group also delivers more bits (higher bitrate), which EqT-per-watch-second \
         penalises."
    );
}

/// Fig 10's rows: resource, per-day delta, the paper's range and the
/// decimals printed.
const FIG10_ROWS: [(&str, AbMetric, &str, usize); 4] = [
    ("cpu", |r| r.energy_delta.0, "+0.58 to +0.74 pp", 2),
    ("memory", |r| r.energy_delta.1, "+0.21 to +0.22 pp", 2),
    ("temperature", |r| r.energy_delta.2, "+0.02 to +0.03 pp", 3),
    ("battery", |r| r.energy_delta.3, "+0.13 to +0.15 pp", 3),
];

/// Fig 10: client energy consumption deltas.
pub fn fig10(seed: u64) {
    header("Fig 10 — client energy consumption (test vs control)");
    let days = ab_days(
        "fig10",
        &[peak_scenario()],
        &peak_config(),
        &day_seeds(seed),
    )
    .remove(0);
    for (name, delta, ..) in FIG10_ROWS {
        print_daily(&format!("{name} delta (pp)"), &series(&days, delta));
    }
    compare_head();
    for (name, delta, paper, p) in FIG10_ROWS {
        let measured = mean(&series(&days, delta));
        compare_row(name, paper, &format!("{measured:+.p$} pp"));
    }
}
