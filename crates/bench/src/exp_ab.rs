//! The §7.1 large-scale A/B experiments: Fig 8 (split fairness), Fig 9
//! (QoE), Table 2 (equivalent traffic) and Fig 10 (energy).

use rlive::config::DeliveryMode;
use rlive::world::GroupPolicy;
use rlive::Fleet;
use rlive_bench::{
    compare_head, compare_row, fanout_config, fanout_scenario, header, offset_seeds, peak_config,
    peak_scenario, print_daily, runner, DailyDiffs, DAY_SEEDS,
};
use rlive_workload::scenario::Scenario;

fn day_seeds(seed: u64) -> Vec<u64> {
    offset_seeds(seed, DAY_SEEDS)
}

/// Fig 8: views and viewers participating in the A/B tests — the
/// hash-based split must be unbiased.
pub fn fig8(seed: u64) {
    header("Fig 8 — A/B split fairness (views / viewers per group)");
    let seeds = day_seeds(seed);
    let d = DailyDiffs::run(
        DeliveryMode::CdnOnly,
        DeliveryMode::RLive,
        &peak_scenario(),
        &peak_config(),
        &seeds,
    );
    let views = d.series(|r| r.view_split_pct);
    let viewers = d.series(|r| {
        let c = r.run.control_qoe.viewers.max(1) as f64;
        let t = r.run.test_qoe.viewers as f64;
        (t - c) / c * 100.0
    });
    print_daily("views diff per day", &views);
    print_daily("viewers diff per day", &viewers);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    compare_head();
    compare_row(
        "mean |views diff|",
        "~0.01 % at 1e9 views",
        &format!("{:+.2} % at ~1e2 views", mean(&views)),
    );
    compare_row(
        "mean |viewers diff|",
        "~0.01 %",
        &format!("{:+.2} %", mean(&viewers)),
    );
    println!("\nnote: the split is binomial; expected |diff| scales as 1/sqrt(views).");
}

/// Fig 9: the two A/B tests' QoE differences, day by day.
pub fn fig9(seed: u64) {
    header("Fig 9 — A/B QoE results (test vs control, daily)");
    let seeds = day_seeds(seed);

    println!("\n--- Test 1: evening peak, RLive vs CDN-only ---");
    let t1 = DailyDiffs::run(
        DeliveryMode::CdnOnly,
        DeliveryMode::RLive,
        &peak_scenario(),
        &peak_config(),
        &seeds,
    );
    print_daily(
        "rebuffering diff",
        &t1.series(|r| r.diff.rebuffer_events_pct),
    );
    print_daily("bitrate diff", &t1.series(|r| r.diff.bitrate_pct));
    print_daily("E2E latency diff", &t1.series(|r| r.diff.e2e_latency_pct));

    println!("\n--- Test 2: noon window (double-peak policy vs evening-only) ---");
    let mut noon = Scenario::noon_peak().scaled(0.2);
    noon.duration = peak_scenario().duration;
    noon.streams = 4;
    noon.population.isps = 2;
    noon.population.regions = 4;
    let t2 = DailyDiffs::run(
        DeliveryMode::CdnOnly,
        DeliveryMode::RLive,
        &noon,
        &peak_config(),
        &seeds,
    );
    print_daily(
        "rebuffering diff",
        &t2.series(|r| r.diff.rebuffer_events_pct),
    );
    print_daily("bitrate diff", &t2.series(|r| r.diff.bitrate_pct));
    print_daily("E2E latency diff", &t2.series(|r| r.diff.e2e_latency_pct));

    compare_head();
    compare_row(
        "Test 1 rebuffering",
        "about -15 %",
        &format!("{:+.1} %", t1.mean(|r| r.diff.rebuffer_events_pct)),
    );
    compare_row(
        "Test 2 rebuffering",
        "about -10 %",
        &format!("{:+.1} %", t2.mean(|r| r.diff.rebuffer_events_pct)),
    );
    compare_row(
        "Test 1 bitrate",
        "about +10.5 %",
        &format!("{:+.1} %", t1.mean(|r| r.diff.bitrate_pct)),
    );
    compare_row(
        "Test 2 bitrate",
        "about +7 %",
        &format!("{:+.1} %", t2.mean(|r| r.diff.bitrate_pct)),
    );
    compare_row(
        "Test 1 E2E latency",
        "+4 to +6 %",
        &format!("{:+.1} %", t1.mean(|r| r.diff.e2e_latency_pct)),
    );
    compare_row(
        "Test 2 E2E latency",
        "+4 to +6 %",
        &format!("{:+.1} %", t2.mean(|r| r.diff.e2e_latency_pct)),
    );
}

/// Table 2: equivalent traffic (EqT) reduction.
pub fn table2(seed: u64) {
    header("Table 2 — equivalent traffic (EqT)");
    // The peak-hour A/B gives the group-level EqT difference; the
    // fanout run exhibits the unit-economics mechanism.
    let seeds: Vec<u64> = day_seeds(seed).into_iter().take(3).collect();
    let d = DailyDiffs::run(
        DeliveryMode::CdnOnly,
        DeliveryMode::RLive,
        &fanout_scenario(),
        &fanout_config(DeliveryMode::RLive),
        &seeds,
    );
    let eqt = d.series(|r| r.eqt_pct);
    print_daily("EqT diff per day", &eqt);

    // Per-byte economics from a uniform fanout run (a one-world fleet).
    let r = runner::run_fleet(Fleet::seeded(
        "table2-fanout",
        &fanout_scenario(),
        &fanout_config(DeliveryMode::RLive),
        &GroupPolicy::uniform(DeliveryMode::RLive),
        &[seed],
    ))
    .worlds
    .remove(0);
    let t = &r.test_traffic;
    let gamma = t.expansion_rate().unwrap_or(0.0);
    let per_byte = t.equivalent_traffic(1.35) / t.client_bytes().max(1) as f64;
    compare_head();
    compare_row(
        "evening EqT reduction (Test 1)",
        "-7.99 %",
        &format!("{:+.1} %", d.mean(|x| x.eqt_pct)),
    );
    compare_row(
        "per-byte EqT vs dedicated (1.35)",
        "< 1.35",
        &format!("{per_byte:.3}"),
    );
    compare_row(
        "traffic expansion rate γ",
        "~7 in production",
        &format!("{gamma:.2}"),
    );
    println!(
        "\nnote: EqT falls once fan-out amortises backhaul (γ > ~4); the A/B's test \
         group also delivers more bits (higher bitrate), which EqT-per-watch-second \
         penalises."
    );
}

/// Fig 10: client energy consumption deltas.
pub fn fig10(seed: u64) {
    header("Fig 10 — client energy consumption (test vs control)");
    let seeds = day_seeds(seed);
    let d = DailyDiffs::run(
        DeliveryMode::CdnOnly,
        DeliveryMode::RLive,
        &peak_scenario(),
        &peak_config(),
        &seeds,
    );
    print_daily("cpu delta (pp)", &d.series(|r| r.energy_delta.0));
    print_daily("memory delta (pp)", &d.series(|r| r.energy_delta.1));
    print_daily("temperature delta (pp)", &d.series(|r| r.energy_delta.2));
    print_daily("battery delta (pp)", &d.series(|r| r.energy_delta.3));
    compare_head();
    compare_row(
        "cpu",
        "+0.58 to +0.74 pp",
        &format!("{:+.2} pp", d.mean(|r| r.energy_delta.0)),
    );
    compare_row(
        "memory",
        "+0.21 to +0.22 pp",
        &format!("{:+.2} pp", d.mean(|r| r.energy_delta.1)),
    );
    compare_row(
        "temperature",
        "+0.02 to +0.03 pp",
        &format!("{:+.3} pp", d.mean(|r| r.energy_delta.2)),
    );
    compare_row(
        "battery",
        "+0.13 to +0.15 pp",
        &format!("{:+.3} pp", d.mean(|r| r.energy_delta.3)),
    );
}
