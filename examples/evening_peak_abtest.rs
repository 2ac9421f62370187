//! The §7.1 evening-peak A/B test, scaled to a laptop.
//!
//! ```sh
//! cargo run --release --example evening_peak_abtest [seed]
//! ```
//!
//! Splits viewers by user-id hash into a CDN-only control group and an
//! RLive test group inside one shared world (the paper's methodology),
//! then prints the relative QoE differences Fig 9 and Table 2 report.

use rlive::abtest::AbReport;
use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::GroupPolicy;
use rlive::WorldSpec;
use rlive_sim::SimDuration;
use rlive_workload::scenario::Scenario;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    let mut spec = WorldSpec {
        seed,
        scenario: Scenario::evening_peak().scaled(0.2),
        config: SystemConfig::default(),
        policy: GroupPolicy::ab(DeliveryMode::CdnOnly, DeliveryMode::RLive),
        schedule: Vec::new(),
    };
    spec.scenario.duration = SimDuration::from_secs(240);
    spec.scenario.streams = 4;
    spec.scenario.population.isps = 2;
    spec.scenario.population.regions = 4;
    spec.config.cdn_edge_mbps = 130;
    spec.config.multi_source_after = SimDuration::from_secs(10);
    spec.config.popularity_threshold = 2;

    println!("Evening-peak A/B: control = CDN-only, test = RLive (seed {seed})");
    let report = AbReport::from_run(spec.run());

    let c = &report.run.control_qoe;
    let t = &report.run.test_qoe;
    println!("\n              control      test");
    println!("views         {:>7}   {:>7}", c.views, t.views);
    println!(
        "rebuf/100s    {:>7.2}   {:>7.2}",
        c.rebuffers_per_100s.mean(),
        t.rebuffers_per_100s.mean()
    );
    println!(
        "bitrate Mbps  {:>7.2}   {:>7.2}",
        c.bitrate_bps.mean() / 1e6,
        t.bitrate_bps.mean() / 1e6
    );
    println!(
        "E2E ms        {:>7.0}   {:>7.0}",
        c.e2e_latency_ms.mean(),
        t.e2e_latency_ms.mean()
    );

    println!("\n=== Test vs control (paper Fig 9 / Table 2) ===");
    println!(
        "rebuffering        {:+.1} %   (paper: about -15 %)",
        report.diff.rebuffer_events_pct
    );
    println!(
        "bitrate            {:+.1} %   (paper: about +10.5 %)",
        report.diff.bitrate_pct
    );
    println!(
        "E2E latency        {:+.1} %   (paper: +4 to +6 %)",
        report.diff.e2e_latency_pct
    );
    println!(
        "equivalent traffic {:+.1} %   (paper: about -8 %)",
        report.eqt_pct
    );
    println!(
        "view split         {:+.2} %  (paper: ~0.01 %, Fig 8)",
        report.view_split_pct
    );
    let (cpu, mem, temp, bat) = report.energy_delta;
    println!("\n=== Client energy deltas (paper Fig 10) ===");
    println!("cpu {cpu:+.2} pp   mem {mem:+.2} pp   temp {temp:+.3} pp   battery {bat:+.3} pp");
}
