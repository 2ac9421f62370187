//! Quickstart: run a small RLive world and print its QoE report.
//!
//! ```sh
//! cargo run --release --example quickstart [seed]
//! ```
//!
//! Builds an evening-peak scenario at laptop scale, serves every viewer
//! through RLive's multi-source data plane, and prints the headline
//! quality-of-experience and traffic numbers.

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::{GroupPolicy, World};
use rlive_sim::SimDuration;
use rlive_workload::scenario::Scenario;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // A scaled-down evening peak: ~120 concurrent viewers, 4 streams,
    // 80 best-effort relays, 4 minutes of simulated time.
    let mut scenario = Scenario::evening_peak().scaled(0.2);
    scenario.duration = SimDuration::from_secs(240);
    scenario.streams = 4;
    scenario.population.isps = 2;
    scenario.population.regions = 4;

    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.cdn_edge_mbps = 140;
    cfg.multi_source_after = SimDuration::from_secs(10);
    cfg.popularity_threshold = 2;

    println!(
        "Running RLive: {} viewers peak, {} streams, {} best-effort nodes, {}s (seed {seed})",
        scenario.peak_viewers,
        scenario.streams,
        scenario.population.count,
        scenario.duration.as_secs_f64(),
    );

    let report = World::new(
        scenario,
        cfg,
        GroupPolicy::uniform(DeliveryMode::RLive),
        seed,
    )
    .run();

    print!("\n{}", rlive::report::format_full(&report));
}
