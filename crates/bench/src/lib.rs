//! Shared helpers for the RLive experiment harness.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation; this library holds the experiment presets (scaled
//! scenario + system configuration pairs), seed-averaged A/B running,
//! and plain-text table/CSV output formatting.
//!
//! Performance is not measured here. [`perf`] holds only the primitives
//! the standalone `benchmark/` package builds on — a counting
//! allocator, a peak-RSS reader and a JSON value; see
//! `benchmark/README.md` for the harness itself.

use rlive::abtest::AbReport;
use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::GroupPolicy;
use rlive::Fleet;
use rlive_sim::SimDuration;
use rlive_workload::scenario::Scenario;

pub mod cli;
pub mod perf;
pub mod runner;

/// Default per-"day" seeds: the paper averages A/B metrics over daily
/// windows; we average over independent seeded runs.
pub const DAY_SEEDS: [u64; 7] = [101, 102, 103, 104, 105, 106, 107];

/// The laptop-scale experiment preset shared by the QoE experiments:
/// an evening-peak window with concentrated demand.
pub fn peak_scenario() -> Scenario {
    let mut s = Scenario::evening_peak().scaled(0.2);
    s.duration = SimDuration::from_secs(240);
    s.streams = 4;
    s.population.isps = 2;
    s.population.regions = 4;
    s.population.high_quality_fraction = 0.10;
    s
}

/// The system configuration matching [`peak_scenario`]: CDN sized so the
/// evening peak is contended (the paper's §7.1 setting).
pub fn peak_config() -> SystemConfig {
    SystemConfig {
        cdn_edge_mbps: 120,
        multi_source_after: SimDuration::from_secs(10),
        popularity_threshold: 2,
        ..SystemConfig::default()
    }
}

/// A healthy-CDN configuration for the §2.2 strawman characterisation:
/// ample capacity and negligible cross traffic, so degradations are
/// attributable purely to best-effort node behaviour.
pub fn healthy_cdn_config() -> SystemConfig {
    let mut cfg = peak_config();
    cfg.cdn_edge_mbps = 400;
    cfg.cdn_background_peak_frac = 0.05;
    cfg
}

/// The §7.2 two-tier setting: healthy CDN, small saturated relay pool,
/// single-source restricted to the high-quality tier, multi-source to
/// the weak one (set `multi_on_weak_tier` in the config).
pub fn two_tier_scenario() -> Scenario {
    let mut s = Scenario::evening_peak().scaled(0.25);
    s.duration = SimDuration::from_secs(240);
    s.streams = 3;
    s.population.count = 40;
    s.population.isps = 2;
    s.population.regions = 4;
    s.population.high_quality_fraction = 0.10;
    s
}

/// The high-fanout preset used for the traffic-economics experiments
/// (Table 2 mechanism, Fig 2b at saturation): popular streams, a small
/// relay pool and a scheduler strongly preferring consolidation.
pub fn fanout_scenario() -> Scenario {
    let mut s = Scenario::evening_peak();
    s.peak_viewers = 200;
    s.duration = SimDuration::from_secs(240);
    s.streams = 2;
    s.population.count = 40;
    s.population.isps = 2;
    s.population.regions = 2;
    s
}

/// Configuration matching [`fanout_scenario`].
pub fn fanout_config(mode: DeliveryMode) -> SystemConfig {
    let mut cfg = SystemConfig::for_mode(mode);
    cfg.cdn_edge_mbps = 200;
    cfg.multi_source_after = SimDuration::from_secs(8);
    cfg.popularity_threshold = 2;
    cfg.scheduler.back_to_cdn_cost = 5.0;
    cfg
}

/// The world seeds `base + d` for each offset `d`, wrapping at
/// `u64::MAX` so that every base a seed argument accepts runs its full
/// count of worlds.
pub fn offset_seeds(base: u64, offsets: impl IntoIterator<Item = u64>) -> Vec<u64> {
    offsets.into_iter().map(|d| base.wrapping_add(d)).collect()
}

/// Per-day A/B results for the daily-difference figures.
pub struct DailyDiffs {
    /// One report per seed ("day").
    pub days: Vec<AbReport>,
}

impl DailyDiffs {
    /// Runs one A/B world per seed as a [`Fleet`] (one pool cell per
    /// day); reports come back in seed order regardless of worker count.
    pub fn run(
        control: DeliveryMode,
        test: DeliveryMode,
        scenario: &Scenario,
        config: &SystemConfig,
        seeds: &[u64],
    ) -> Self {
        let policy = GroupPolicy::ab(control, test);
        let fleet = Fleet::seeded("daily-ab", scenario, config, &policy, seeds);
        let days = runner::run_fleet(fleet)
            .worlds
            .into_iter()
            .map(AbReport::from_run)
            .collect();
        DailyDiffs { days }
    }

    /// Mean of a per-day metric.
    pub fn mean(&self, f: impl Fn(&AbReport) -> f64) -> f64 {
        if self.days.is_empty() {
            return 0.0;
        }
        self.days.iter().map(&f).sum::<f64>() / self.days.len() as f64
    }

    /// The per-day series of a metric.
    pub fn series(&self, f: impl Fn(&AbReport) -> f64) -> Vec<f64> {
        self.days.iter().map(f).collect()
    }
}

// ---------------------------------------------------------------------
// Output formatting
// ---------------------------------------------------------------------

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Prints one paper-vs-measured comparison row.
pub fn compare_row(metric: &str, paper: &str, measured: &str) {
    println!("{metric:<38} {paper:>18} {measured:>18}");
}

/// Prints the paper-vs-measured table heading.
pub fn compare_head() {
    println!("{:<38} {:>18} {:>18}", "metric", "paper", "measured");
    println!("{}", "-".repeat(76));
}

/// Prints a `(x, y)` series as aligned CSV for plotting.
pub fn print_series(name: &str, points: &[(f64, f64)]) {
    println!("# {name}  (x,y)");
    for (x, y) in points {
        println!("{x:.4},{y:.6}");
    }
}

/// Prints a per-day difference series.
pub fn print_daily(name: &str, values: &[f64]) {
    print!("{name:<32}");
    for v in values {
        print!(" {v:+7.1}%");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let s = peak_scenario();
        assert!(s.peak_viewers > 50);
        assert_eq!(s.start_hour, 21.0);
        let cfg = peak_config();
        assert!(cfg.cdn_edge_mbps < healthy_cdn_config().cdn_edge_mbps);
    }

    #[test]
    fn offset_seeds_wrap_at_u64_max() {
        assert_eq!(offset_seeds(u64::MAX, 0..2), [u64::MAX, 0]);
        assert_eq!(offset_seeds(7, 0..3), [7, 8, 9]);
        assert_eq!(
            offset_seeds(2026, DAY_SEEDS),
            [2127, 2128, 2129, 2130, 2131, 2132, 2133]
        );
    }

    #[test]
    fn daily_diffs_statistics() {
        // Smoke-run two tiny days.
        let mut s = peak_scenario().scaled(0.3);
        s.duration = SimDuration::from_secs(45);
        let d = DailyDiffs::run(
            DeliveryMode::CdnOnly,
            DeliveryMode::RLive,
            &s,
            &peak_config(),
            &[1, 2],
        );
        assert_eq!(d.days.len(), 2);
        let series = d.series(|r| r.diff.bitrate_pct);
        assert_eq!(series.len(), 2);
        let mean = d.mean(|r| r.diff.bitrate_pct);
        assert!((mean - (series[0] + series[1]) / 2.0).abs() < 1e-9);
    }
}
