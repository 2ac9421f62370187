//! Shared helpers for the RLive experiment harness.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation; this library holds the experiment presets (scaled
//! scenario + system configuration pairs), the one (variant × day)
//! [`sweep`] every paper row runs through, the per-world [`metric`]
//! table its numbers are read from, and plain-text table/CSV output
//! formatting.
//!
//! Performance is not measured here. [`perf`] holds only the primitives
//! the standalone `benchmark/` package builds on — a counting
//! allocator, a peak-RSS reader and a JSON value; see
//! `benchmark/README.md` for the harness itself.

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::{GroupPolicy, RunReport, World};
use rlive::{Fleet, WorldSpec};
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

/// One world whose every viewer runs `config.mode`.
pub fn uniform_spec(seed: u64, scenario: Scenario, config: SystemConfig) -> WorldSpec {
    WorldSpec {
        seed,
        scenario,
        policy: GroupPolicy::uniform(config.mode),
        config,
        schedule: Vec::new(),
    }
}

/// One [`peak_scenario`] world on [`peak_config`] whose every viewer
/// runs `mode`, after the caller's edit to the config.
pub fn peak_spec(seed: u64, mode: DeliveryMode, edit: impl FnOnce(&mut SystemConfig)) -> WorldSpec {
    let mut config = peak_config();
    config.mode = mode;
    edit(&mut config);
    uniform_spec(seed, peak_scenario(), config)
}

/// One [`two_tier_scenario`] world whose every viewer runs `mode`, with
/// multi-source on the weak tier. The CDN is healthy, as in the §2.2
/// strawman characterisation: ample capacity and negligible cross
/// traffic, so degradations are attributable purely to best-effort node
/// behaviour.
pub fn two_tier_spec(seed: u64, mode: DeliveryMode) -> WorldSpec {
    let mut config = peak_config();
    config.cdn_edge_mbps = 400;
    config.cdn_background_peak_frac = 0.05;
    config.mode = mode;
    config.multi_on_weak_tier = true;
    uniform_spec(seed, two_tier_scenario(), config)
}

/// The 60 s, 10 %-scale evening-peak RLive world that `trace` and `obs`
/// look inside, after the caller's edit to its config. A `stream`
/// filter past the scenario's last stream is an error: it would select
/// nothing.
pub fn small_world(
    seed: u64,
    stream: Option<u64>,
    edit: impl FnOnce(&mut SystemConfig),
) -> Result<World, String> {
    let mut scenario = Scenario::evening_peak().scaled(0.1);
    scenario.duration = SimDuration::from_secs(60);
    scenario.streams = 4;
    if let Some(s) = stream.filter(|&s| s >= scenario.streams as u64) {
        let last = scenario.streams - 1;
        return Err(format!(
            "'--stream {s}' is out of range: the world has streams 0 to {last}"
        ));
    }
    let mut config = SystemConfig::for_mode(DeliveryMode::RLive);
    config.multi_source_after = SimDuration::from_secs(5);
    config.popularity_threshold = 1;
    config.cdn_edge_mbps = 140;
    edit(&mut config);
    let policy = GroupPolicy::uniform(DeliveryMode::RLive);
    Ok(World::new(scenario, config, policy, seed))
}

/// Runs one world per (variant, day) as one variant-major [`Fleet`] on
/// the shared pool. Group `i` holds variant `i`'s reports in day order.
/// Each world is a pure function of its [`WorldSpec`], so the order the
/// grid is laid out in changes no number.
pub fn sweep<V>(
    label: &str,
    variants: &[V],
    days: &[u64],
    spec: impl Fn(&V, u64) -> WorldSpec,
) -> Vec<Vec<RunReport>> {
    let fleet = Fleet::product(label, variants, days, |v, &seed| spec(v, seed));
    let mut worlds = runner::run_fleet(fleet).worlds.into_iter();
    variants
        .iter()
        .map(|_| worlds.by_ref().take(days.len()).collect())
        .collect()
}

// ---------------------------------------------------------------------
// Per-world metrics
// ---------------------------------------------------------------------

/// A per-world number, read from one [`RunReport`].
pub type Metric = fn(&RunReport) -> f64;

/// The per-world metric table. Every entry reads the test group, which
/// is the whole audience of a uniform world.
pub mod metric {
    use super::Metric;

    /// Rebuffer events per 100 s of watch time.
    pub const REBUFFERS: Metric = |r| r.test_qoe.rebuffers_per_100s.mean();
    /// Rebuffering milliseconds per 100 s of watch time.
    pub const REBUFFER_MS: Metric = |r| r.test_qoe.rebuffer_ms_per_100s.mean();
    /// Deadline-skipped frames per 100 s of watch time.
    pub const SKIPS: Metric = |r| r.test_qoe.skips_per_100s.mean();
    /// Playback disruptions per 100 s: stalls plus skipped frames (a skip
    /// is the player trading a stall for a visible glitch).
    pub const DISRUPTIONS: Metric = |r| REBUFFERS(r) + SKIPS(r);
    /// Retransmissions per 100 s of watch time.
    pub const RETX: Metric = |r| r.test_qoe.retx_per_100s.mean();
    /// Mean bitrate in bit/s.
    pub const BITRATE_BPS: Metric = |r| r.test_qoe.bitrate_bps.mean();
    /// Mean bitrate in Mbit/s.
    pub const BITRATE_MBPS: Metric = |r| BITRATE_BPS(r) / 1e6;
    /// Mean end-to-end latency in milliseconds.
    pub const E2E_MS: Metric = |r| r.test_qoe.e2e_latency_ms.mean();
    /// Number of views.
    pub const VIEWS: Metric = |r| r.test_qoe.views as f64;
    /// Number of fallbacks to the CDN.
    pub const CDN_FALLBACKS: Metric = |r| r.test_qoe.cdn_fallbacks as f64;
    /// Fraction of recommended candidates that failed their probe.
    pub const INVALID_CANDIDATES: Metric = |r| r.invalid_candidate_fraction;
    /// Traffic expansion rate γ (0 with no dedicated backhaul).
    pub const GAMMA: Metric = |r| r.test_traffic.expansion_rate().unwrap_or(0.0);
}

/// Left-to-right mean of a series.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The per-day series of a metric.
pub fn series<T>(days: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    days.iter().map(f).collect()
}

/// The per-day series `diff(f(a), f(b))` over two groups' days.
pub fn paired(a: &[RunReport], b: &[RunReport], f: Metric, diff: fn(f64, f64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| diff(f(a), f(b))).collect()
}

/// How a per-variant table prints a column's day mean.
#[derive(Clone, Copy)]
pub enum Cell {
    /// With this many decimals.
    Fixed(usize),
    /// A fraction as a percentage with this many decimals and a `%`.
    Percent(usize),
    /// A count: the integer quotient of the day total by the day count.
    Count,
}

impl Cell {
    /// The cell's text for one variant's per-day series.
    fn text(self, days: &[f64]) -> String {
        match self {
            Cell::Fixed(p) => format!("{:.p$}", mean(days)),
            Cell::Percent(p) => format!("{:.p$}%", mean(days) * 100.0),
            Cell::Count => {
                (days.iter().map(|&x| x as u64).sum::<u64>() / days.len() as u64).to_string()
            }
        }
    }
}

/// One column of a per-variant table: heading, width, cell and metric.
pub type Column = (&'static str, usize, Cell, Metric);

/// Prints one row per variant: a heading row (the label column `label.1`
/// wide, then each column right-aligned), a rule of `rule` dashes, then
/// each variant's label and its days' metrics.
pub fn print_variants<L: std::fmt::Display>(
    label: (&str, usize),
    rule: usize,
    columns: &[Column],
    rows: impl IntoIterator<Item = (L, Vec<RunReport>)>,
) {
    let (head, width) = label;
    print!("{head:<width$}");
    for (head, w, ..) in columns {
        print!(" {head:>w$}");
    }
    println!("\n{}", "-".repeat(rule));
    for (label, days) in rows {
        print!("{label:<width$}");
        for &(_, w, cell, metric) in columns {
            print!(" {:>w$}", cell.text(&series(&days, metric)));
        }
        println!();
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
        let healthy = two_tier_spec(1, DeliveryMode::RLive).config;
        assert!(cfg.cdn_edge_mbps < healthy.cdn_edge_mbps);
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
    fn sweep_is_variant_major_and_grid_order_changes_no_report() {
        let mut scenario = peak_scenario().scaled(0.3);
        scenario.duration = SimDuration::from_secs(45);
        let modes = [DeliveryMode::CdnOnly, DeliveryMode::RLive];
        let days = [1, 2];
        let spec = |&mode: &DeliveryMode, seed| WorldSpec {
            scenario: scenario.clone(),
            ..peak_spec(seed, mode, |_| {})
        };
        let groups = sweep("sweep-test", &modes, &days, spec);
        // The same worlds laid out day-major.
        let day_major = runner::run_fleet(Fleet::product("day-major", &days, &modes, |&s, m| {
            spec(m, s)
        }))
        .worlds;
        let debug = |r: &RunReport| format!("{r:?}");
        assert_eq!(groups.len(), modes.len());
        for (v, group) in groups.iter().enumerate() {
            assert_eq!(group.len(), days.len());
            for (d, report) in group.iter().enumerate() {
                assert_eq!(debug(report), debug(&day_major[d * modes.len() + v]));
            }
        }
        // Non-vacuous: every cell of the grid is a different world.
        assert_ne!(debug(&groups[0][0]), debug(&groups[1][0]));
        assert_ne!(debug(&groups[0][0]), debug(&groups[0][1]));
    }

    #[test]
    fn cells_print_as_the_hand_written_rows_did() {
        // A count is the integer quotient of the day total; a fixed cell
        // would round the mean instead.
        assert_eq!(Cell::Count.text(&[1.0, 2.0, 2.0]), "1");
        assert_eq!(Cell::Fixed(0).text(&[1.0, 2.0, 2.0]), "2");
        // `{:>w$}` of a percent cell is `{:>(w-1).p}%` of the percentage,
        // also when the number overflows the width.
        for x in [0.0, 0.953, 0.5 + 1e-12, 1e30] {
            let cell = format!("{:>16}", Cell::Percent(1).text(&[x]));
            assert_eq!(cell, format!("{:>15.1}%", x * 100.0));
        }
    }
}
