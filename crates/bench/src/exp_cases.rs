//! Case studies and discussion experiments: Fig 13 (RTM protocol
//! generality), Table 4 (FIFA World Cup burst) and the §7.4 fallback
//! threshold trade-off.
//!
//! Each experiment is a (variant × day) [`rlive_bench::sweep`].

use rlive::config::{DeliveryMode, SystemConfig, TransportProfile};
use rlive::qoe::GroupQoe;
use rlive::world::RunReport;
use rlive::WorldSpec;
use rlive_bench::metric::{BITRATE_BPS, CDN_FALLBACKS, E2E_MS, REBUFFERS, REBUFFER_MS, VIEWS};
use rlive_bench::{
    compare_head, compare_row, header, mean, offset_seeds, paired, peak_spec, print_variants,
    sweep, uniform_spec, Cell, Metric,
};
use rlive_sim::SimDuration;
use rlive_workload::scenario::Scenario;

/// Prints one compare row per `(metric, paper, f)`: the mean over the
/// days of `test`'s per-day difference from `base`, in %.
fn diff_rows(test: &[RunReport], base: &[RunReport], rows: &[(&str, &str, Metric)]) {
    compare_head();
    for &(label, paper, f) in rows {
        let diff = mean(&paired(test, base, f, GroupQoe::diff_pct));
        compare_row(label, paper, &format!("{diff:+.1} %"));
    }
}

/// Fig 13: RTM (WebRTC-based) protocol A/B against FLV.
pub fn fig13(seed: u64) {
    header("Fig 13 — protocol generality: RTM vs FLV (both under RLive)");
    let groups = sweep(
        "fig13",
        &[TransportProfile::Flv, TransportProfile::Rtm],
        &offset_seeds(seed, 0..4),
        |&transport, s| peak_spec(s, DeliveryMode::RLive, |c| c.transport = transport),
    );
    diff_rows(
        &groups[1],
        &groups[0],
        &[
            ("E2E latency (RTM vs FLV)", "~+1 %", E2E_MS),
            ("bitrate", "~unchanged", BITRATE_BPS),
            ("rebuffering", "~unchanged", REBUFFERS),
        ],
    );
}

fn fifa_spec(mode: DeliveryMode, seed: u64) -> WorldSpec {
    let mut scenario = Scenario::fifa_world_cup().scaled(0.15);
    scenario.duration = SimDuration::from_secs(240);
    scenario.population.isps = 2;
    scenario.population.regions = 4;
    let mut cfg = SystemConfig::for_mode(mode);
    cfg.cdn_edge_mbps = 150;
    cfg.multi_source_after = SimDuration::from_secs(8);
    cfg.popularity_threshold = 2;
    uniform_spec(seed, scenario, cfg)
}

/// Table 4: the 2022 FIFA World Cup mega-broadcast case study.
pub fn table4(seed: u64) {
    header("Table 4 — FIFA World Cup case study (RLive vs CDNs)");
    let groups = sweep(
        "table4",
        &[DeliveryMode::CdnOnly, DeliveryMode::RLive],
        &offset_seeds(seed, 0..3),
        |&mode, s| fifa_spec(mode, s),
    );
    diff_rows(
        &groups[1],
        &groups[0],
        &[
            ("#views", "+21.78 %", VIEWS),
            ("rebufferings", "-8.82 %", REBUFFERS),
            ("bitrate", "+1.72 %", BITRATE_BPS),
            ("E2E latency", "-4.75 %", E2E_MS),
        ],
    );
    println!(
        "\nnote: views diff at production scale reflects capacity headroom during the \
         surge; our scaled run shows the same direction when the CDN alone saturates."
    );
}

/// §7.4: fallback threshold trade-off (500 → 400 → 300 ms).
pub fn fallback_threshold(seed: u64) {
    header("§7.4 — fallback threshold trade-off");
    let thresholds = [300u64, 400, 500];
    let groups = sweep(
        "fallback",
        &thresholds,
        &offset_seeds(seed, 0..3),
        |&ms, s| {
            peak_spec(s, DeliveryMode::RLive, |c| {
                c.fallback_threshold = SimDuration::from_millis(ms)
            })
        },
    );
    print_variants(
        ("threshold", 12),
        72,
        &[
            ("rebuf/100s", 14, Cell::Fixed(2), REBUFFERS),
            ("rebuf ms/100s", 16, Cell::Fixed(0), REBUFFER_MS),
            ("E2E ms", 14, Cell::Fixed(0), E2E_MS),
            ("fallbacks", 12, Cell::Count, CDN_FALLBACKS),
        ],
        thresholds
            .iter()
            .map(|ms| format!("{ms:<9} ms"))
            .zip(groups),
    );
    println!(
        "\npaper: 500→400 ms costs only minor rebuffering; 300 ms degrades sharply. \
         Production uses 400 ms."
    );
}
