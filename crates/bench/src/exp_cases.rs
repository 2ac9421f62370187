//! Case studies and discussion experiments: Fig 13 (RTM protocol
//! generality), Table 4 (FIFA World Cup burst) and the §7.4 fallback
//! threshold trade-off.
//!
//! Each experiment is a (variant × day) [`Fleet`] whose per-world
//! reports come back in spec-index order (see `rlive_bench::runner`).

use rlive::config::{DeliveryMode, SystemConfig, TransportProfile};
use rlive::qoe::GroupQoe;
use rlive::world::GroupPolicy;
use rlive::{Fleet, WorldSpec};
use rlive_bench::{
    compare_head, compare_row, header, offset_seeds, peak_config, peak_scenario, runner,
};
use rlive_sim::SimDuration;
use rlive_workload::scenario::Scenario;

/// Fig 13: RTM (WebRTC-based) protocol A/B against FLV.
pub fn fig13(seed: u64) {
    header("Fig 13 — protocol generality: RTM vs FLV (both under RLive)");
    let days = offset_seeds(seed, 0..4);
    // One world per (day, transport): FLV first, RTM second.
    let fleet = Fleet::product(
        "fig13",
        &days,
        &[TransportProfile::Flv, TransportProfile::Rtm],
        |&s, &transport| {
            let mut cfg = peak_config();
            cfg.mode = DeliveryMode::RLive;
            cfg.transport = transport;
            WorldSpec {
                seed: s,
                scenario: peak_scenario(),
                config: cfg,
                policy: GroupPolicy::uniform(DeliveryMode::RLive),
                schedule: Vec::new(),
            }
        },
    );
    let reports = runner::run_fleet(fleet).worlds;
    let mut lat = Vec::new();
    let mut rebuf = Vec::new();
    let mut bitrate = Vec::new();
    for day in reports.chunks(2) {
        let (flv, rtm) = (&day[0], &day[1]);
        lat.push(GroupQoe::diff_pct(
            rtm.test_qoe.e2e_latency_ms.mean(),
            flv.test_qoe.e2e_latency_ms.mean(),
        ));
        rebuf.push(GroupQoe::diff_pct(
            rtm.test_qoe.rebuffers_per_100s.mean(),
            flv.test_qoe.rebuffers_per_100s.mean(),
        ));
        bitrate.push(GroupQoe::diff_pct(
            rtm.test_qoe.bitrate_bps.mean(),
            flv.test_qoe.bitrate_bps.mean(),
        ));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    compare_head();
    compare_row(
        "E2E latency (RTM vs FLV)",
        "~+1 %",
        &format!("{:+.1} %", mean(&lat)),
    );
    compare_row(
        "bitrate",
        "~unchanged",
        &format!("{:+.1} %", mean(&bitrate)),
    );
    compare_row(
        "rebuffering",
        "~unchanged",
        &format!("{:+.1} %", mean(&rebuf)),
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
    WorldSpec {
        seed,
        scenario,
        config: cfg,
        policy: GroupPolicy::uniform(mode),
        schedule: Vec::new(),
    }
}

/// Table 4: the 2022 FIFA World Cup mega-broadcast case study.
pub fn table4(seed: u64) {
    header("Table 4 — FIFA World Cup case study (RLive vs CDNs)");
    let days = offset_seeds(seed, 0..3);
    let fleet = Fleet::product(
        "table4",
        &days,
        &[DeliveryMode::CdnOnly, DeliveryMode::RLive],
        |&s, &mode| fifa_spec(mode, s),
    );
    let reports = runner::run_fleet(fleet).worlds;
    let mut views = Vec::new();
    let mut rebuf = Vec::new();
    let mut bitrate = Vec::new();
    let mut lat = Vec::new();
    for day in reports.chunks(2) {
        let (cdn, rlive) = (&day[0], &day[1]);
        views.push(GroupQoe::diff_pct(
            rlive.test_qoe.views as f64,
            cdn.test_qoe.views as f64,
        ));
        rebuf.push(GroupQoe::diff_pct(
            rlive.test_qoe.rebuffers_per_100s.mean(),
            cdn.test_qoe.rebuffers_per_100s.mean(),
        ));
        bitrate.push(GroupQoe::diff_pct(
            rlive.test_qoe.bitrate_bps.mean(),
            cdn.test_qoe.bitrate_bps.mean(),
        ));
        lat.push(GroupQoe::diff_pct(
            rlive.test_qoe.e2e_latency_ms.mean(),
            cdn.test_qoe.e2e_latency_ms.mean(),
        ));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    compare_head();
    compare_row("#views", "+21.78 %", &format!("{:+.1} %", mean(&views)));
    compare_row(
        "rebufferings",
        "-8.82 %",
        &format!("{:+.1} %", mean(&rebuf)),
    );
    compare_row("bitrate", "+1.72 %", &format!("{:+.1} %", mean(&bitrate)));
    compare_row("E2E latency", "-4.75 %", &format!("{:+.1} %", mean(&lat)));
    println!(
        "\nnote: views diff at production scale reflects capacity headroom during the \
         surge; our scaled run shows the same direction when the CDN alone saturates."
    );
}

/// §7.4: fallback threshold trade-off (500 → 400 → 300 ms).
pub fn fallback_threshold(seed: u64) {
    header("§7.4 — fallback threshold trade-off");
    println!(
        "{:<12} {:>14} {:>16} {:>14} {:>12}",
        "threshold", "rebuf/100s", "rebuf ms/100s", "E2E ms", "fallbacks"
    );
    println!("{}", "-".repeat(72));
    let days = 3u64;
    // The full (threshold × day) grid, thresholds outer-major.
    let day_seeds = offset_seeds(seed, 0..days);
    let fleet = Fleet::product(
        "fallback",
        &[300u64, 400, 500],
        &day_seeds,
        |&threshold_ms, &s| {
            let mut cfg = peak_config();
            cfg.mode = DeliveryMode::RLive;
            cfg.fallback_threshold = SimDuration::from_millis(threshold_ms);
            WorldSpec {
                seed: s,
                scenario: peak_scenario(),
                config: cfg,
                policy: GroupPolicy::uniform(DeliveryMode::RLive),
                schedule: Vec::new(),
            }
        },
    );
    let reports = runner::run_fleet(fleet).worlds;
    let mut results = Vec::new();
    for (group, reports) in reports.chunks(days as usize).enumerate() {
        let threshold_ms = [300u64, 400, 500][group];
        let mut rebuf = 0.0;
        let mut dur = 0.0;
        let mut e2e = 0.0;
        let mut fallbacks = 0u64;
        for r in reports {
            rebuf += r.test_qoe.rebuffers_per_100s.mean();
            dur += r.test_qoe.rebuffer_ms_per_100s.mean();
            e2e += r.test_qoe.e2e_latency_ms.mean();
            fallbacks += r.test_qoe.cdn_fallbacks;
        }
        let n = days as f64;
        println!(
            "{threshold_ms:<9} ms {:>14.2} {:>16.0} {:>14.0} {:>12}",
            rebuf / n,
            dur / n,
            e2e / n,
            fallbacks / days
        );
        results.push((threshold_ms, rebuf / n));
    }
    println!(
        "\npaper: 500→400 ms costs only minor rebuffering; 300 ms degrades sharply. \
         Production uses 400 ms."
    );
    let _ = results;
}
