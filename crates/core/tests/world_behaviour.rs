//! Behavioural tests of the assembled world, exercised through the
//! public API only (moved out of `world.rs` during the actor-module
//! decomposition).

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::{GroupPolicy, RunReport, World};
use rlive::ScriptedEvent;
use rlive_sim::{SimDuration, SimTime};
use rlive_workload::scenario::Scenario;

fn tiny_scenario() -> Scenario {
    let mut s = Scenario::evening_peak().scaled(0.1);
    s.duration = SimDuration::from_secs(90);
    s.streams = 4;
    s
}

fn run(mode: DeliveryMode, seed: u64) -> RunReport {
    let mut cfg = SystemConfig::for_mode(mode);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    // Scale CDN capacity down with the scenario.
    cfg.cdn_edge_mbps = 140;
    World::new(tiny_scenario(), cfg, GroupPolicy::uniform(mode), seed).run()
}
#[test]
fn cdn_only_world_plays_video() {
    let report = run(DeliveryMode::CdnOnly, 1);
    assert!(
        report.test_qoe.views > 10,
        "views {}",
        report.test_qoe.views
    );
    assert!(report.test_qoe.watch_secs > 100.0);
    assert!(report.test_qoe.bitrate_bps.mean() > 500_000.0);
    assert!(report.test_traffic.dedicated_serving > 0);
    assert_eq!(report.test_traffic.best_effort_serving, 0);
}

#[test]
fn rlive_world_offloads_to_best_effort() {
    let report = run(DeliveryMode::RLive, 2);
    assert!(report.test_qoe.views > 10);
    assert!(
        report.test_traffic.best_effort_serving > 0,
        "no best-effort traffic"
    );
    assert!(report.test_traffic.dedicated_backhaul > 0);
    // Client bytes should be mostly best-effort.
    let be = report.test_traffic.best_effort_serving as f64;
    let total = report.test_traffic.client_bytes() as f64;
    assert!(be / total > 0.2, "offload share {}", be / total);
}

#[test]
fn rlive_reduces_cdn_load_vs_cdn_only() {
    let cdn_only = run(DeliveryMode::CdnOnly, 3);
    let rlive = run(DeliveryMode::RLive, 3);
    assert!(
        rlive.test_traffic.dedicated_serving < cdn_only.test_traffic.dedicated_serving,
        "rlive {} vs cdn {}",
        rlive.test_traffic.dedicated_serving,
        cdn_only.test_traffic.dedicated_serving
    );
}

#[test]
fn expansion_rates_positive_under_rlive() {
    let report = run(DeliveryMode::RLive, 4);
    assert!(
        !report.relay_expansion_rates.is_empty(),
        "no relays carried traffic"
    );
    for &g in &report.relay_expansion_rates {
        assert!(g > 0.0);
    }
}

#[test]
fn ab_split_is_fair_and_differentiated() {
    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = 140;
    let report = World::new(
        tiny_scenario(),
        cfg,
        GroupPolicy::ab(DeliveryMode::CdnOnly, DeliveryMode::RLive),
        5,
    )
    .run();
    // Both groups should have comparable view counts (hash split).
    let c = report.control_qoe.views as f64;
    let t = report.test_qoe.views as f64;
    assert!(c > 0.0 && t > 0.0);
    assert!((c / t - 1.0).abs() < 1.2, "imbalance {c} vs {t}");
    // Only the test group generates best-effort traffic.
    assert_eq!(report.control_traffic.best_effort_serving, 0);
    assert!(report.test_traffic.best_effort_serving > 0);
}

#[test]
fn deterministic_given_seed() {
    let a = run(DeliveryMode::RLive, 7);
    let b = run(DeliveryMode::RLive, 7);
    assert_eq!(a.test_qoe.views, b.test_qoe.views);
    assert_eq!(
        a.test_traffic.best_effort_serving,
        b.test_traffic.best_effort_serving
    );
    assert_eq!(a.scheduler_requests, b.scheduler_requests);
}

#[test]
fn scheduler_sees_requests() {
    let report = run(DeliveryMode::RLive, 8);
    assert!(report.scheduler_requests > 0);
    assert!(report.scheduler_latency_ms.len() > 10);
}

#[test]
fn single_source_stays_on_high_quality_tier() {
    let mut cfg = SystemConfig::for_mode(DeliveryMode::SingleSource);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = 140;
    let mut scenario = tiny_scenario();
    scenario.population.high_quality_fraction = 0.10;
    let report = World::new(
        scenario,
        cfg,
        GroupPolicy::uniform(DeliveryMode::SingleSource),
        21,
    )
    .run();
    // Only a handful of relays (the HQ tier) may carry traffic.
    let hq_count = (
        report.relay_expansion_rates.len(),
        report.relay_subscriber_counts.len(),
    );
    assert!(hq_count.1 <= 6, "too many relays used: {hq_count:?}");
}

#[test]
fn weak_tier_restriction_excludes_hq_nodes() {
    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = 140;
    cfg.multi_on_weak_tier = true;
    let mut scenario = tiny_scenario();
    scenario.population.high_quality_fraction = 0.10;
    let report = World::new(scenario, cfg, GroupPolicy::uniform(DeliveryMode::RLive), 22).run();
    // Weak-tier relays have small capacities; with HQ excluded the
    // subscriber fan-out spreads over many relays.
    assert!(report.test_traffic.best_effort_serving > 0);
}

#[test]
fn dns_bypass_reduces_recovery_latency_effects() {
    let mut base = SystemConfig::for_mode(DeliveryMode::RLive);
    base.multi_source_after = SimDuration::from_secs(5);
    base.popularity_threshold = 1;
    base.cdn_edge_mbps = 140;
    let mut no_bypass = base.clone();
    no_bypass.dns_bypass = false;
    let with_dns = World::new(
        tiny_scenario(),
        base,
        GroupPolicy::uniform(DeliveryMode::RLive),
        23,
    )
    .run();
    let without = World::new(
        tiny_scenario(),
        no_bypass,
        GroupPolicy::uniform(DeliveryMode::RLive),
        23,
    )
    .run();
    // Both play; disabling the bypass cannot help QoE.
    assert!(with_dns.test_qoe.watch_secs > 50.0);
    assert!(without.test_qoe.watch_secs > 50.0);
}

#[test]
fn gamma_series_populated_for_rlive() {
    let report = run(DeliveryMode::RLive, 24);
    assert!(
        !report.gamma_over_time.is_empty(),
        "no gamma samples recorded"
    );
    for &(t, g) in &report.gamma_over_time {
        assert!(t >= 0.0 && g >= 0.0);
    }
}

#[test]
fn chunked_forwarding_degrades_qoe() {
    let mut frame_level = SystemConfig::for_mode(DeliveryMode::RLive);
    frame_level.multi_source_after = SimDuration::from_secs(5);
    frame_level.popularity_threshold = 1;
    frame_level.cdn_edge_mbps = 140;
    let mut chunked = frame_level.clone();
    chunked.chunk_frames = Some(60);
    let a = World::new(
        tiny_scenario(),
        frame_level,
        GroupPolicy::uniform(DeliveryMode::RLive),
        26,
    )
    .run();
    let b = World::new(
        tiny_scenario(),
        chunked,
        GroupPolicy::uniform(DeliveryMode::RLive),
        26,
    )
    .run();
    // 2-second accumulation at every relay must hurt QoE: stalls or
    // bitrate, one of them gives (§5.1's head-of-line argument).
    let a_score = a.test_qoe.rebuffers_per_100s.mean() - a.test_qoe.bitrate_bps.mean() / 1e6;
    let b_score = b.test_qoe.rebuffers_per_100s.mean() - b.test_qoe.bitrate_bps.mean() / 1e6;
    assert!(
        b_score > a_score,
        "chunked ({b_score}) should be worse than frame-level ({a_score})"
    );
}

#[test]
fn size_aware_partition_plays_video() {
    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = 140;
    cfg.partition = rlive_media::substream::PartitionStrategy::SizeAware;
    let r = World::new(
        tiny_scenario(),
        cfg,
        GroupPolicy::uniform(DeliveryMode::RLive),
        27,
    )
    .run();
    assert!(r.test_qoe.views > 5);
    assert!(r.test_qoe.watch_secs > 50.0);
    assert!(r.test_traffic.best_effort_serving > 0);
}

#[test]
fn sessions_survive_heavy_relay_churn() {
    // Failure injection: a churn model where relays die every few
    // minutes. Failover + recovery must keep sessions alive.
    use rlive_sim::churn::ChurnModel;
    use rlive_sim::rng::EmpiricalCdf;
    let mut scenario = tiny_scenario();
    scenario.duration = SimDuration::from_secs(120);
    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = 140;
    let mut world = World::new(scenario, cfg, GroupPolicy::uniform(DeliveryMode::RLive), 25);
    // Swap every relay's timeline for an aggressive one: online
    // episodes of 20-60 s.
    let aggressive = ChurnModel::from_lifespan_cdf(
        EmpiricalCdf::from_points(&[(0.005, 0.0), (0.017, 1.0)]),
        0.003,
    );
    world.inject_churn_model(&aggressive);
    let report = world.run();
    assert!(report.test_qoe.views > 5);
    assert!(
        report.test_qoe.watch_secs > 50.0,
        "watch {}",
        report.test_qoe.watch_secs
    );
}

#[test]
fn mass_outage_rejects_zero_duration() {
    let cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    let mut world = World::new(
        tiny_scenario(),
        cfg,
        GroupPolicy::uniform(DeliveryMode::RLive),
        30,
    );
    let err = world.inject(&ScriptedEvent::MassOutage {
        at: SimTime::from_secs(10),
        duration: SimDuration::ZERO,
        fraction: 0.5,
    });
    assert!(err.is_err(), "zero-duration outage must be rejected");
}

#[test]
fn mass_outage_rejects_non_finite_fraction() {
    let cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    let mut world = World::new(
        tiny_scenario(),
        cfg,
        GroupPolicy::uniform(DeliveryMode::RLive),
        31,
    );
    let err = world.inject(&ScriptedEvent::MassOutage {
        at: SimTime::from_secs(10),
        duration: SimDuration::from_secs(30),
        fraction: f64::NAN,
    });
    assert!(err.is_err(), "NaN fraction must be rejected");
}

#[test]
fn mass_outage_clamps_fraction_and_reports_count() {
    let cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    let mut world = World::new(
        tiny_scenario(),
        cfg.clone(),
        GroupPolicy::uniform(DeliveryMode::RLive),
        32,
    );
    // Over-unity fractions clamp to all relays, not beyond.
    let all = world
        .inject(&ScriptedEvent::MassOutage {
            at: SimTime::from_secs(10),
            duration: SimDuration::from_secs(30),
            fraction: 7.5,
        })
        .expect("valid outage");
    let again = world
        .inject(&ScriptedEvent::MassOutage {
            at: SimTime::from_secs(10),
            duration: SimDuration::from_secs(30),
            fraction: 1.0,
        })
        .expect("valid outage");
    assert_eq!(all, again, "fraction > 1 must clamp to 1");
    // Negative fractions clamp to zero relays.
    let mut world2 = World::new(
        tiny_scenario(),
        cfg,
        GroupPolicy::uniform(DeliveryMode::RLive),
        33,
    );
    let none = world2
        .inject(&ScriptedEvent::MassOutage {
            at: SimTime::from_secs(10),
            duration: SimDuration::from_secs(30),
            fraction: -0.5,
        })
        .expect("valid outage");
    assert_eq!(none, 0, "negative fraction clamps to zero relays");
}

#[test]
fn mass_outage_survivable_end_to_end() {
    let mut scenario = tiny_scenario();
    scenario.duration = SimDuration::from_secs(120);
    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = 140;
    let mut world = World::new(scenario, cfg, GroupPolicy::uniform(DeliveryMode::RLive), 34);
    let n = world
        .inject(&ScriptedEvent::MassOutage {
            at: SimTime::from_secs(40),
            duration: SimDuration::from_secs(20),
            fraction: 0.5,
        })
        .expect("valid outage");
    assert!(n > 0, "half the fleet should be scripted");
    let report = world.run();
    assert!(report.test_qoe.views > 5);
    assert!(report.test_qoe.watch_secs > 50.0);
}
