//! Failure-injection robustness suite: correlated relay outages, heavy
//! churn and degenerate configurations must degrade QoE gracefully,
//! never wedge sessions.

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::{GroupPolicy, RunReport, World};
use rlive::ScriptedEvent;
use rlive_sim::{SimDuration, SimTime};
use rlive_workload::scenario::Scenario;

fn scenario() -> Scenario {
    let mut s = Scenario::evening_peak().scaled(0.08);
    s.duration = SimDuration::from_secs(120);
    s.streams = 3;
    s.population.isps = 2;
    s.population.regions = 4;
    s
}

fn config(mode: DeliveryMode) -> SystemConfig {
    let mut cfg = SystemConfig::for_mode(mode);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = 140;
    cfg
}

fn run_with<F: FnOnce(&mut World)>(mode: DeliveryMode, seed: u64, inject: F) -> RunReport {
    let mut world = World::new(scenario(), config(mode), GroupPolicy::uniform(mode), seed);
    inject(&mut world);
    world.run()
}

#[test]
fn mass_relay_outage_is_survivable() {
    // Half the relay fleet dies for 30 s mid-run (a vendor outage). The
    // multi-source design re-maps / falls back; sessions keep playing.
    let baseline = run_with(DeliveryMode::RLive, 41, |_| {});
    let outaged = run_with(DeliveryMode::RLive, 41, |w| {
        w.inject(&ScriptedEvent::MassOutage {
            at: SimTime::from_secs(50),
            duration: SimDuration::from_secs(30),
            fraction: 0.5,
        })
        .expect("valid outage");
    });
    assert!(outaged.test_qoe.views > 5);
    assert!(
        outaged.test_qoe.watch_secs > baseline.test_qoe.watch_secs * 0.6,
        "outage watch {} vs baseline {}",
        outaged.test_qoe.watch_secs,
        baseline.test_qoe.watch_secs
    );
    // The outage costs something (stalls, fallbacks or skips) — it must
    // not be silently free. The factor is loose: at this seed the
    // baseline's skip rate dominates the proxy, and recovery-path fixes
    // (e.g. evicting stale bookkeeping below the playback head) shift
    // where the outage cost shows up — mostly into the watch-time drop
    // asserted above.
    let disruption = |r: &RunReport| {
        r.test_qoe.rebuffers_per_100s.mean()
            + r.test_qoe.skips_per_100s.mean()
            + r.test_qoe.cdn_fallbacks as f64
    };
    assert!(
        disruption(&outaged) >= disruption(&baseline) * 0.6,
        "outage should not look better than baseline: outaged {} vs baseline {}",
        disruption(&outaged),
        disruption(&baseline)
    );
    assert!(
        outaged.test_qoe.watch_secs < baseline.test_qoe.watch_secs,
        "the outage must cost watch time: outaged {} vs baseline {}",
        outaged.test_qoe.watch_secs,
        baseline.test_qoe.watch_secs
    );
}

#[test]
fn total_relay_outage_falls_back_to_cdn() {
    // Every relay dies for the rest of the run: all sessions must end up
    // on CDN delivery and keep playing.
    let r = run_with(DeliveryMode::RLive, 42, |w| {
        w.inject(&ScriptedEvent::MassOutage {
            at: SimTime::from_secs(40),
            duration: SimDuration::from_secs(600),
            fraction: 1.0,
        })
        .expect("valid outage");
    });
    assert!(r.test_qoe.views > 5);
    assert!(
        r.test_qoe.watch_secs > 60.0,
        "watch {}",
        r.test_qoe.watch_secs
    );
    // After the outage begins, best-effort traffic stops growing, so the
    // dedicated share of client bytes must dominate.
    let ded_share =
        r.test_traffic.dedicated_serving as f64 / r.test_traffic.client_bytes().max(1) as f64;
    assert!(ded_share > 0.4, "dedicated share {ded_share}");
}

#[test]
fn single_source_mode_survives_outage_via_remapping() {
    let r = run_with(DeliveryMode::SingleSource, 43, |w| {
        w.inject(&ScriptedEvent::MassOutage {
            at: SimTime::from_secs(40),
            duration: SimDuration::from_secs(20),
            fraction: 0.6,
        })
        .expect("valid outage");
    });
    assert!(r.test_qoe.views > 5);
    assert!(r.test_qoe.watch_secs > 60.0);
}

#[test]
fn degenerate_single_substream_config_works() {
    // K = 1 degenerates multi-source to a single relay path; the system
    // must still function (the K ablation's lower bound).
    let mut cfg = config(DeliveryMode::RLive);
    cfg.substreams = 1;
    cfg.recovery.substream_count = 1;
    let r = World::new(
        scenario(),
        cfg,
        GroupPolicy::uniform(DeliveryMode::RLive),
        44,
    )
    .run();
    assert!(r.test_qoe.views > 5);
    assert!(r.test_qoe.watch_secs > 60.0);
}

#[test]
fn zero_relay_population_degrades_to_cdn_only() {
    let mut s = scenario();
    s.population.count = 1; // effectively no usable pool
    let r = World::new(
        s,
        config(DeliveryMode::RLive),
        GroupPolicy::uniform(DeliveryMode::RLive),
        45,
    )
    .run();
    assert!(r.test_qoe.views > 5);
    assert!(r.test_qoe.watch_secs > 60.0);
    // Nearly everything must have come from the CDN.
    let ded_share =
        r.test_traffic.dedicated_serving as f64 / r.test_traffic.client_bytes().max(1) as f64;
    assert!(ded_share > 0.8, "dedicated share {ded_share}");
}

#[test]
fn outage_injection_is_deterministic() {
    let a = run_with(DeliveryMode::RLive, 46, |w| {
        w.inject(&ScriptedEvent::MassOutage {
            at: SimTime::from_secs(30),
            duration: SimDuration::from_secs(15),
            fraction: 0.3,
        })
        .expect("valid outage");
    });
    let b = run_with(DeliveryMode::RLive, 46, |w| {
        w.inject(&ScriptedEvent::MassOutage {
            at: SimTime::from_secs(30),
            duration: SimDuration::from_secs(15),
            fraction: 0.3,
        })
        .expect("valid outage");
    });
    assert_eq!(a.test_qoe.views, b.test_qoe.views);
    assert_eq!(
        a.test_traffic.best_effort_serving,
        b.test_traffic.best_effort_serving
    );
}
