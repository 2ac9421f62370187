//! Differential determinism battery for sharded world execution.
//!
//! The world event loop may execute shardable batches (see
//! `Event::shard_class` and DESIGN.md "Sharded world execution") on
//! `--world-jobs N` worker threads. The contract is absolute: for any
//! `N ≥ 1`, the post-run [`RunReport`] and the full drained trace
//! stream — record order and [`TraceRecord::seq`] included — are
//! *identical* to the sequential (`N = 1`) reference run. These tests
//! prove that differentially: same seed, same scenario, different `N`,
//! byte-for-byte equal outputs.
//!
//! `set_shard_min_batch(2)` is applied everywhere so even the tiny
//! worlds used here actually cross the worker pool rather than taking
//! the inline small-batch path.

use proptest::prelude::*;
use rlive::config::{DeliveryMode, SystemConfig};
use rlive::events::{TraceRecord, TraceSink};
use rlive::world::{GroupPolicy, RunReport, World};
use rlive::ScriptedEvent;
use rlive_sim::{SimDuration, SimTime};
use rlive_workload::scenario::Scenario;

/// Worker counts the battery sweeps: the sequential reference, an even
/// split, an odd split (exercises uneven partitions), and more workers
/// than most batches have events (exercises empty shards).
const JOBS_LADDER: [usize; 4] = [1, 2, 3, 8];

fn scenario(streams: usize, secs: u64) -> Scenario {
    let mut s = Scenario::evening_peak().scaled(0.08);
    s.duration = SimDuration::from_secs(secs);
    s.streams = streams;
    s
}

/// The config tuning the behavioural tests use so tiny worlds still
/// promote sessions to multi-source quickly.
fn tuned_cfg(mode: DeliveryMode) -> SystemConfig {
    let mut cfg = SystemConfig::for_mode(mode);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = 140;
    cfg
}

fn mode_of(idx: usize) -> DeliveryMode {
    match idx % 4 {
        0 => DeliveryMode::RLive,
        1 => DeliveryMode::CdnOnly,
        2 => DeliveryMode::SingleSource,
        // Central sequencing keeps RelayFrame on the sequential path —
        // it must still be jobs-invariant (client batches shard).
        _ => DeliveryMode::RLiveCentralSequencing,
    }
}

/// Runs one traced world at a given worker count and returns the
/// report (as its full Debug rendering, a byte-comparable digest of
/// every field) plus the complete drained trace stream.
fn run_once(
    scn: &Scenario,
    cfg: &SystemConfig,
    mode: DeliveryMode,
    seed: u64,
    jobs: usize,
    outage_at: Option<u64>,
) -> (String, Vec<TraceRecord>, RunReport) {
    let mut world = World::new(scn.clone(), cfg.clone(), GroupPolicy::uniform(mode), seed);
    if let Some(at) = outage_at {
        world
            .inject(&ScriptedEvent::MassOutage {
                at: SimTime::from_secs(at),
                duration: SimDuration::from_secs(15),
                fraction: 0.5,
            })
            .expect("valid outage");
    }
    world.set_world_jobs(jobs);
    world.set_shard_min_batch(2);
    let sink = TraceSink::ring(1 << 20);
    world.attach_trace_sink(sink.clone());
    let report = world.run();
    (format!("{report:?}"), sink.drain(), report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The core differential property: across randomized seeds,
    /// scenario shapes and delivery modes, every worker count on the
    /// ladder reproduces the sequential run exactly — identical
    /// RunReport and identical trace stream (order and seq included).
    #[test]
    fn world_jobs_count_is_unobservable(
        seed in 0u64..4096,
        streams in 2usize..5,
        secs in 20u64..40,
        mode_idx in 0usize..4,
    ) {
        let scn = scenario(streams, secs);
        let mode = mode_of(mode_idx);
        let cfg = tuned_cfg(mode);
        let (ref_report, ref_traces, _) =
            run_once(&scn, &cfg, mode, seed, JOBS_LADDER[0], None);
        for &jobs in &JOBS_LADDER[1..] {
            let (report, traces, _) =
                run_once(&scn, &cfg, mode, seed, jobs, None);
            prop_assert_eq!(
                &report, &ref_report,
                "RunReport diverged at world-jobs={} (mode {:?}, seed {})",
                jobs, mode, seed
            );
            prop_assert_eq!(
                traces, ref_traces.clone(),
                "trace stream diverged at world-jobs={} (mode {:?}, seed {})",
                jobs, mode, seed
            );
        }
    }
}

/// The battery is not vacuous: a small RLive world forms multi-event
/// shardable batches, and formation stats are themselves jobs-invariant
/// (they are part of the RunReport compared above).
#[test]
fn shardable_batches_actually_form() {
    let scn = scenario(3, 60);
    let cfg = tuned_cfg(DeliveryMode::RLive);
    let (_, _, report) = run_once(&scn, &cfg, DeliveryMode::RLive, 11, 4, None);
    assert!(
        report.shardable_batches > 0,
        "no shardable batches formed — the invariance tests test nothing"
    );
    assert!(report.shardable_events >= 2 * report.shardable_batches);
}

/// Fault injection mid-run: a correlated mass outage at several tick
/// offsets produces byte-identical recovery/failover timelines (the
/// trace stream carries churn, mode-switch and recovery records) no
/// matter how many workers execute the surrounding batches.
#[test]
fn mass_outage_recovery_timeline_is_jobs_invariant() {
    let scn = scenario(3, 90);
    let cfg = tuned_cfg(DeliveryMode::RLive);
    for offset in [10u64, 30, 60] {
        let (ref_report, ref_traces, _) = run_once(
            &scn,
            &cfg,
            DeliveryMode::RLive,
            40 + offset,
            1,
            Some(offset),
        );
        for jobs in [2usize, 8] {
            let (report, traces, _) = run_once(
                &scn,
                &cfg,
                DeliveryMode::RLive,
                40 + offset,
                jobs,
                Some(offset),
            );
            assert_eq!(
                report, ref_report,
                "outage at t={offset}s: report diverged at world-jobs={jobs}"
            );
            assert_eq!(
                traces, ref_traces,
                "outage at t={offset}s: timeline diverged at world-jobs={jobs}"
            );
        }
    }
}

/// A world with zero relays must not deadlock or panic the worker pool
/// (empty shards, relay-class batches never form), and must still be
/// jobs-invariant.
#[test]
fn zero_relay_world_survives_sharding() {
    let mut scn = scenario(2, 30);
    scn.population.count = 0;
    let cfg = tuned_cfg(DeliveryMode::RLive);
    let (ref_report, ref_traces, report) = run_once(&scn, &cfg, DeliveryMode::RLive, 9, 1, None);
    assert!(
        report.test_qoe.views > 0,
        "zero-relay world should still play via the CDN"
    );
    let (sharded, traces, _) = run_once(&scn, &cfg, DeliveryMode::RLive, 9, 8, None);
    assert_eq!(sharded, ref_report);
    assert_eq!(traces, ref_traces);
}
