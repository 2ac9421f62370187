//! Differential determinism battery for the windowed observability
//! layer.
//!
//! The obs series are aggregates over the trace stream, and the trace
//! stream is a pure function of the seed for any `--jobs` (cell pool)
//! and `--world-jobs` (event-loop shards) setting — so every obs
//! artefact must be byte-identical across the whole worker grid: the
//! registry's `Debug` rendering, its JSONL export and its CSV export.
//! These tests prove that differentially, fleet-level and world-level.
//!
//! Lives in `rlive-sim`'s test tree (next to the layer under test) via
//! a dev-only dependency cycle on `rlive`; Cargo permits dev-dep
//! cycles, and the cycle never enters a release graph.

use proptest::prelude::*;
use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::{GroupPolicy, World};
use rlive::Fleet;
use rlive_sim::trace::TraceSink;
use rlive_sim::{MetricRegistry, SimDuration, SimTime, SloEngine};
use rlive_workload::scenario::Scenario;

/// The (cell-pool jobs, world-jobs) grid every obs artefact must be
/// invariant over. (1, 1) is the sequential reference.
const GRID: [(usize, usize); 4] = [(1, 1), (4, 1), (1, 2), (2, 2)];

fn scenario(streams: usize, secs: u64) -> Scenario {
    let mut s = Scenario::evening_peak().scaled(0.08);
    s.duration = SimDuration::from_secs(secs);
    s.streams = streams;
    s
}

fn cfg(window_ms: u64, world_jobs: usize) -> SystemConfig {
    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = 140;
    cfg.obs_window_ms = window_ms;
    cfg.world_jobs = world_jobs;
    cfg
}

/// Every byte-comparable artefact of a registry in one string — any
/// divergence anywhere (series values, window indexing, export
/// formatting) fails the comparison.
fn artefacts(obs: &MetricRegistry) -> String {
    format!("{obs:?}\n---\n{}\n---\n{}", obs.to_jsonl(), obs.to_csv())
}

/// Runs a three-world fleet on `jobs` pool workers with `world_jobs`
/// shards inside each world and returns the merged registry's
/// artefacts. Exercises the full production path: per-world ingest in
/// `World::finish`, then the spec-index-order fold in
/// `FleetReport::fold`.
fn run_fleet(seed: u64, streams: usize, secs: u64, window_ms: u64, grid: (usize, usize)) -> String {
    let (jobs, world_jobs) = grid;
    let seeds: Vec<u64> = (0..3).map(|d| seed + d).collect();
    let fleet = Fleet::seeded(
        "obs-invariance",
        &scenario(streams, secs),
        &cfg(window_ms, world_jobs),
        &GroupPolicy::ab(DeliveryMode::CdnOnly, DeliveryMode::RLive),
        &seeds,
    );
    artefacts(&fleet.run(jobs).obs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The core differential property: across randomized seeds, world
    /// shapes and window widths, every (jobs, world-jobs) combination
    /// reproduces the sequential reference's obs artefacts exactly.
    #[test]
    fn obs_series_identical_across_worker_grid(
        seed in 0u64..4096,
        streams in 2usize..5,
        secs in 20u64..40,
        window_sel in 0usize..3,
    ) {
        let window_ms = [250u64, 1000, 1500][window_sel];
        let reference = run_fleet(seed, streams, secs, window_ms, GRID[0]);
        for &grid in &GRID[1..] {
            let got = run_fleet(seed, streams, secs, window_ms, grid);
            prop_assert_eq!(
                &got, &reference,
                "obs artefacts diverged at (jobs, world-jobs)={:?} (seed {}, window {} ms)",
                grid, seed, window_ms
            );
        }
    }
}

/// World-level variant with the shard floor forced low, so even tiny
/// batches cross the worker pool: a single world's registry must be
/// identical for any world-jobs count.
#[test]
fn single_world_obs_is_world_jobs_invariant() {
    let run = |world_jobs: usize| {
        let mut world = World::new(
            scenario(3, 45),
            cfg(500, 1),
            GroupPolicy::uniform(DeliveryMode::RLive),
            13,
        );
        world.set_world_jobs(world_jobs);
        world.set_shard_min_batch(2);
        artefacts(&world.run().obs)
    };
    let reference = run(1);
    for world_jobs in [2, 3, 8] {
        assert_eq!(
            run(world_jobs),
            reference,
            "world-jobs={world_jobs} diverged"
        );
    }
}

/// The battery is not vacuous: the reference run actually produces
/// series (counters with windows) and well-formed exports.
#[test]
fn reference_run_produces_series() {
    let world = World::new(
        scenario(3, 45),
        cfg(1000, 1),
        GroupPolicy::uniform(DeliveryMode::RLive),
        13,
    );
    let obs = world.run().obs;
    assert!(obs.is_enabled());
    assert!(
        !obs.is_empty(),
        "no obs series formed — the battery tests nothing"
    );
    assert!(obs.records() > 0);
    assert!(obs.counter_total("session_joins") > 0);
    assert!(obs.to_jsonl().lines().count() > 1);
    assert!(obs
        .to_csv()
        .starts_with("kind,name,labels,window,start_ms,value"));
}

/// A caller's trace sink on an obs world is a tee of the world's own
/// unbounded ring, and the obs sealed live during the run equals the
/// end-of-run batch fold it replaced. For a bounded and an unbounded
/// caller ring:
///
/// (a) `obs`/`slo` equal the same world with no sink attached — a
///     256-record ring that wraps must not make obs under-count;
/// (b) the caller's records (`seq` included) and drop count equal
///     direct emission into the same ring on the same world, obs off;
/// (c) `obs`/`slo` equal the finish-time batch reference, kept here
///     verbatim: ingest every record, seal through the final window,
///     feed the sealed windows to a fresh default-rules engine.
#[test]
fn caller_sink_is_an_unobservable_tee_and_live_obs_matches_batch() {
    const WINDOW_MS: u64 = 500;
    let run = |window_ms: u64, sink: Option<TraceSink>| {
        let mut cfg = cfg(window_ms, 1);
        cfg.slo_enabled = true;
        let mut world = World::new(
            scenario(3, 45),
            cfg,
            GroupPolicy::uniform(DeliveryMode::RLive),
            13,
        );
        if let Some(sink) = sink {
            world.attach_trace_sink(sink);
        }
        world.run()
    };
    let untapped = run(WINDOW_MS, None);
    let untapped_obs = format!("{:?}\n---\n{:?}", untapped.obs, untapped.slo);
    for bounded in [true, false] {
        let label = if bounded { "ring(256)" } else { "unbounded" };
        let make = || {
            if bounded {
                TraceSink::ring(256)
            } else {
                TraceSink::unbounded()
            }
        };
        let tap = make();
        let tapped = run(WINDOW_MS, Some(tap.clone()));
        assert_eq!(
            format!("{:?}\n---\n{:?}", tapped.obs, tapped.slo),
            untapped_obs,
            "(a) attaching {label} changed obs/slo"
        );

        let direct = make();
        run(0, Some(direct.clone()));
        assert_eq!(tap.dropped(), direct.dropped(), "(b) {label} drop count");
        let records = tap.drain();
        assert_eq!(records, direct.drain(), "(b) {label} records");
        if bounded {
            assert!(tap.dropped() > 0, "ring(256) never wrapped");
            continue;
        }

        let mut reg = MetricRegistry::new(SimDuration::from_millis(WINDOW_MS));
        reg.ingest_all(&records);
        let final_window = reg.window_of(SimTime::ZERO + SimDuration::from_secs(45));
        let sealed = reg.seal_until(final_window + 1);
        let mut engine = SloEngine::with_default_rules();
        for sw in &sealed {
            engine.observe(sw);
        }
        assert_eq!(format!("{reg:?}"), format!("{:?}", tapped.obs), "(c) obs");
        assert_eq!(
            format!("{:?}", engine.finish()),
            format!("{:?}", tapped.slo),
            "(c) slo"
        );
    }
}
