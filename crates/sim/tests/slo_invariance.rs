//! Differential determinism battery for the SLO/alerting engine and
//! incremental window sealing.
//!
//! The SLO engine consumes only **sealed** obs windows, and per-world
//! alert streams merge window-ordered (exactly associative) in the
//! fleet fold — so the alert stream, the incident timeline derived
//! from it, and the export bytes must all be byte-identical
//! across the whole (jobs, world-jobs) worker grid. These tests prove
//! that differentially, fleet-level and world-level, on the same
//! scripted storm the `experiments slo` subcommand runs.
//!
//! Lives in `rlive-sim`'s test tree (next to the layer under test) via
//! the same dev-only dependency cycle on `rlive` as
//! `obs_invariance.rs`.

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::incident::build_incidents;
use rlive::world::GroupPolicy;
use rlive::{Fleet, ScriptedEvent, WorldSpec};
use rlive_sim::{SimDuration, SimTime};
use rlive_workload::scenario::Scenario;

/// The (cell-pool jobs, world-jobs) grid every SLO artefact must be
/// invariant over. (1, 1) is the sequential reference.
const GRID: [(usize, usize); 4] = [(1, 1), (4, 1), (1, 2), (2, 2)];

/// Storm worlds matching `experiments slo`: outage at 15 s, churn
/// storm at 38 s, tail until 60 s.
fn scenario() -> Scenario {
    let mut s = Scenario::evening_peak().scaled(0.08);
    s.duration = SimDuration::from_secs(60);
    s.streams = 3;
    s.population.isps = 2;
    s.population.regions = 2;
    s
}

fn cfg(world_jobs: usize) -> SystemConfig {
    let mut cfg = SystemConfig {
        cdn_edge_mbps: 60,
        multi_source_after: SimDuration::from_secs(5),
        popularity_threshold: 1,
        obs_window_ms: 1000,
        slo_enabled: true,
        ..SystemConfig::default()
    };
    cfg.world_jobs = world_jobs;
    cfg
}

fn schedule() -> Vec<ScriptedEvent> {
    vec![
        ScriptedEvent::MassOutage {
            at: SimTime::from_secs(15),
            duration: SimDuration::from_secs(20),
            fraction: 0.6,
        },
        ScriptedEvent::ChurnStorm {
            at: SimTime::from_secs(38),
            duration: SimDuration::from_secs(12),
            fraction: 0.4,
        },
    ]
}

fn storm_spec(seed: u64, world_jobs: usize) -> WorldSpec {
    WorldSpec {
        seed,
        scenario: scenario(),
        config: cfg(world_jobs),
        policy: GroupPolicy::uniform(DeliveryMode::RLive),
        schedule: schedule(),
    }
}

/// Runs the two-world storm fleet on `jobs` pool workers with
/// `world_jobs` shards inside each world and returns the Debug
/// rendering of the merged alert stream plus the incident timeline
/// derived from it — any divergence anywhere (alert edges, window
/// numbering, detection latency, mitigation counters) fails the
/// comparison.
fn run_fleet(seed: u64, grid: (usize, usize)) -> String {
    let (jobs, world_jobs) = grid;
    let mut fleet = Fleet::new("slo-invariance");
    for world_seed in seed..seed + 2 {
        fleet.push(storm_spec(world_seed, world_jobs));
    }
    let report = fleet.run(jobs);
    let incidents = build_incidents(
        &schedule(),
        &report.slo,
        &report.obs,
        &report.sched_demotions,
    );
    format!("{:?}\n---\n{incidents:?}", report.slo)
}

/// The core differential property: every (jobs, world-jobs)
/// combination reproduces the sequential reference's alert stream and
/// incident table exactly — and the battery is not vacuous, because
/// the scripted outage actually fires alerts.
#[test]
fn alert_stream_and_incidents_identical_across_worker_grid() {
    let reference = run_fleet(7, GRID[0]);
    assert!(
        reference.contains("Fired"),
        "no alert fired under the scripted outage — the battery tests nothing:\n{reference}"
    );
    for &grid in &GRID[1..] {
        let got = run_fleet(7, grid);
        assert_eq!(
            got, reference,
            "SLO artefacts diverged at (jobs, world-jobs)={grid:?}"
        );
    }
}

/// Builds one storm world with the shard floor forced low (so even
/// tiny batches cross the worker pool), runs it, and returns the run's
/// seal watermark, both exports and its alert stream.
fn run_world(world_jobs: usize) -> (u64, String, String, String) {
    let mut world = storm_spec(13, 1).build();
    world.set_world_jobs(world_jobs);
    world.set_shard_min_batch(2);
    let report = world.run();
    (
        report.obs.sealed_below(),
        report.obs.to_jsonl(),
        report.obs.to_csv(),
        format!("{:?}", report.slo),
    )
}

/// The seal watermark, the export bytes of the windows sealed during
/// the run, and the alert stream are world-jobs invariant — the sharded
/// event loop's min-across-shards watermark seals exactly the windows
/// the sequential clock does.
#[test]
fn streamed_export_is_world_jobs_invariant() {
    let (ref_sealed, ref_jsonl, ref_csv, ref_alerts) = run_world(1);
    assert!(ref_sealed > 0, "no window ever sealed");
    for world_jobs in [2, 3] {
        let (sealed, jsonl, csv, alerts) = run_world(world_jobs);
        assert_eq!(
            sealed, ref_sealed,
            "seal watermark diverged at world-jobs={world_jobs}"
        );
        assert_eq!(
            jsonl, ref_jsonl,
            "JSONL diverged at world-jobs={world_jobs}"
        );
        assert_eq!(csv, ref_csv, "CSV diverged at world-jobs={world_jobs}");
        assert_eq!(
            alerts, ref_alerts,
            "alert stream diverged at world-jobs={world_jobs}"
        );
    }
}
