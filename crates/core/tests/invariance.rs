//! The determinism battery: every report, trace stream and obs/SLO
//! artefact is byte-identical for any `--jobs` (cell-pool workers) and
//! `--world-jobs` (event-loop shards inside each world). Each test is a
//! case; [`assert_grid_invariant`] runs it at every point of its axis —
//! [`GRID`] for fleets, [`LADDER`] for single worlds — and compares each
//! Debug rendering with the sequential reference's. Invariance over
//! worlds where nothing happens would pass trivially, so each case also
//! checks that its reference run acts, in the case or in a test of its own.

use proptest::strategy::Strategy;
use proptest::test_runner::{run_cases, ProptestConfig, TestRng};
use rlive::config::{DeliveryMode, SystemConfig};
use rlive::events::{TraceRecord, TraceSink};
use rlive::fuzz::{render_report, run_fuzz, FuzzConfig};
use rlive::world::{GroupPolicy, RunReport, World};
use rlive::{build_incidents, Fleet, FleetReport, ScriptedEvent, WorldSpec};
use rlive_control::SchedulerPolicyKind;
use rlive_data::recovery::RecoveryPolicyKind;
use rlive_sim::{MetricRegistry, SimDuration, SimTime, SloEngine};
use rlive_workload::scenario::Scenario;
use std::fmt::Debug;
use DeliveryMode::{CdnOnly, RLive};

/// (jobs, world_jobs) points of every fleet-level case: the sequential
/// reference, pool-only parallelism, shard-only parallelism, and both.
const GRID: [(usize, usize); 4] = [(1, 1), (4, 1), (1, 2), (2, 2)];

/// World-jobs counts of every single-world case, the shard floor forced
/// to two so even tiny batches cross the worker pool: the sequential
/// reference, an even split, an odd split (uneven partitions), and more
/// workers than most batches have events (empty shards).
const LADDER: [usize; 4] = [1, 2, 3, 8];

/// Runs `run` at every point and requires each run's Debug rendering to
/// equal the first point's. Returns the first point's run.
fn assert_grid_invariant<P: Copy + Debug, R: Debug>(
    case: &str,
    points: &[P],
    run: impl Fn(P) -> R,
) -> R {
    let reference = run(points[0]);
    let want = format!("{reference:?}");
    for &point in &points[1..] {
        let got = format!("{:?}", run(point));
        if got != want {
            let at = want.bytes().zip(got.bytes()).take_while(|(w, g)| w == g);
            let at = at.count();
            let near = |s: &str| {
                let tail = &s.as_bytes()[at.saturating_sub(60)..];
                String::from_utf8_lossy(&tail[..tail.len().min(120)]).into_owned()
            };
            let (first, want, got) = (points[0], near(&want), near(&got));
            panic!("{case}: {point:?} diverged from {first:?} at byte {at}:\nwant …{want}…\n got …{got}…");
        }
    }
    reference
}

/// Runs `case` on six draws from the random stream named `name`: the
/// name each randomized case had before the batteries shared a file, so
/// the drawn worlds stay the same.
fn six_cases(name: &str, case: impl Fn(&mut TestRng)) {
    run_cases(&ProptestConfig::with_cases(6), name, |rng| {
        case(rng);
        Ok(())
    });
}

/// The 8 %-scale evening peak cut to `streams` streams over `secs` s.
fn scenario(streams: usize, secs: u64) -> Scenario {
    let mut s = Scenario::evening_peak().scaled(0.08);
    s.duration = SimDuration::from_secs(secs);
    s.streams = streams;
    s
}

/// `mode`'s config tuned so tiny worlds still promote sessions to
/// multi-source quickly, with a `cdn_edge_mbps` CDN edge and
/// `obs_window_ms` obs windows (0: obs off).
fn config(mode: DeliveryMode, cdn_edge_mbps: u64, obs_window_ms: u64) -> SystemConfig {
    let mut cfg = SystemConfig::for_mode(mode);
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    cfg.cdn_edge_mbps = cdn_edge_mbps;
    cfg.obs_window_ms = obs_window_ms;
    cfg
}

/// `seed` on `scn` at `cfg`, every viewer on `cfg.mode`, no script.
fn spec(seed: u64, scn: &Scenario, cfg: &SystemConfig) -> WorldSpec {
    let policy = GroupPolicy::uniform(cfg.mode);
    let (scenario, config) = (scn.clone(), cfg.clone());
    WorldSpec {
        seed,
        scenario,
        config,
        policy,
        schedule: Vec::new(),
    }
}

/// Copies of `base`, one per seed.
fn seeded(base: &WorldSpec, seeds: &[u64]) -> Vec<WorldSpec> {
    let mut specs = vec![base.clone(); seeds.len()];
    specs
        .iter_mut()
        .zip(seeds)
        .for_each(|(s, &seed)| s.seed = seed);
    specs
}

/// `fraction` of the relays go dark at `at` s for `secs` s.
fn outage(at: u64, secs: u64, fraction: f64) -> ScriptedEvent {
    ScriptedEvent::MassOutage {
        at: SimTime::from_secs(at),
        duration: SimDuration::from_secs(secs),
        fraction,
    }
}

/// Two-stream 40 s worlds at `cfg`, one per seed, with half the relays
/// dark from 10 s to 25 s.
fn outage_fleet(seeds: &[u64], cfg: &SystemConfig) -> Vec<WorldSpec> {
    let mut base = spec(0, &scenario(2, 40), cfg);
    base.schedule.push(outage(10, 15, 0.5));
    seeded(&base, seeds)
}

/// Runs `specs` as one fleet on `jobs` pool workers with `shards`
/// event-loop shards inside each world.
fn run_fleet(specs: &[WorldSpec], (jobs, shards): (usize, usize)) -> FleetReport {
    let mut fleet = Fleet::new("invariance");
    for spec in specs {
        let mut spec = spec.clone();
        spec.config.world_jobs = shards;
        fleet.push(spec);
    }
    fleet.run(jobs)
}

/// Builds `spec` on `shards` event-loop shards, the shard floor at two.
fn world(spec: &WorldSpec, shards: usize) -> World {
    let mut world = spec.build();
    world.set_world_jobs(shards);
    world.set_shard_min_batch(2);
    world
}

/// Runs `spec` on `shards` shards into a ring sink: the report and the
/// whole drained trace stream, record order and `seq` included.
fn traced(spec: &WorldSpec, shards: usize) -> (RunReport, Vec<TraceRecord>) {
    let mut world = world(spec, shards);
    let sink = TraceSink::ring(1 << 20);
    world.attach_trace_sink(sink.clone());
    (world.run(), sink.drain())
}

/// The obs exports a registry's Debug rendering does not cover.
fn exports(obs: &MetricRegistry) -> [String; 2] {
    [obs.to_jsonl(), obs.to_csv()]
}

/// The scripted storm `experiments slo` runs: outage at 15 s, churn
/// storm at 38 s, tail until 60 s, SLO engine on.
fn storm(seeds: &[u64]) -> Vec<WorldSpec> {
    let mut scn = scenario(3, 60);
    scn.population.isps = 2;
    scn.population.regions = 2;
    let mut cfg = config(RLive, 60, 1000);
    cfg.slo_enabled = true;
    let churn = ScriptedEvent::ChurnStorm {
        at: SimTime::from_secs(38),
        duration: SimDuration::from_secs(12),
        fraction: 0.4,
    };
    let mut base = spec(0, &scn, &cfg);
    base.schedule = vec![outage(15, 20, 0.6), churn];
    seeded(&base, seeds)
}

// ----- fleet-level cases over GRID -----------------------------------

/// A three-world A/B fleet: per-world reports, merged accumulators,
/// dispersion inputs, every field.
#[test]
fn fleet_report_is_grid_invariant() {
    let mut base = spec(0, &scenario(2, 40), &config(RLive, 120, 0));
    base.policy = GroupPolicy::ab(CdnOnly, RLive);
    let specs = seeded(&base, &[21, 22, 23]);
    let report = assert_grid_invariant("fleet", &GRID, |p| run_fleet(&specs, p));
    assert!(
        format!("{report:?}").contains("worlds"),
        "Debug rendering should include per-world reports"
    );
}

/// The adaptive scheduler policy folds recovery and probe telemetry
/// into windows and demotes relays from them: a sample attributed in
/// another order would demote another relay and fork the world.
fn adaptive_fleet() -> Vec<WorldSpec> {
    let mut cfg = config(RLive, 120, 0);
    cfg.scheduler.policy = SchedulerPolicyKind::Adaptive;
    outage_fleet(&[31, 32], &cfg)
}

#[test]
fn adaptive_fleet_report_is_grid_invariant() {
    let specs = adaptive_fleet();
    let report = assert_grid_invariant("adaptive", &GRID, |p| run_fleet(&specs, p));
    assert!(
        format!("{report:?}").contains("sched_demotions"),
        "Debug rendering should include the demotion histogram"
    );
}

/// Under a mass outage the adaptive policy must demote at least once.
#[test]
fn adaptive_policy_acts_under_mass_outage() {
    let report = run_fleet(&adaptive_fleet(), GRID[0]);
    for w in &report.worlds {
        assert_eq!(w.sched_policy, "adaptive");
    }
    let demotions: u64 = report.sched_demotions.values().sum();
    assert!(
        demotions >= 1,
        "mass outage must trigger at least one demotion, got {demotions} \
         (the invariance test would be vacuous otherwise)"
    );
}

/// Racing recovery samples one retransmission trace per hedge leg from
/// the world RNG and cancels the rest on the first win, so a leg
/// resolved in another order would crown another winner. Obs is on so
/// the hedge counters exist and the registry folds across the grid too.
fn racing_fleet() -> Vec<WorldSpec> {
    let mut cfg = config(RLive, 120, 1_000);
    cfg.recovery_policy = RecoveryPolicyKind::Racing;
    outage_fleet(&[41, 42], &cfg)
}

#[test]
fn racing_fleet_report_is_grid_invariant() {
    let specs = racing_fleet();
    let report = assert_grid_invariant("racing", &GRID, |p| run_fleet(&specs, p));
    assert!(
        format!("{report:?}").contains("recovery_policy"),
        "Debug rendering should include the recovery policy label"
    );
}

/// Under a mass outage racing must win and cancel at least once.
#[test]
fn racing_policy_races_under_mass_outage() {
    let report = run_fleet(&racing_fleet(), GRID[0]);
    for w in &report.worlds {
        assert_eq!(w.recovery_policy, "racing");
    }
    let wins = report.obs.counter_total("hedge_wins");
    let cancels = report.obs.counter_total("hedges_cancelled");
    assert!(
        wins >= 1,
        "mass outage must produce at least one hedge win, got {wins} \
         (the invariance test would be vacuous otherwise)"
    );
    assert!(
        cancels >= 1,
        "at least one win must beat a still-outstanding leg \
         (cancel-on-first-win), got {cancels} cancellations"
    );
}

/// Eight fuzz candidates: enough for several keep decisions.
const CANDIDATES: usize = 8;

/// The fuzzer generates each candidate batch before evaluating it and
/// selects in generation order, so the campaign report is the same for
/// any worker count.
#[test]
fn fuzz_report_is_grid_invariant() {
    let rendered = assert_grid_invariant("fuzz", &GRID, |(jobs, shards)| {
        let mut cfg = FuzzConfig::sequential(CANDIDATES, 7);
        (cfg.jobs, cfg.world_jobs) = (jobs, shards);
        render_report(&run_fuzz(&cfg), 3)
    });
    assert!(
        rendered.contains("coverage matrix"),
        "report should include the coverage matrix"
    );
}

/// The campaign must keep a mutant with real evidence.
#[test]
fn fuzz_campaign_is_not_vacuous() {
    let report = run_fuzz(&FuzzConfig::sequential(CANDIDATES, 7));
    assert_eq!(report.candidates.len(), CANDIDATES);
    let kept = report.kept();
    assert!(
        !kept.is_empty(),
        "campaign must keep at least one mutant (coverage growth or worse QoE)"
    );
    for &i in &kept {
        let c = &report.candidates[i];
        assert!(c.new_points > 0 || c.worse);
    }
    // Some mutant reached a point the base didn't, or is worse than it.
    let grew = report.union.len() > report.base.coverage.len();
    let worsened = report
        .candidates
        .iter()
        .any(|c| c.eval.score.badness() > report.base.score.badness());
    assert!(
        grew || worsened,
        "mutation never moved the campaign beyond the base run"
    );
}

/// Random three-world A/B fleets with 250, 1000 or 1500 ms obs windows:
/// per-world ingest, the spec-order fold, and the merged registry's
/// exports.
#[test]
fn obs_series_identical_across_worker_grid() {
    const DRAWS: &str = "obs_invariance::obs_series_identical_across_worker_grid";
    six_cases(DRAWS, |rng| {
        let seed = (0u64..4096).generate(rng);
        let scn = scenario((2usize..5).generate(rng), (20u64..40).generate(rng));
        let window_ms = [250u64, 1000, 1500][(0usize..3).generate(rng)];
        let mut base = spec(seed, &scn, &config(RLive, 140, window_ms));
        base.policy = GroupPolicy::ab(CdnOnly, RLive);
        let specs = seeded(&base, &[seed, seed + 1, seed + 2]);
        let case = format!("obs seed {seed} window {window_ms} ms");
        assert_grid_invariant(&case, &GRID, |p| {
            let report = run_fleet(&specs, p);
            (exports(&report.obs), report)
        });
    });
}

/// The alert engine reads only sealed windows and per-world alert
/// streams merge in window order, so the merged alert stream and the
/// incident timeline derived from it are grid-invariant — and the
/// scripted outage must fire an alert.
#[test]
fn alert_stream_and_incidents_identical_across_worker_grid() {
    let specs = storm(&[7, 8]);
    let (report, incidents) = assert_grid_invariant("slo", &GRID, |p| {
        let r = run_fleet(&specs, p);
        let incidents = build_incidents(&specs[0].schedule, &r.slo, &r.obs, &r.sched_demotions);
        (r, incidents)
    });
    let alerts = format!("{:?}\n---\n{incidents:?}", report.slo);
    assert!(
        alerts.contains("Fired"),
        "no alert fired under the scripted outage — the battery tests nothing:\n{alerts}"
    );
}

// ----- single-world cases over LADDER --------------------------------

/// Random seeds, shapes and delivery modes: the report and the trace
/// stream. Central sequencing keeps relay frames sequential; its client
/// batches still shard.
#[test]
fn world_report_and_trace_are_ladder_invariant() {
    use DeliveryMode::{RLiveCentralSequencing, SingleSource};
    const DRAWS: &str = "shard_invariance::world_jobs_count_is_unobservable";
    six_cases(DRAWS, |rng| {
        let seed = (0u64..4096).generate(rng);
        let scn = scenario((2usize..5).generate(rng), (20u64..40).generate(rng));
        let mode =
            [RLive, CdnOnly, SingleSource, RLiveCentralSequencing][(0usize..4).generate(rng)];
        let spec = spec(seed, &scn, &config(mode, 140, 0));
        let case = format!("{mode:?} seed {seed}");
        assert_grid_invariant(&case, &LADDER, |shards| traced(&spec, shards));
    });
}

/// Formation is not vacuous: a small RLive world forms multi-event
/// batches (their counts are part of every report compared above).
#[test]
fn multi_event_batches_actually_form() {
    let (report, _) = traced(&spec(11, &scenario(3, 60), &config(RLive, 140, 0)), 4);
    assert!(
        report.shardable_batches > 0,
        "no multi-event batches formed — the invariance tests test nothing"
    );
    assert!(report.shardable_events >= 2 * report.shardable_batches);
}

/// A mass outage at several offsets: the churn, mode-switch and
/// recovery records of the trace stream.
#[test]
fn mass_outage_recovery_timeline_is_jobs_invariant() {
    for at in [10u64, 30, 60] {
        let mut spec = spec(40 + at, &scenario(3, 90), &config(RLive, 140, 0));
        spec.schedule.push(outage(at, 15, 0.5));
        let case = format!("outage at t={at}s");
        assert_grid_invariant(&case, &LADDER, |shards| traced(&spec, shards));
    }
}

/// Zero relays: empty shards and no relay-class batches must neither
/// deadlock nor panic the pool, and the world still plays via the CDN.
#[test]
fn zero_relay_world_survives_sharding() {
    let mut scn = scenario(2, 30);
    scn.population.count = 0;
    let spec = spec(9, &scn, &config(RLive, 140, 0));
    let (report, _) = assert_grid_invariant("zero relays", &LADDER, |shards| traced(&spec, shards));
    assert!(
        report.test_qoe.views > 0,
        "zero-relay world should still play via the CDN"
    );
}

/// One world's obs registry and its exports at 500 ms windows.
#[test]
fn single_world_obs_is_ladder_invariant() {
    let spec = spec(13, &scenario(3, 45), &config(RLive, 140, 500));
    assert_grid_invariant("single-world obs", &LADDER, |shards| {
        let report = world(&spec, shards).run();
        (exports(&report.obs), report)
    });
}

/// Obs is not vacuous: a world forms series and well-formed exports.
#[test]
fn reference_run_produces_series() {
    let cfg = config(RLive, 140, 1000);
    let obs = world(&spec(13, &scenario(3, 45), &cfg), 1).run().obs;
    assert!(obs.is_enabled());
    assert!(
        !obs.is_empty(),
        "no obs series formed — the battery tests nothing"
    );
    assert!(obs.records() > 0);
    assert!(obs.counter_total("session_joins") > 0);
    assert!(obs.to_jsonl().lines().count() > 1);
    let csv = obs.to_csv();
    assert!(csv.starts_with("kind,name,labels,window,start_ms,value"));
}

/// The seal watermark, the exports of the windows sealed during the run
/// and the alert stream of one storm world: the sharded loop's
/// min-across-shards watermark seals exactly the windows the sequential
/// clock does.
#[test]
fn streamed_export_is_ladder_invariant() {
    let spec = storm(&[13]).remove(0);
    let (sealed, ..) = assert_grid_invariant("streamed export", &LADDER, |shards| {
        let report = world(&spec, shards).run();
        (report.obs.sealed_below(), exports(&report.obs), report)
    });
    assert!(sealed > 0, "no window ever sealed");
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
        let mut cfg = config(RLive, 140, window_ms);
        cfg.slo_enabled = true;
        let mut world = world(&spec(13, &scenario(3, 45), &cfg), 1);
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
