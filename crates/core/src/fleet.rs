//! Fleet execution: N worlds, one deterministic merged report.
//!
//! The paper's headline evaluation (Table 2, Fig 8–11, Table 4) is
//! fleet-scale — every number is an aggregate over many independent
//! worlds (days, A/B arms, regions). A [`Fleet`] owns that shape once,
//! instead of every experiment module hand-rolling its own seed loop:
//!
//! 1. **Specs** — a fleet is a list of [`WorldSpec`]s, typically built
//!    from one shared scenario/config/policy base that varies only by
//!    seed ([`Fleet::seeded`]) or by a (variant × seed) grid
//!    ([`Fleet::product`]).
//! 2. **Execution** — [`Fleet::run`] maps every spec onto the shared
//!    deterministic cell pool ([`rlive_sim::runner::run_cells`]), so a
//!    fleet of sharded worlds uses `jobs × world_jobs` cores.
//! 3. **Fold** — per-world [`RunReport`]s come back in spec-index order
//!    and are folded left-to-right with the exactly-associative
//!    `Summary`/`Percentiles` merge algebra (see
//!    `rlive_sim::metrics`), so the [`FleetReport`] is byte-identical
//!    for any (`jobs`, `world_jobs`) combination.
//!
//! The per-world reports are kept (in spec order) alongside the merged
//! aggregates: fleet-scale tables read the merged fields, per-day
//! series and dispersion statistics read `worlds`.

use crate::config::SystemConfig;
use crate::cost::TrafficLedger;
use crate::qoe::GroupQoe;
use crate::world::{GroupPolicy, RunReport, World};
use rlive_sim::metrics::Percentiles;
use rlive_sim::obs::{time_stage, Stage};
use rlive_sim::runner::{run_cells, RunnerStats};
use rlive_sim::trace::TraceCounters;
use rlive_sim::{MetricRegistry, SimDuration, SloReport};
use rlive_workload::dsl::ScriptedEvent;
use rlive_workload::scenario::Scenario;
use std::collections::BTreeMap;

/// Everything one fleet member needs to build and run its world.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// RNG seed of this world.
    pub seed: u64,
    /// Workload scenario.
    pub scenario: Scenario,
    /// System configuration (mode, thresholds, sharding knobs).
    pub config: SystemConfig,
    /// Per-group delivery policy.
    pub policy: GroupPolicy,
    /// Scripted disruptions (mass/regional outages, churn storms)
    /// injected in order right after the world is built — typically
    /// compiled from a `ScenarioProgram` phase list; empty for
    /// undisturbed worlds.
    pub schedule: Vec<ScriptedEvent>,
}

impl WorldSpec {
    /// Builds the world and applies the scripted-event schedule.
    ///
    /// # Panics
    ///
    /// Panics if a scheduled event is rejected by its injection hook
    /// (zero-length window, out-of-range region): specs built from the
    /// validated DSL cannot hit this; hand-built specs that do are a
    /// programming error.
    pub fn build(&self) -> World {
        let mut world = World::new(
            self.scenario.clone(),
            self.config.clone(),
            self.policy.clone(),
            self.seed,
        );
        for ev in &self.schedule {
            world.inject(ev).expect("invalid WorldSpec scripted event");
        }
        world
    }

    /// Builds and runs the world to completion.
    pub fn run(&self) -> RunReport {
        self.build().run()
    }
}

/// N worlds that run as one deterministic unit.
#[derive(Debug, Clone)]
pub struct Fleet {
    label: String,
    specs: Vec<WorldSpec>,
}

impl Fleet {
    /// Creates an empty fleet; populate it with [`Fleet::push`].
    pub fn new(label: impl Into<String>) -> Self {
        Fleet {
            label: label.into(),
            specs: Vec::new(),
        }
    }

    /// The common case: N worlds sharing one scenario, configuration
    /// and group policy, differing only by seed.
    pub fn seeded(
        label: impl Into<String>,
        scenario: &Scenario,
        config: &SystemConfig,
        policy: &GroupPolicy,
        seeds: &[u64],
    ) -> Self {
        let mut fleet = Fleet::new(label);
        for &seed in seeds {
            fleet.push(WorldSpec {
                seed,
                scenario: scenario.clone(),
                config: config.clone(),
                policy: policy.clone(),
                schedule: Vec::new(),
            });
        }
        fleet
    }

    /// A (outer × inner) grid of worlds in outer-major order: for each
    /// outer element, one spec per inner element. This is the shape of
    /// every per-day mode/threshold comparison in the experiment
    /// harness (days × modes, thresholds × days, …).
    pub fn product<A, B>(
        label: impl Into<String>,
        outer: &[A],
        inner: &[B],
        mut build: impl FnMut(&A, &B) -> WorldSpec,
    ) -> Self {
        let mut fleet = Fleet::new(label);
        for a in outer {
            for b in inner {
                fleet.push(build(a, b));
            }
        }
        fleet
    }

    /// Appends one world.
    pub fn push(&mut self, spec: WorldSpec) {
        self.specs.push(spec);
    }

    /// The fleet's label (used for runner progress lines).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The specs, in execution (spec-index) order.
    pub fn specs(&self) -> &[WorldSpec] {
        &self.specs
    }

    /// Number of worlds.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` if the fleet has no worlds.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Runs every world on `jobs` pool workers and folds the reports.
    pub fn run(self, jobs: usize) -> FleetReport {
        self.run_instrumented(jobs, |_, _, _| {}).0
    }

    /// [`Fleet::run`] plus pool accounting and a progress callback
    /// (`done, total, workers` — the `run_cells` contract). Progress
    /// side effects must stay off stdout to keep experiment output
    /// byte-comparable across worker counts.
    pub fn run_instrumented(
        self,
        jobs: usize,
        progress: impl FnMut(usize, usize, usize),
    ) -> (FleetReport, RunnerStats) {
        let (worlds, stats) = run_cells(&self.label, jobs, &self.specs, progress, WorldSpec::run);
        (FleetReport::fold(worlds), stats)
    }
}

/// Min/median/max of one metric across a fleet's worlds.
#[derive(Debug, Clone, Copy)]
pub struct Dispersion {
    /// Smallest per-world value.
    pub min: f64,
    /// Median per-world value.
    pub median: f64,
    /// Largest per-world value.
    pub max: f64,
}

/// The deterministic fold of a fleet's per-world [`RunReport`]s.
///
/// Merged fields use the exactly-associative accumulator algebra
/// (`Summary` raw moments, `Percentiles` concatenation, integer sums),
/// folded in spec-index order; `worlds` retains the unmerged reports in
/// the same order for per-day series and dispersion queries. Group
/// energy aggregates are intentionally *not* merged — they are
/// per-session means whose cross-world weights the report no longer
/// carries; read them per world.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-world reports, in spec order.
    pub worlds: Vec<RunReport>,
    /// Control-group QoE merged across all worlds.
    pub control_qoe: GroupQoe,
    /// Test-group QoE merged across all worlds.
    pub test_qoe: GroupQoe,
    /// Control-group traffic merged across all worlds.
    pub control_traffic: TrafficLedger,
    /// Test-group traffic merged across all worlds.
    pub test_traffic: TrafficLedger,
    /// Simulator event counts merged across all worlds.
    pub event_counts: TraceCounters,
    /// Scheduler requests served, summed.
    pub scheduler_requests: u64,
    /// Invalid-candidate fraction, weighted by each world's scheduler
    /// request count (0 when no world served a request).
    pub invalid_candidate_fraction: f64,
    /// Windowed observability series merged window-wise across all
    /// worlds (spec-index-order fold, exactly associative on the
    /// integer parts). Disabled/empty unless the worlds ran with
    /// `SystemConfig::obs_window_ms` set.
    pub obs: MetricRegistry,
    /// SLO alert streams merged in window order across all worlds
    /// (exactly associative; empty unless the worlds ran with
    /// `SystemConfig::slo_enabled`).
    pub slo: SloReport,
    /// Per-window scheduler demotion counts summed element-wise across
    /// all worlds (empty unless some world ran the adaptive policy).
    pub sched_demotions: BTreeMap<u64, u64>,
    /// Total simulated time across the fleet.
    pub duration: SimDuration,
}

impl FleetReport {
    /// Folds per-world reports (already in spec-index order).
    pub fn fold(worlds: Vec<RunReport>) -> Self {
        // Stage-profiled (wall clock, stderr-only reporting).
        let _span = time_stage(Stage::FleetFold);
        let mut report = FleetReport {
            worlds: Vec::new(),
            control_qoe: GroupQoe::new(),
            test_qoe: GroupQoe::new(),
            control_traffic: TrafficLedger::new(),
            test_traffic: TrafficLedger::new(),
            event_counts: TraceCounters::new(),
            scheduler_requests: 0,
            invalid_candidate_fraction: 0.0,
            obs: MetricRegistry::disabled(),
            slo: SloReport::default(),
            sched_demotions: BTreeMap::new(),
            duration: SimDuration::ZERO,
        };
        let mut invalid_weighted = 0.0;
        for w in &worlds {
            report.control_qoe.merge(&w.control_qoe);
            report.test_qoe.merge(&w.test_qoe);
            report.control_traffic.merge(&w.control_traffic);
            report.test_traffic.merge(&w.test_traffic);
            report.event_counts.merge(&w.event_counts);
            report.scheduler_requests += w.scheduler_requests;
            invalid_weighted += w.invalid_candidate_fraction * w.scheduler_requests as f64;
            report.obs.merge(&w.obs);
            report.slo.merge(&w.slo);
            for (&win, &n) in &w.sched_demotions {
                *report.sched_demotions.entry(win).or_insert(0) += n;
            }
            report.duration += w.duration;
        }
        if report.scheduler_requests > 0 {
            report.invalid_candidate_fraction = invalid_weighted / report.scheduler_requests as f64;
        }
        report.worlds = worlds;
        report
    }

    /// Number of worlds folded in.
    pub fn world_count(&self) -> usize {
        self.worlds.len()
    }

    /// Min/median/max of `metric` across the per-world reports
    /// (0/0/0 for an empty fleet). Non-finite per-world values are
    /// skipped by the underlying accumulator rather than propagated.
    pub fn dispersion(&self, metric: impl Fn(&RunReport) -> f64) -> Dispersion {
        let mut p = Percentiles::new();
        for w in &self.worlds {
            p.add(metric(w));
        }
        Dispersion {
            min: p.quantile(0.0),
            median: p.median(),
            max: p.quantile(1.0),
        }
    }

    /// Total non-finite samples skipped across both groups' merged QoE
    /// accumulators — non-zero means some world produced rogue samples
    /// that were dropped instead of poisoning the fleet tables.
    pub fn skipped_samples(&self) -> u64 {
        self.control_qoe.skipped_samples() + self.test_qoe.skipped_samples()
    }
}

// Fleets cross the pool's thread boundary; pin the auto-traits so a
// future field can't silently regress parallel execution.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<WorldSpec>();
    assert_send::<Fleet>();
    assert_send::<FleetReport>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeliveryMode;
    use rlive_workload::scenario::Scenario;

    fn tiny_scenario() -> Scenario {
        let mut s = Scenario::evening_peak().scaled(0.05);
        s.duration = SimDuration::from_secs(25);
        s.streams = 2;
        s
    }

    fn tiny_config() -> SystemConfig {
        let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
        cfg.multi_source_after = SimDuration::from_secs(5);
        cfg.popularity_threshold = 1;
        cfg.cdn_edge_mbps = 80;
        cfg
    }

    fn tiny_fleet(seeds: &[u64]) -> Fleet {
        Fleet::seeded(
            "test-fleet",
            &tiny_scenario(),
            &tiny_config(),
            &GroupPolicy::uniform(DeliveryMode::RLive),
            seeds,
        )
    }

    #[test]
    fn seeded_fleet_builds_one_spec_per_seed() {
        let fleet = tiny_fleet(&[3, 4, 5]);
        assert_eq!(fleet.len(), 3);
        assert_eq!(
            fleet.specs().iter().map(|s| s.seed).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert!(!fleet.is_empty());
        assert_eq!(fleet.label(), "test-fleet");
    }

    #[test]
    fn product_is_outer_major() {
        let scenario = tiny_scenario();
        let config = tiny_config();
        let fleet = Fleet::product("grid", &[10u64, 20], &['a', 'b'], |&seed, &tag| WorldSpec {
            seed: seed + (tag as u64 - 'a' as u64),
            scenario: scenario.clone(),
            config: config.clone(),
            policy: GroupPolicy::uniform(DeliveryMode::RLive),
            schedule: Vec::new(),
        });
        assert_eq!(
            fleet.specs().iter().map(|s| s.seed).collect::<Vec<_>>(),
            vec![10, 11, 20, 21]
        );
    }

    #[test]
    fn fold_merges_counts_and_keeps_worlds() {
        let fleet = tiny_fleet(&[7, 8]);
        let report = fleet.run(1);
        assert_eq!(report.world_count(), 2);
        let views: u64 = report.worlds.iter().map(|w| w.test_qoe.views).sum();
        assert_eq!(report.test_qoe.views, views);
        assert!(views > 0);
        let watch: f64 = report.worlds.iter().map(|w| w.test_qoe.watch_secs).sum();
        assert!((report.test_qoe.watch_secs - watch).abs() < 1e-9);
        let bytes: u64 = report
            .worlds
            .iter()
            .map(|w| w.test_traffic.client_bytes())
            .sum();
        assert_eq!(report.test_traffic.client_bytes(), bytes);
        assert_eq!(
            report.duration,
            SimDuration::from_secs(2 * tiny_scenario().duration.as_secs_f64() as u64)
        );
        assert_eq!(report.skipped_samples(), 0);
    }

    #[test]
    fn empty_fleet_folds_to_zeroes() {
        let report = Fleet::new("empty").run(4);
        assert_eq!(report.world_count(), 0);
        assert_eq!(report.test_qoe.views, 0);
        assert_eq!(report.scheduler_requests, 0);
        assert_eq!(report.invalid_candidate_fraction, 0.0);
        let d = report.dispersion(|w| w.test_qoe.views as f64);
        assert_eq!((d.min, d.median, d.max), (0.0, 0.0, 0.0));
    }

    #[test]
    fn dispersion_brackets_the_median() {
        let report = tiny_fleet(&[1, 2, 3]).run(2);
        let d = report.dispersion(|w| w.test_qoe.views as f64);
        assert!(d.min <= d.median && d.median <= d.max);
        assert!(d.max > 0.0);
    }

    #[test]
    fn fleet_report_is_jobs_invariant() {
        let a = format!("{:?}", tiny_fleet(&[11, 12, 13]).run(1));
        let b = format!("{:?}", tiny_fleet(&[11, 12, 13]).run(3));
        assert_eq!(a, b, "worker count changed the folded FleetReport");
    }
}
