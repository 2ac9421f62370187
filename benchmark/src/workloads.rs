//! The four workloads: closed batch jobs, a fixed scenario in and a
//! complete `RunReport` out.
//!
//! Populations decide which layer does the work, so they are never cut
//! to fit a time budget; simulated seconds are. Every world runs on one
//! thread (`world_jobs = 1`). The seed reaches the program only through
//! the generated [`WorldSpec`]s.
//!
//! One seed makes a *panel* of worlds, not one world: the same scenario
//! under `panel` different world seeds. A single 300-viewer world is a
//! small random sample (its allocation count moves by 19 % between
//! seeds on `storm`); a run measures the whole panel so that its
//! numbers describe the program rather than one draw of the inputs.
//! Short worlds in large panels also give host noise, which comes in
//! phases of seconds, fewer chances to cover every sample.

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::GroupPolicy;
use rlive::{ScriptedEvent, WorldSpec};
use rlive_data::recovery::RecoveryPolicyKind;
use rlive_sim::{SimDuration, SimTime};
use rlive_workload::scenario::Scenario;

/// Which layer a workload is built to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Large idle-majority registry, default RLive config: the
    /// scheduler's read path does the work, relays carry nothing.
    Scheduler,
    /// Small population, early multi-source upgrade, long run: actors,
    /// reorder/sequencing and the event queue do the work.
    DataPlane,
    /// [`Shape::DataPlane`] plus a mass outage, a churn storm, racing
    /// recovery and live obs/SLO.
    Storm,
}

/// One workload's fixed sizes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One sentence: why the workload exists.
    pub why: &'static str,
    pub nodes: usize,
    pub viewers: usize,
    pub streams: usize,
    pub sim_secs: u64,
    /// Distinct world seeds one benchmark seed expands to.
    pub panel: usize,
    shape: Shape,
}

/// The workload table. Sizes are the ones recorded in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sched_10k",
        why: "control-plane read path on a cold, idle-majority 10k-node registry; the data plane does little",
        nodes: 10_000,
        viewers: 15_000,
        streams: 8,
        sim_secs: 4,
        panel: 8,
        shape: Shape::Scheduler,
    },
    Workload {
        name: "sched_30k",
        why: "the population cliff: only node and viewer counts differ from sched_10k, so their ratio isolates O(population) cost",
        nodes: 30_000,
        viewers: 45_000,
        streams: 8,
        sim_secs: 1,
        panel: 4,
        shape: Shape::Scheduler,
    },
    Workload {
        name: "dataplane",
        why: "200 nodes and 300 viewers bypass scheduler scale; actors, reorder, sequencing and the event queue do the work",
        nodes: 200,
        viewers: 300,
        streams: 4,
        sim_secs: 120,
        panel: 4,
        shape: Shape::DataPlane,
    },
    Workload {
        name: "storm",
        why: "dataplane inputs under a mass outage and a churn storm with racing recovery and live obs and SLO: the same layers used differently",
        nodes: 200,
        viewers: 300,
        streams: 4,
        sim_secs: 120,
        panel: 4,
        shape: Shape::Storm,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` variant: 1/20 of the populations, a quarter of the
    /// simulated time and a panel of two, so the harness itself can be
    /// tested in seconds. Smoke numbers mean nothing.
    pub fn smoke(mut self) -> Workload {
        self.nodes = (self.nodes / 20).max(10);
        self.viewers = (self.viewers / 20).max(15);
        self.sim_secs = (self.sim_secs / 4).max(1);
        self.panel = 2;
        self
    }

    /// Builds the scenario. Timed by the caller as part of `setup_s`.
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::evening_peak();
        s.duration = SimDuration::from_secs(self.sim_secs);
        s.peak_viewers = self.viewers;
        s.streams = self.streams;
        s.population.count = self.nodes;
        if self.shape != Shape::Scheduler {
            s.population.isps = 2;
            s.population.regions = 4;
            s.population.high_quality_fraction = 0.10;
        }
        s
    }

    fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
        cfg.world_jobs = 1;
        if self.shape == Shape::Scheduler {
            return cfg;
        }
        cfg.cdn_edge_mbps = 300;
        cfg.multi_source_after = SimDuration::from_secs(5);
        cfg.popularity_threshold = 1;
        if self.shape == Shape::Storm {
            cfg.recovery_policy = RecoveryPolicyKind::Racing;
            cfg.obs_window_ms = 1000;
            cfg.slo_enabled = true;
        }
        cfg
    }

    /// The storm script, placed at fixed fractions of the run: 60 % of
    /// relays dark over the second quarter, then 40 % flapping from
    /// 5/8 of the run for a fifth of it.
    fn schedule(&self) -> Vec<ScriptedEvent> {
        if self.shape != Shape::Storm {
            return Vec::new();
        }
        let at = |num: u64, den: u64| self.sim_secs * 1000 * num / den;
        vec![
            ScriptedEvent::MassOutage {
                at: SimTime::from_millis(at(1, 4)),
                duration: SimDuration::from_millis(at(1, 4)),
                fraction: 0.6,
            },
            ScriptedEvent::ChurnStorm {
                at: SimTime::from_millis(at(5, 8)),
                duration: SimDuration::from_millis(at(1, 5)),
                fraction: 0.4,
            },
        ]
    }

    /// The complete input of world `k` of the panel that `seed` makes.
    pub fn spec(&self, seed: u64, k: usize) -> WorldSpec {
        WorldSpec {
            seed: seed.wrapping_mul(1000).wrapping_add(k as u64),
            scenario: self.scenario(),
            config: self.config(),
            policy: GroupPolicy::uniform(DeliveryMode::RLive),
            schedule: self.schedule(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn only_population_differs_between_the_sched_tiers() {
        let a = by_name("sched_10k").unwrap().spec(1, 0);
        let b = by_name("sched_30k").unwrap().spec(1, 0);
        assert_eq!(b.scenario.population.count, 3 * a.scenario.population.count);
        assert_eq!(b.scenario.peak_viewers, 3 * a.scenario.peak_viewers);
        assert_eq!(a.scenario.streams, b.scenario.streams);
        assert_eq!(format!("{:?}", a.config), format!("{:?}", b.config));
    }

    #[test]
    fn storm_is_dataplane_plus_script_recovery_and_obs() {
        let d = by_name("dataplane").unwrap().spec(1, 0);
        let s = by_name("storm").unwrap().spec(1, 0);
        assert_eq!(format!("{:?}", d.scenario), format!("{:?}", s.scenario));
        assert!(d.schedule.is_empty() && s.schedule.len() == 2);
        assert_eq!(d.config.obs_window_ms, 0);
        assert!(s.config.obs_window_ms > 0 && s.config.slo_enabled);
        assert_eq!(s.config.recovery_policy, RecoveryPolicyKind::Racing);
    }

    #[test]
    fn panels_of_different_seeds_share_no_world() {
        let w = by_name("storm").unwrap();
        let seeds =
            |seed: u64| -> Vec<u64> { (0..w.panel).map(|k| w.spec(seed, k).seed).collect() };
        let (a, b) = (seeds(101), seeds(102));
        assert!(a.iter().all(|s| !b.contains(s)));
        assert_eq!(a.len(), w.panel);
        assert!(a.windows(2).all(|p| p[0] != p[1]));
    }

    #[test]
    fn every_scenario_validates_at_both_sizes() {
        for w in &WORKLOADS {
            assert_eq!(w.scenario().validate(), Ok(()), "{}", w.name);
            assert_eq!(w.smoke().scenario().validate(), Ok(()), "{}", w.name);
        }
    }
}
