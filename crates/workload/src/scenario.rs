//! End-to-end experiment scenarios.
//!
//! A [`Scenario`] bundles the knobs an experiment run needs: simulated
//! wall-clock window, viewer/node scale, stream popularity, and demand
//! multipliers. The presets mirror the paper's evaluation settings:
//! evening-peak A/B tests (§7.1), double-peak (§7.1), the two-tier
//! multi-vs-single comparison (§7.2), and the FIFA World Cup burst
//! (§7.3.3).

use crate::nodes::PopulationConfig;
use crate::streams::DiurnalModel;
use rlive_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A flash-crowd surge: between `at` and `at + duration` (offsets into
/// the run) the demand multiplier is scaled by `multiplier` on top of
/// the diurnal curve. Compiled from the scenario DSL's flash-crowd
/// phase; an empty surge list leaves demand exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandSurge {
    /// Offset into the run the surge starts at.
    pub at: SimDuration,
    /// How long the surge lasts.
    pub duration: SimDuration,
    /// Multiplier applied to demand while the surge is active (> 0).
    pub multiplier: f64,
}

/// Why a [`Scenario`] was rejected by [`Scenario::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// `streams == 0`: nothing to watch.
    ZeroStreams,
    /// `peak_viewers == 0`: nobody to watch it.
    ZeroViewers,
    /// `population.count == 0`: no best-effort nodes to generate.
    EmptyPopulation,
    /// `duration` is zero: the run window is empty.
    NonPositiveDuration,
    /// A scalar knob is out of range; the message names it.
    BadParameter(&'static str),
    /// A surge window falls outside the run window or is degenerate.
    BadSurge(&'static str),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::ZeroStreams => write!(f, "scenario has zero streams"),
            ScenarioError::ZeroViewers => write!(f, "scenario has zero peak viewers"),
            ScenarioError::EmptyPopulation => write!(f, "scenario has an empty node population"),
            ScenarioError::NonPositiveDuration => write!(f, "scenario duration must be positive"),
            ScenarioError::BadParameter(what) => write!(f, "invalid scenario parameter: {what}"),
            ScenarioError::BadSurge(what) => write!(f, "invalid demand surge: {what}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which preset a scenario was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// §7.1 Test 1: evening peak hours (8–11 pm).
    EveningPeak,
    /// §7.1 Test 2: noon plus evening peaks.
    DoublePeak,
    /// §7.3.3: a mega-broadcast burst (×demand on few streams).
    FifaWorldCup,
}

/// A fully specified experiment scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// The preset.
    pub kind: ScenarioKind,
    /// Simulated duration of the run.
    pub duration: SimDuration,
    /// Hour of day the run starts at (0–24).
    pub start_hour: f64,
    /// Peak concurrent viewers (scaled down from production).
    pub peak_viewers: usize,
    /// Number of distinct live streams.
    pub streams: usize,
    /// Zipf exponent of stream popularity.
    pub zipf_s: f64,
    /// Node population settings.
    pub population: PopulationConfig,
    /// Demand multiplier applied on top of the diurnal curve (FIFA uses
    /// a large one to model the broadcast surge).
    pub demand_multiplier: f64,
    /// The diurnal curve.
    pub diurnal: DiurnalModel,
    /// Time-windowed flash-crowd surges on top of the diurnal demand
    /// (empty for every preset; populated by the scenario DSL).
    pub surges: Vec<DemandSurge>,
}

impl Scenario {
    /// The §7.1 Test 1 setting: evening peak, defaults scaled for a
    /// laptop-sized simulation.
    pub fn evening_peak() -> Self {
        Scenario {
            kind: ScenarioKind::EveningPeak,
            duration: SimDuration::from_secs(600),
            start_hour: 21.0,
            peak_viewers: 600,
            streams: 12,
            zipf_s: 1.0,
            population: PopulationConfig {
                count: 400,
                ..PopulationConfig::default()
            },
            demand_multiplier: 1.0,
            diurnal: DiurnalModel::default(),
            surges: Vec::new(),
        }
    }

    /// The §7.1 Test 2 setting: noon peak window (the second A/B test
    /// extends RLive usage to noon; evening behaviour is unchanged).
    pub fn noon_peak() -> Self {
        Scenario {
            kind: ScenarioKind::DoublePeak,
            start_hour: 12.0,
            ..Scenario::evening_peak()
        }
    }

    /// The §7.3.3 FIFA World Cup case: a handful of mega streams, a
    /// demand surge well beyond the usual evening peak.
    pub fn fifa_world_cup() -> Self {
        Scenario {
            kind: ScenarioKind::FifaWorldCup,
            duration: SimDuration::from_secs(600),
            start_hour: 21.0,
            peak_viewers: 1_500,
            streams: 3,
            zipf_s: 1.5,
            population: PopulationConfig {
                count: 800,
                ..PopulationConfig::default()
            },
            demand_multiplier: 1.6,
            diurnal: DiurnalModel::default(),
            surges: Vec::new(),
        }
    }

    /// Concurrent-viewer target at an offset into the run.
    pub fn viewers_at(&self, offset: SimDuration) -> usize {
        let hour = self.start_hour + offset.as_secs_f64() / 3600.0;
        let base = self.diurnal.load_at(hour) * self.peak_viewers as f64;
        (base * self.demand_multiplier * self.surge_factor_at(offset)).round() as usize
    }

    /// Product of the multipliers of every surge active at `offset`
    /// (1.0 when none are — the common case, and an exact float
    /// identity, so surge-free scenarios are bit-identical to the
    /// pre-surge demand model).
    pub fn surge_factor_at(&self, offset: SimDuration) -> f64 {
        let mut factor = 1.0;
        for s in &self.surges {
            if offset >= s.at && offset < s.at + s.duration {
                factor *= s.multiplier;
            }
        }
        factor
    }

    /// Demand load (fraction of `peak_viewers`) at an offset into the
    /// run: the diurnal curve times the scenario multiplier times any
    /// active surge. This is the arrival-rate driver the session layer
    /// samples.
    pub fn demand_at(&self, offset: SimDuration) -> f64 {
        let hour = self.start_hour + offset.as_secs_f64() / 3600.0;
        self.diurnal.load_at(hour) * self.demand_multiplier * self.surge_factor_at(offset)
    }

    /// Rejects degenerate or out-of-range scenarios before they run
    /// silently: zero streams/viewers/nodes, an empty run window,
    /// non-finite or out-of-range scalar knobs, and surge windows that
    /// fall outside the run. `World::new` asserts this; the scenario
    /// DSL propagates it as a hard `Result`.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.streams == 0 {
            return Err(ScenarioError::ZeroStreams);
        }
        if self.peak_viewers == 0 {
            return Err(ScenarioError::ZeroViewers);
        }
        if self.population.count == 0 {
            return Err(ScenarioError::EmptyPopulation);
        }
        if self.duration.as_millis() == 0 {
            return Err(ScenarioError::NonPositiveDuration);
        }
        if !self.start_hour.is_finite() || !(0.0..24.0).contains(&self.start_hour) {
            return Err(ScenarioError::BadParameter("start_hour must be in [0, 24)"));
        }
        if !self.zipf_s.is_finite() || self.zipf_s < 0.0 {
            return Err(ScenarioError::BadParameter(
                "zipf_s must be finite and non-negative",
            ));
        }
        if !self.demand_multiplier.is_finite() || self.demand_multiplier <= 0.0 {
            return Err(ScenarioError::BadParameter(
                "demand_multiplier must be finite and positive",
            ));
        }
        if !self.population.high_quality_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.population.high_quality_fraction)
        {
            return Err(ScenarioError::BadParameter(
                "high_quality_fraction must be in [0, 1]",
            ));
        }
        if !self.population.capacity_scale.is_finite() || self.population.capacity_scale <= 0.0 {
            return Err(ScenarioError::BadParameter(
                "capacity_scale must be finite and positive",
            ));
        }
        if let Some(h) = self.population.nat_hard_fraction {
            if !h.is_finite() || !(0.0..=1.0).contains(&h) {
                return Err(ScenarioError::BadParameter(
                    "nat_hard_fraction must be in [0, 1]",
                ));
            }
        }
        for s in &self.surges {
            if s.duration.as_millis() == 0 {
                return Err(ScenarioError::BadSurge("surge duration must be non-zero"));
            }
            if !s.multiplier.is_finite() || s.multiplier <= 0.0 {
                return Err(ScenarioError::BadSurge(
                    "surge multiplier must be finite and positive",
                ));
            }
            if s.at + s.duration > self.duration {
                return Err(ScenarioError::BadSurge(
                    "surge window extends past the run window",
                ));
            }
        }
        Ok(())
    }

    /// Scales viewer and node counts by `factor` (for quick test runs
    /// and for stress sweeps).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.peak_viewers = ((self.peak_viewers as f64 * factor).round() as usize).max(1);
        self.population.count = ((self.population.count as f64 * factor).round() as usize).max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_windows() {
        assert_eq!(Scenario::evening_peak().start_hour, 21.0);
        assert_eq!(Scenario::noon_peak().start_hour, 12.0);
    }

    #[test]
    fn evening_peak_demand_exceeds_off_peak() {
        let evening = Scenario::evening_peak();
        // The 6 am trough.
        let off = Scenario {
            start_hour: 6.0,
            ..Scenario::evening_peak()
        };
        assert!(
            evening.viewers_at(SimDuration::ZERO) > 2 * off.viewers_at(SimDuration::ZERO),
            "evening {} off {}",
            evening.viewers_at(SimDuration::ZERO),
            off.viewers_at(SimDuration::ZERO)
        );
    }

    #[test]
    fn fifa_surges_beyond_evening() {
        let fifa = Scenario::fifa_world_cup();
        let evening = Scenario::evening_peak();
        assert!(fifa.viewers_at(SimDuration::ZERO) > 2 * evening.viewers_at(SimDuration::ZERO));
        assert!(fifa.streams < evening.streams, "FIFA concentrates demand");
    }

    #[test]
    fn scaling_preserves_shape() {
        let s = Scenario::evening_peak().scaled(0.5);
        assert_eq!(s.peak_viewers, 300);
        assert_eq!(s.population.count, 200);
        let tiny = Scenario::evening_peak().scaled(0.0001);
        assert!(tiny.peak_viewers >= 1);
    }

    #[test]
    fn presets_validate_clean() {
        for s in [
            Scenario::evening_peak(),
            Scenario::noon_peak(),
            Scenario::fifa_world_cup(),
        ] {
            assert_eq!(s.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_degenerate_scenarios() {
        let base = Scenario::evening_peak();

        let mut s = base.clone();
        s.streams = 0;
        assert_eq!(s.validate(), Err(ScenarioError::ZeroStreams));

        let mut s = base.clone();
        s.peak_viewers = 0;
        assert_eq!(s.validate(), Err(ScenarioError::ZeroViewers));

        let mut s = base.clone();
        s.population.count = 0;
        assert_eq!(s.validate(), Err(ScenarioError::EmptyPopulation));

        let mut s = base.clone();
        s.duration = SimDuration::ZERO;
        assert_eq!(s.validate(), Err(ScenarioError::NonPositiveDuration));

        let mut s = base.clone();
        s.start_hour = 24.5;
        assert!(matches!(s.validate(), Err(ScenarioError::BadParameter(_))));

        let mut s = base.clone();
        s.demand_multiplier = f64::NAN;
        assert!(matches!(s.validate(), Err(ScenarioError::BadParameter(_))));

        let mut s = base.clone();
        s.population.nat_hard_fraction = Some(1.5);
        assert!(matches!(s.validate(), Err(ScenarioError::BadParameter(_))));

        let mut s = base.clone();
        s.population.capacity_scale = 0.0;
        assert!(matches!(s.validate(), Err(ScenarioError::BadParameter(_))));
    }

    #[test]
    fn validate_rejects_bad_surges() {
        let mut s = Scenario::evening_peak();
        s.surges.push(DemandSurge {
            at: SimDuration::from_secs(500),
            duration: SimDuration::from_secs(200),
            multiplier: 2.0,
        });
        assert!(matches!(s.validate(), Err(ScenarioError::BadSurge(_))));

        s.surges[0] = DemandSurge {
            at: SimDuration::from_secs(10),
            duration: SimDuration::ZERO,
            multiplier: 2.0,
        };
        assert!(matches!(s.validate(), Err(ScenarioError::BadSurge(_))));

        s.surges[0] = DemandSurge {
            at: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(20),
            multiplier: -1.0,
        };
        assert!(matches!(s.validate(), Err(ScenarioError::BadSurge(_))));

        s.surges[0] = DemandSurge {
            at: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(20),
            multiplier: 3.0,
        };
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn surges_scale_demand_only_inside_their_window() {
        let mut s = Scenario::evening_peak();
        let quiet = s.demand_at(SimDuration::from_secs(15));
        s.surges.push(DemandSurge {
            at: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(10),
            multiplier: 2.5,
        });
        assert_eq!(s.demand_at(SimDuration::from_secs(15)), quiet * 2.5);
        assert_eq!(s.surge_factor_at(SimDuration::from_secs(5)), 1.0);
        // Window end is exclusive.
        assert_eq!(s.surge_factor_at(SimDuration::from_secs(20)), 1.0);
        assert!(s.viewers_at(SimDuration::from_secs(15)) > s.viewers_at(SimDuration::from_secs(5)));
    }

    #[test]
    fn viewers_follow_diurnal_within_run() {
        // A run starting at 6 am should see demand grow towards noon.
        let s = Scenario {
            start_hour: 6.0,
            duration: SimDuration::from_secs(6 * 3600),
            ..Scenario::evening_peak()
        };
        let early = s.viewers_at(SimDuration::ZERO);
        let later = s.viewers_at(SimDuration::from_secs(5 * 3600));
        assert!(later > early);
    }
}
