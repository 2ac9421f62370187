//! Best-effort node churn model.
//!
//! Fig 2(c) of the paper shows that best-effort nodes go offline
//! frequently: the median node lifespan is ~25.4 h and roughly half the
//! nodes live no more than one day. This module samples alternating
//! online/offline episodes from a lifespan distribution so that node
//! availability in the simulator has the same statistics.

use crate::rng::{EmpiricalCdf, SimRng};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Parameters of the alternating on/off churn process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Distribution of online episode lengths, in hours.
    lifespan_hours: EmpiricalCdf,
    /// Mean offline gap, in hours.
    pub mean_offline_hours: f64,
}

impl ChurnModel {
    /// The production-like model fitted to Fig 2(c): ~18 % of episodes
    /// under one hour, ~50 % under about a day (P50 = 25.4 h), with a
    /// tail out to ten days.
    pub fn production() -> Self {
        ChurnModel {
            lifespan_hours: EmpiricalCdf::from_points(&[
                (0.05, 0.0),
                (1.0, 0.18),
                (6.0, 0.33),
                (12.0, 0.41),
                (25.4, 0.50),
                (48.0, 0.68),
                (96.0, 0.84),
                (240.0, 1.0),
            ]),
            mean_offline_hours: 2.0,
        }
    }

    /// A model with effectively no churn, for dedicated-node comparisons
    /// and for isolating churn effects in ablations.
    pub fn stable() -> Self {
        ChurnModel {
            lifespan_hours: EmpiricalCdf::from_points(&[(1e6, 0.0), (2e6, 1.0)]),
            mean_offline_hours: 1e-6,
        }
    }

    /// Builds a model from an explicit lifespan CDF (hours).
    pub fn from_lifespan_cdf(lifespan_hours: EmpiricalCdf, mean_offline_hours: f64) -> Self {
        ChurnModel {
            lifespan_hours,
            mean_offline_hours,
        }
    }

    /// Samples one online episode length.
    pub fn sample_lifespan(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.lifespan_hours.sample(rng) * 3600.0)
    }

    /// Samples one offline gap length.
    pub fn sample_offline(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64((rng.exponential(self.mean_offline_hours) * 3600.0).max(1.0))
    }

    /// The `q`-quantile of the lifespan distribution, in hours.
    pub fn lifespan_quantile(&self, q: f64) -> f64 {
        self.lifespan_hours.quantile(q)
    }
}

/// The availability timeline of one node: alternating online/offline
/// episodes generated lazily and deterministically from the node's RNG,
/// the first on the first query. The model is read-only, so a whole
/// population shares one.
#[derive(Debug, Clone)]
pub struct ChurnTimeline {
    model: Arc<ChurnModel>,
    rng: SimRng,
    /// End of the current episode, unless `fresh`: no episode drawn yet.
    episode_end: SimTime,
    fresh: bool,
    online: bool,
    /// Failure injection: forces the *next* offline episode to this
    /// exact length (then reverts to the model).
    scripted_offline: Option<SimDuration>,
}

impl ChurnTimeline {
    /// Starts a timeline at t = 0. The initial phase is randomised so a
    /// large population is not synchronised. It is drawn at the first
    /// query from `rng`, which only this timeline reads, so the draws do
    /// not depend on when that is.
    pub fn new(model: impl Into<Arc<ChurnModel>>, rng: SimRng) -> Self {
        ChurnTimeline {
            model: model.into(),
            rng,
            episode_end: SimTime::ZERO,
            fresh: true,
            online: false,
            scripted_offline: None,
        }
    }

    /// A scripted timeline for failure injection: online until
    /// `online_until`, offline for `offline_for`, then online again and
    /// following the given model.
    pub fn scripted(
        model: impl Into<Arc<ChurnModel>>,
        rng: SimRng,
        online_until: SimTime,
        offline_for: SimDuration,
    ) -> Self {
        // Encode the script as the current (online) episode; the
        // subsequent offline episode is produced on the first flip by
        // overriding the sampled gap via a tiny wrapper model.
        ChurnTimeline {
            model: model.into(),
            rng,
            episode_end: online_until,
            fresh: false,
            online: true,
            scripted_offline: Some(offline_for),
        }
    }

    /// Advances to `now` and reports whether the node is online.
    pub fn is_online(&mut self, now: SimTime) -> bool {
        if std::mem::take(&mut self.fresh) {
            self.online = self.rng.chance(0.9);
            let len = if self.online {
                // Start at a random offset into a lifespan (length-biased
                // sampling is a refinement the population statistics skip).
                let full = self.model.sample_lifespan(&mut self.rng);
                full.mul_f64(self.rng.f64())
            } else {
                self.model
                    .sample_offline(&mut self.rng)
                    .mul_f64(self.rng.f64())
            };
            self.episode_end = SimTime::ZERO + len.max(SimDuration::from_secs(1));
        }
        while now >= self.episode_end {
            self.online = !self.online;
            let len = if self.online {
                self.model.sample_lifespan(&mut self.rng)
            } else if let Some(scripted) = self.scripted_offline.take() {
                scripted
            } else {
                self.model.sample_offline(&mut self.rng)
            };
            self.episode_end += len.max(SimDuration::from_secs(1));
        }
        self.online
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_median_matches_paper() {
        let model = ChurnModel::production();
        let p50 = model.lifespan_quantile(0.5);
        assert!((p50 - 25.4).abs() < 0.5, "p50 {p50}");
        // Roughly half the nodes live no more than one day: one day
        // falls between the 42nd and 55th percentiles.
        let (q42, q55) = (model.lifespan_quantile(0.42), model.lifespan_quantile(0.55));
        assert!(q42 <= 24.0 && 24.0 < q55, "q42 {q42} q55 {q55}");
    }

    #[test]
    fn sampled_lifespans_match_cdf() {
        let model = ChurnModel::production();
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let under_1h = (0..n)
            .filter(|_| model.sample_lifespan(&mut rng) <= SimDuration::from_secs(3600))
            .count();
        let frac = under_1h as f64 / n as f64;
        assert!((frac - 0.18).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn timeline_alternates() {
        let mut tl = ChurnTimeline::new(ChurnModel::production(), SimRng::new(9));
        let mut flips = 0;
        let mut last = tl.is_online(SimTime::ZERO);
        // Scan 60 simulated days at hour granularity.
        for h in 1..(60 * 24) {
            let cur = tl.is_online(SimTime::from_secs(h * 3600));
            if cur != last {
                flips += 1;
                last = cur;
            }
        }
        assert!(flips >= 10, "flips {flips}");
    }

    #[test]
    fn stable_model_stays_online() {
        let mut tl = ChurnTimeline::new(ChurnModel::stable(), SimRng::new(11));
        // Skip a potentially offline initial phase, then expect stability.
        let mut online_hours = 0;
        for h in 0..1000 {
            if tl.is_online(SimTime::from_secs(h * 3600)) {
                online_hours += 1;
            }
        }
        assert!(online_hours >= 990, "online {online_hours}");
    }

    #[test]
    fn population_availability_reasonable() {
        // With mean offline ~2h and median lifespan ~25h, the long-run
        // availability of the population should be high but not total.
        let model = ChurnModel::production();
        let mut rng = SimRng::new(13);
        let mut timelines: Vec<ChurnTimeline> = (0..500)
            .map(|i| ChurnTimeline::new(model.clone(), rng.fork(i)))
            .collect();
        let t = SimTime::from_secs(100 * 3600);
        let online = timelines
            .iter_mut()
            .map(|tl| tl.is_online(t))
            .filter(|&b| b)
            .count();
        let frac = online as f64 / 500.0;
        assert!((0.75..0.99).contains(&frac), "frac {frac}");
    }

    #[test]
    fn scripted_outage_hits_exact_window() {
        let mut tl = ChurnTimeline::scripted(
            ChurnModel::stable(),
            SimRng::new(3),
            SimTime::from_secs(60),
            SimDuration::from_secs(30),
        );
        assert!(tl.is_online(SimTime::from_secs(10)));
        assert!(tl.is_online(SimTime::from_secs(59)));
        assert!(!tl.is_online(SimTime::from_secs(61)));
        assert!(!tl.is_online(SimTime::from_secs(89)));
        assert!(tl.is_online(SimTime::from_secs(91)));
    }
}
