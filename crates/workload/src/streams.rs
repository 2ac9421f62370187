//! Stream popularity and diurnal load models.
//!
//! Table 1 of the paper gives the diurnal shape of the service: ~0.70 M
//! concurrent streams at 6 am, ~1.60 M at noon, ~1.75 M at 6 pm,
//! ~1.38 M at midnight, peaking at ~2.47 M; node count stays around
//! 0.9–1.05 M. Viewer concurrency per stream follows a heavy-tailed
//! (Zipf) popularity law. Experiments run scaled-down versions with the
//! same shape.

use rlive_sim::rng::{SimRng, Zipf};
use serde::{Deserialize, Serialize};

/// Zipf-based stream popularity: maps viewers to stream ranks.
#[derive(Debug, Clone)]
pub struct StreamPopularity {
    zipf: Zipf,
}

impl StreamPopularity {
    /// Builds a popularity law over `streams` ranks with Zipf exponent
    /// `s` (live platforms measure s ≈ 0.8–1.2; we default to 1.0).
    pub fn new(streams: usize, s: f64) -> Self {
        StreamPopularity {
            zipf: Zipf::new(streams, s),
        }
    }

    /// Samples the stream a newly arriving viewer joins (0 = hottest).
    pub fn sample_stream(&self, rng: &mut SimRng) -> usize {
        self.zipf.sample(rng)
    }

    /// Expected fraction of viewers on the top `k` streams.
    pub fn top_k_share(&self, k: usize) -> f64 {
        (0..k.min(self.zipf.len())).map(|i| self.zipf.pmf(i)).sum()
    }
}

/// The Table 1 diurnal load curve, normalised so experiments can scale
/// it to any population size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiurnalModel {
    /// `(hour, relative_load)` anchor points over a 24 h day;
    /// `relative_load = 1.0` at the evening peak.
    anchors: Vec<(f64, f64)>,
}

impl Default for DiurnalModel {
    fn default() -> Self {
        // Shape from Table 1 (streams by time of day), with the evening
        // peak normalised to 1.0 and an early-morning trough.
        DiurnalModel {
            anchors: vec![
                (0.0, 0.56), // midnight: 1.38M / 2.47M
                (3.0, 0.35),
                (6.0, 0.28), // 6 am: 0.70M
                (9.0, 0.48),
                (12.0, 0.65), // noon peak: 1.60M
                (14.0, 0.60),
                (17.0, 0.70),
                (18.0, 0.71), // 6 pm: 1.75M
                (21.0, 1.0),  // evening peak: 2.47M
                (23.0, 0.75),
                (24.0, 0.56),
            ],
        }
    }
}

impl DiurnalModel {
    /// Relative load at `hour` (0–24, wrapped), linearly interpolated.
    pub fn load_at(&self, hour: f64) -> f64 {
        let h = hour.rem_euclid(24.0);
        for w in self.anchors.windows(2) {
            let (h0, l0) = w[0];
            let (h1, l1) = w[1];
            if h >= h0 && h <= h1 {
                let t = if h1 > h0 { (h - h0) / (h1 - h0) } else { 0.0 };
                return l0 + t * (l1 - l0);
            }
        }
        self.anchors.last().map(|&(_, l)| l).unwrap_or(1.0)
    }

    /// Concurrent-viewer target at `hour` for a peak population.
    pub fn viewers_at(&self, hour: f64, peak_viewers: usize) -> usize {
        (self.load_at(hour) * peak_viewers as f64).round() as usize
    }

    /// Whether `hour` falls in the evening peak window (8 pm – 11 pm).
    pub fn is_evening_peak(hour: f64) -> bool {
        let h = hour.rem_euclid(24.0);
        (20.0..23.0).contains(&h)
    }

    /// Whether `hour` falls in the noon peak window (11 am – 2 pm).
    pub fn is_noon_peak(hour: f64) -> bool {
        let h = hour.rem_euclid(24.0);
        (11.0..14.0).contains(&h)
    }
}

/// A Poisson viewer arrival process whose rate follows the diurnal
/// curve, producing exponential inter-arrival gaps.
#[derive(Debug, Clone)]
pub struct ViewerArrivals {
    model: DiurnalModel,
    /// Arrival rate (viewers/second) at the evening peak.
    peak_rate: f64,
}

impl ViewerArrivals {
    /// Creates an arrival process.
    pub fn new(model: DiurnalModel, peak_rate: f64) -> Self {
        ViewerArrivals { model, peak_rate }
    }

    /// Samples the gap to the next arrival at simulation hour `hour`.
    pub fn next_gap_secs(&self, hour: f64, rng: &mut SimRng) -> f64 {
        let rate = (self.model.load_at(hour) * self.peak_rate).max(1e-6);
        rng.exponential(1.0 / rate)
    }
}

/// Viewing-session length model: most live viewers leave quickly, some
/// stay for the whole show. Lognormal with a median of ~90 s.
pub fn sample_view_duration_secs(rng: &mut SimRng) -> f64 {
    rng.lognormal(4.5, 1.1).clamp(5.0, 7_200.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_top_heavy() {
        let pop = StreamPopularity::new(1_000, 1.0);
        let top10 = pop.top_k_share(10);
        // With s=1 over 1000 ranks, top-10 carries ~39 % of viewers.
        assert!((0.3..0.5).contains(&top10), "top10 {top10}");
        assert!(pop.top_k_share(1_000) > 0.999);
    }

    #[test]
    fn sampling_respects_popularity() {
        let pop = StreamPopularity::new(100, 1.0);
        let mut rng = SimRng::new(3);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[pop.sample_stream(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] * 5);
    }

    #[test]
    fn diurnal_shape_matches_table1() {
        let m = DiurnalModel::default();
        // Ratios from Table 1: 6am/peak = 0.70/2.47, noon/peak = 1.60/2.47.
        assert!((m.load_at(6.0) - 0.28).abs() < 0.02);
        assert!((m.load_at(12.0) - 0.65).abs() < 0.02);
        assert!((m.load_at(21.0) - 1.0).abs() < 1e-9);
        // Evening peak dominates noon.
        assert!(m.load_at(21.0) > m.load_at(12.0));
    }

    #[test]
    fn diurnal_wraps_and_interpolates() {
        let m = DiurnalModel::default();
        assert!((m.load_at(24.0) - m.load_at(0.0)).abs() < 1e-9);
        assert!((m.load_at(25.0) - m.load_at(1.0)).abs() < 1e-9);
        // Mid-segment interpolation stays between anchors.
        let v = m.load_at(19.5);
        assert!(v > m.load_at(18.0) && v < m.load_at(21.0));
    }

    #[test]
    fn peak_windows() {
        assert!(DiurnalModel::is_evening_peak(21.0));
        assert!(!DiurnalModel::is_evening_peak(15.0));
        assert!(DiurnalModel::is_noon_peak(12.0));
        assert!(!DiurnalModel::is_noon_peak(21.0));
    }

    #[test]
    fn viewers_scale_with_peak() {
        let m = DiurnalModel::default();
        assert_eq!(m.viewers_at(21.0, 10_000), 10_000);
        let six_am = m.viewers_at(6.0, 10_000);
        assert!((2_700..3_000).contains(&six_am), "{six_am}");
    }

    #[test]
    fn arrivals_faster_at_peak() {
        let arr = ViewerArrivals::new(DiurnalModel::default(), 100.0);
        let mut rng = SimRng::new(5);
        let n = 5_000;
        let mean_peak: f64 = (0..n)
            .map(|_| arr.next_gap_secs(21.0, &mut rng))
            .sum::<f64>()
            / n as f64;
        let mean_trough: f64 = (0..n)
            .map(|_| arr.next_gap_secs(6.0, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(
            mean_trough > mean_peak * 2.0,
            "{mean_trough} vs {mean_peak}"
        );
    }

    #[test]
    fn view_durations_reasonable() {
        let mut rng = SimRng::new(7);
        let mut under_30 = 0;
        let n = 10_000;
        for _ in 0..n {
            let d = sample_view_duration_secs(&mut rng);
            assert!((5.0..=7_200.0).contains(&d));
            if d >= 30.0 {
                under_30 += 1;
            }
        }
        // A solid majority watch past the 30 s multi-source gate (§7.1.1).
        let frac = under_30 as f64 / n as f64;
        assert!(frac > 0.6, "frac over 30s: {frac}");
    }
}
