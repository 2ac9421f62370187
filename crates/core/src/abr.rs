//! Client-side adaptive bitrate (ABR) selection.
//!
//! A simple, production-flavoured hybrid rule: pick the highest ladder
//! rung whose bitrate fits under a safety fraction of the EWMA
//! throughput estimate, and step down immediately after a rebuffer.
//! Rung changes are rate-limited to avoid oscillation.

use crate::config::{BASE_RUNG, BITRATE_LADDER};
use rlive_sim::{SimDuration, SimTime};

/// Fraction of estimated throughput a rung may consume.
const SAFETY: f64 = 0.8;

/// EWMA smoothing factor per throughput sample.
const ALPHA: f64 = 0.15;

/// Minimum time between rung changes.
const MIN_DWELL: SimDuration = SimDuration::from_secs(4);

/// Per-client ABR state.
#[derive(Debug, Clone)]
pub struct AbrState {
    /// EWMA throughput estimate, bits per second.
    throughput_bps: f64,
    rung: usize,
    last_change: SimTime,
}

impl Default for AbrState {
    fn default() -> Self {
        AbrState::new()
    }
}

impl AbrState {
    /// Starts at the base rung with an optimistic throughput estimate.
    pub fn new() -> Self {
        AbrState {
            throughput_bps: BITRATE_LADDER[BASE_RUNG] as f64 * 1.5,
            rung: BASE_RUNG,
            last_change: SimTime::ZERO,
        }
    }

    /// Current rung index into [`BITRATE_LADDER`].
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Current selected bitrate, bps.
    pub fn bitrate_bps(&self) -> u64 {
        BITRATE_LADDER[self.rung]
    }

    /// Byte scale factor relative to the base encoding.
    pub fn scale(&self) -> f64 {
        self.bitrate_bps() as f64 / BITRATE_LADDER[BASE_RUNG] as f64
    }

    /// Current throughput estimate, bps.
    pub fn throughput_bps(&self) -> f64 {
        self.throughput_bps
    }

    /// Feeds one delivery observation: `bytes` arrived over `elapsed`.
    pub fn observe(&mut self, bytes: u64, elapsed: SimDuration) {
        let secs = elapsed.as_secs_f64();
        if secs <= 1e-6 {
            return;
        }
        let sample = bytes as f64 * 8.0 / secs;
        self.throughput_bps = (1.0 - ALPHA) * self.throughput_bps + ALPHA * sample;
    }

    /// Periodic rung re-evaluation. Returns the new rung if it changed.
    pub fn evaluate(&mut self, now: SimTime) -> Option<usize> {
        if now.saturating_since(self.last_change) < MIN_DWELL {
            return None;
        }
        let budget = self.throughput_bps * SAFETY;
        let mut target = 0;
        for (i, &rate) in BITRATE_LADDER.iter().enumerate() {
            if (rate as f64) <= budget {
                target = i;
            }
        }
        // Step at most one rung up at a time; drops can be immediate.
        let new = if target > self.rung {
            self.rung + 1
        } else {
            target
        };
        if new != self.rung {
            self.rung = new;
            self.last_change = now;
            Some(new)
        } else {
            None
        }
    }

    /// Reacts to a rebuffering event: step down one rung immediately.
    pub fn on_rebuffer(&mut self, now: SimTime) {
        if self.rung > 0 {
            self.rung -= 1;
            self.last_change = now;
            // Also deflate the estimate so we do not climb right back.
            self.throughput_bps = self.throughput_bps.min(self.bitrate_bps() as f64 * 1.2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn feed(abr: &mut AbrState, bps: f64, samples: usize) {
        for _ in 0..samples {
            abr.observe((bps / 8.0 / 10.0) as u64, SimDuration::from_millis(100));
        }
    }

    #[test]
    fn recovers_to_top_rung_under_good_throughput() {
        let mut abr = AbrState::new();
        abr.on_rebuffer(secs(1));
        assert_eq!(abr.rung(), BASE_RUNG - 1);
        feed(&mut abr, 10_000_000.0, 100);
        let changed = abr.evaluate(secs(10));
        assert_eq!(changed, Some(BASE_RUNG));
        assert_eq!(abr.bitrate_bps(), 3_000_000);
    }

    #[test]
    fn drops_under_poor_throughput() {
        let mut abr = AbrState::new();
        feed(&mut abr, 900_000.0, 100);
        abr.evaluate(secs(10));
        assert_eq!(abr.bitrate_bps(), 800_000);
    }

    #[test]
    fn one_rung_up_at_a_time() {
        let mut abr = AbrState::new();
        abr.on_rebuffer(secs(0));
        abr.on_rebuffer(secs(0));
        assert_eq!(abr.rung(), 0);
        // Massive throughput still climbs one rung per dwell window.
        feed(&mut abr, 100_000_000.0, 100);
        assert_eq!(abr.evaluate(secs(10)), Some(1));
        feed(&mut abr, 100_000_000.0, 100);
        assert_eq!(abr.evaluate(secs(20)), Some(2));
    }

    #[test]
    fn dwell_limits_flapping() {
        let mut abr = AbrState::new();
        feed(&mut abr, 900_000.0, 100);
        assert!(abr.evaluate(secs(10)).is_some());
        feed(&mut abr, 10_000_000.0, 100);
        // Within the dwell window: no change despite good throughput.
        assert_eq!(abr.evaluate(secs(11)), None);
        assert!(abr.evaluate(secs(20)).is_some());
    }

    #[test]
    fn rebuffer_steps_down() {
        let mut abr = AbrState::new();
        assert_eq!(abr.rung(), BASE_RUNG);
        abr.on_rebuffer(secs(5));
        assert_eq!(abr.rung(), BASE_RUNG - 1);
    }

    #[test]
    fn rebuffer_at_floor_is_safe() {
        let mut abr = AbrState::new();
        for _ in 0..10 {
            abr.on_rebuffer(secs(5));
        }
        assert_eq!(abr.rung(), 0);
    }

    #[test]
    fn scale_tracks_rung() {
        let mut abr = AbrState::new();
        assert!((abr.scale() - 1.0).abs() < 1e-12);
        abr.on_rebuffer(secs(1));
        assert!((abr.scale() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_observation_ignored() {
        let mut abr = AbrState::new();
        let before = abr.throughput_bps();
        abr.observe(10_000, SimDuration::ZERO);
        assert_eq!(abr.throughput_bps(), before);
    }
}
