//! Scheduler capacity planning: sustainable QPS and queueing delay.
//!
//! Fig 12(c) of the paper shows the global scheduler absorbing several
//! million recommendation queries per second at the evening peak. This
//! module provides the standard M/M/c approximation used to size such a
//! service: given a per-request service time and a shard/worker count,
//! it predicts utilisation, queueing delay and the sustainable QPS for a
//! latency target — the back-of-envelope that connects our measured
//! microsecond-scale recommendation cost to the paper's production QPS.

use rlive_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// An M/M/c service model of the scheduler fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CapacityModel {
    /// Mean service time of one recommendation request.
    pub service_time: SimDuration,
    /// Number of parallel workers (cores × shards).
    pub workers: u32,
}

impl CapacityModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or the service time is zero.
    pub fn new(service_time: SimDuration, workers: u32) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(
            service_time > SimDuration::ZERO,
            "service time must be positive"
        );
        CapacityModel {
            service_time,
            workers,
        }
    }

    /// Per-worker service rate, requests per second.
    pub fn service_rate(&self) -> f64 {
        1.0 / self.service_time.as_secs_f64()
    }

    /// Fleet-wide saturation throughput, requests per second.
    pub fn saturation_qps(&self) -> f64 {
        self.service_rate() * self.workers as f64
    }

    /// Utilisation at an offered load (clamped to 1).
    pub fn utilization(&self, offered_qps: f64) -> f64 {
        (offered_qps / self.saturation_qps()).clamp(0.0, 1.0)
    }

    /// Erlang-C probability that an arriving request must queue.
    ///
    /// Computed with the standard iterative form, numerically stable for
    /// large `c`.
    pub fn erlang_c(&self, offered_qps: f64) -> f64 {
        let c = self.workers as f64;
        let a = offered_qps / self.service_rate(); // offered load, Erlangs
        if a >= c {
            return 1.0;
        }
        // Iteratively compute the Erlang-B blocking probability, then
        // convert to Erlang-C.
        let mut b = 1.0;
        for k in 1..=self.workers {
            b = a * b / (k as f64 + a * b);
        }
        let rho = a / c;
        b / (1.0 - rho * (1.0 - b))
    }

    /// Mean queueing delay (excluding service) at an offered load.
    /// Returns `None` when the load meets or exceeds saturation.
    pub fn mean_queue_delay(&self, offered_qps: f64) -> Option<SimDuration> {
        let c = self.workers as f64;
        let a = offered_qps / self.service_rate();
        if a >= c {
            return None;
        }
        let pw = self.erlang_c(offered_qps);
        let wq = pw * self.service_time.as_secs_f64() / (c - a);
        Some(SimDuration::from_secs_f64(wq))
    }

    /// Mean total latency (queueing + service) at an offered load.
    pub fn mean_latency(&self, offered_qps: f64) -> Option<SimDuration> {
        self.mean_queue_delay(offered_qps)
            .map(|q| q + self.service_time)
    }

    /// The highest QPS at which the mean total latency stays at or
    /// below `target`, found by bisection. Returns 0 if even an idle
    /// system misses the target.
    pub fn sustainable_qps(&self, target: SimDuration) -> f64 {
        if self.service_time > target {
            return 0.0;
        }
        let mut lo = 0.0;
        let mut hi = self.saturation_qps() * 0.999_999;
        for _ in 0..64 {
            let mid = (lo + hi) / 2.0;
            match self.mean_latency(mid) {
                Some(l) if l <= target => lo = mid,
                _ => hi = mid,
            }
        }
        lo
    }

    /// Workers needed to carry `offered_qps` with mean latency at or
    /// below `target` (smallest fleet found by doubling + bisection).
    pub fn workers_for(service_time: SimDuration, offered_qps: f64, target: SimDuration) -> u32 {
        if service_time > target {
            return u32::MAX;
        }
        let mut c = 1u32;
        loop {
            let model = CapacityModel::new(service_time, c);
            if model
                .mean_latency(offered_qps)
                .map(|l| l <= target)
                .unwrap_or(false)
            {
                return c;
            }
            c = c.saturating_mul(2);
            if c > 1 << 26 {
                return c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn saturation_scales_with_workers() {
        let one = CapacityModel::new(ms(10), 1);
        let ten = CapacityModel::new(ms(10), 10);
        assert!((one.saturation_qps() - 100.0).abs() < 1e-9);
        assert!((ten.saturation_qps() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn erlang_c_limits() {
        let m = CapacityModel::new(ms(10), 4);
        // Idle system: nobody queues. Saturated: everybody queues.
        assert!(m.erlang_c(1.0) < 0.01);
        assert!((m.erlang_c(1e9) - 1.0).abs() < 1e-12);
        // Monotone in load.
        let mut last = 0.0;
        for qps in [50.0, 150.0, 250.0, 350.0] {
            let p = m.erlang_c(qps);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn single_server_matches_mm1() {
        // For c = 1, Erlang-C reduces to rho and Wq = rho/(mu - lambda).
        let m = CapacityModel::new(ms(10), 1);
        let lambda = 50.0;
        let rho: f64 = 0.5;
        assert!((m.erlang_c(lambda) - rho).abs() < 1e-9);
        let wq = m.mean_queue_delay(lambda).expect("stable").as_secs_f64();
        let expected = rho / (100.0 - 50.0);
        assert!((wq - expected).abs() < 1e-9, "wq {wq} vs {expected}");
    }

    #[test]
    fn latency_blows_up_near_saturation() {
        let m = CapacityModel::new(ms(10), 8);
        let low = m.mean_latency(100.0).expect("stable");
        let high = m.mean_latency(m.saturation_qps() * 0.99).expect("stable");
        assert!(high > low.saturating_mul(3));
        assert_eq!(m.mean_latency(m.saturation_qps() * 1.1), None);
    }

    #[test]
    fn sustainable_qps_respects_target() {
        let m = CapacityModel::new(ms(10), 16);
        let target = ms(15);
        let qps = m.sustainable_qps(target);
        assert!(qps > 0.0 && qps < m.saturation_qps());
        let at = m.mean_latency(qps * 0.999).expect("stable");
        assert!(at <= target);
        // Beyond the sustainable point, latency exceeds the target.
        if let Some(beyond) = m.mean_latency((qps * 1.05).min(m.saturation_qps() * 0.999)) {
            assert!(beyond > target);
        }
    }

    #[test]
    fn impossible_target_yields_zero() {
        let m = CapacityModel::new(ms(100), 4);
        assert_eq!(m.sustainable_qps(ms(50)), 0.0);
    }

    #[test]
    fn production_scale_projection() {
        // One recommendation measures 5–6 µs on a cold 10k-node registry
        // (`control.scheduler.recommend_us_cold` in `benchmark/`); the
        // 18 µs used here leaves a 3× margin over that reading.
        // Fig 12(c) peaks at several million QPS — the model says a few
        // hundred cores sustain that with millisecond queueing, which is
        // exactly the kind of fleet a hyperscaler deploys.
        let per_request = us(18);
        let needed = CapacityModel::workers_for(per_request, 3_000_000.0, ms(5));
        assert!(
            (32..=512).contains(&needed),
            "needed {needed} workers for 3M QPS"
        );
    }

    #[test]
    fn workers_for_monotone_in_load() {
        let a = CapacityModel::workers_for(ms(1), 1_000.0, ms(5));
        let b = CapacityModel::workers_for(ms(1), 10_000.0, ms(5));
        assert!(b >= a);
    }
}
