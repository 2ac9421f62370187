//! Packet-level link model.
//!
//! A [`Link`] models one direction of a network path: a serialisation
//! queue bounded by bandwidth, a fixed propagation delay, a jitter
//! process producing episodic delay spikes (the behaviour in Fig 2(d) of
//! the paper), and a Gilbert–Elliott two-state loss process (losses come
//! in bursts, giving the temporal locality that motivates spreading
//! frames across links, §2.3).
//!
//! The model is "virtual-time" rather than queue-of-packets: each
//! transmission computes its own delivery time from the link's
//! busy-until horizon, which is O(1) per packet and exact for FIFO
//! queues.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of a unidirectional link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Bottleneck bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Maximum queueing delay before tail drop (models a bounded buffer).
    pub max_queue_delay: SimDuration,
    /// Steady-state random loss probability in the "good" state.
    pub loss_good: f64,
    /// Loss probability in the "bad" (bursty) state.
    pub loss_bad: f64,
    /// Per-packet probability of transitioning good -> bad.
    pub p_good_to_bad: f64,
    /// Per-packet probability of transitioning bad -> good.
    pub p_bad_to_good: f64,
    /// Mean time between jitter episodes (Poisson arrivals); zero disables.
    pub jitter_episode_mean_gap: SimDuration,
    /// Mean duration of a jitter episode.
    pub jitter_episode_mean_len: SimDuration,
    /// Peak extra one-way delay added during an episode.
    pub jitter_peak: SimDuration,
}

impl LinkConfig {
    /// A stable, high-capacity profile typical of dedicated CDN edges.
    pub fn dedicated(bandwidth_mbps: u64, rtt_ms: u64) -> Self {
        LinkConfig {
            bandwidth_bps: bandwidth_mbps * 1_000_000,
            propagation: SimDuration::from_micros(rtt_ms * 500),
            max_queue_delay: SimDuration::from_millis(200),
            loss_good: 0.0005,
            loss_bad: 0.05,
            p_good_to_bad: 0.0002,
            p_bad_to_good: 0.2,
            jitter_episode_mean_gap: SimDuration::from_secs(600),
            jitter_episode_mean_len: SimDuration::from_millis(200),
            jitter_peak: SimDuration::from_millis(10),
        }
    }

    /// An unstable, capacity-limited profile typical of best-effort nodes.
    pub fn best_effort(bandwidth_mbps: f64, rtt_ms: u64) -> Self {
        LinkConfig {
            bandwidth_bps: (bandwidth_mbps * 1e6) as u64,
            propagation: SimDuration::from_micros(rtt_ms * 500),
            max_queue_delay: SimDuration::from_millis(400),
            loss_good: 0.002,
            loss_bad: 0.15,
            p_good_to_bad: 0.002,
            p_bad_to_good: 0.08,
            jitter_episode_mean_gap: SimDuration::from_secs(30),
            jitter_episode_mean_len: SimDuration::from_secs(2),
            jitter_peak: SimDuration::from_millis(250),
        }
    }
}

/// Outcome of offering one packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The packet will arrive at the given instant.
    Delivered(SimTime),
    /// The packet was dropped by the loss process.
    Lost,
    /// The packet was tail-dropped because the queue was full.
    QueueDrop,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LossState {
    Good,
    Bad,
}

/// A unidirectional link with bandwidth, queueing, jitter and loss.
///
/// # Examples
///
/// ```
/// use rlive_sim::link::{Link, LinkConfig, TxOutcome};
/// use rlive_sim::{SimRng, SimTime};
///
/// let mut link = Link::new(LinkConfig::dedicated(100, 30), SimRng::new(1));
/// match link.transmit(SimTime::ZERO, 1_200) {
///     TxOutcome::Delivered(at) => assert!(at > SimTime::ZERO),
///     TxOutcome::Lost | TxOutcome::QueueDrop => { /* loss process */ }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    cfg: LinkConfig,
    rng: SimRng,
    /// Virtual time when the serialisation queue drains.
    busy_until: SimTime,
    loss_state: LossState,
    /// Current jitter episode, if one is active: (start, end).
    episode: Option<(SimTime, SimTime)>,
    /// Next scheduled jitter episode start.
    next_episode: SimTime,
    /// Extra delay applied at the peak of the current episode.
    episode_peak: SimDuration,
    /// Lifetime counters.
    bytes_sent: u64,
    packets_sent: u64,
    packets_lost: u64,
}

impl Link {
    /// Creates a link from a configuration and a dedicated RNG stream.
    pub fn new(cfg: LinkConfig, mut rng: SimRng) -> Self {
        let next_episode = if cfg.jitter_episode_mean_gap == SimDuration::ZERO {
            SimTime::MAX
        } else {
            SimTime::ZERO
                + SimDuration::from_secs_f64(
                    rng.exponential(cfg.jitter_episode_mean_gap.as_secs_f64()),
                )
        };
        Link {
            cfg,
            rng,
            busy_until: SimTime::ZERO,
            loss_state: LossState::Good,
            episode: None,
            next_episode,
            episode_peak: SimDuration::ZERO,
            bytes_sent: 0,
            packets_sent: 0,
            packets_lost: 0,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Replaces the bandwidth, e.g. when a node renegotiates its uplink.
    pub fn set_bandwidth_bps(&mut self, bps: u64) {
        self.cfg.bandwidth_bps = bps.max(1);
    }

    /// Serialisation time of `bytes` at the configured bandwidth.
    pub fn serialize_time(&self, bytes: usize) -> SimDuration {
        let bits = bytes as u64 * 8;
        SimDuration::from_micros((bits * 1_000_000).div_ceil(self.cfg.bandwidth_bps.max(1)))
    }

    /// Current queueing delay a packet offered at `now` would experience.
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    fn advance_jitter(&mut self, now: SimTime) {
        if let Some((_, end)) = self.episode {
            if now >= end {
                self.episode = None;
            }
        }
        while self.episode.is_none() && now >= self.next_episode {
            let len = SimDuration::from_secs_f64(
                self.rng
                    .exponential(self.cfg.jitter_episode_mean_len.as_secs_f64())
                    .max(1e-4),
            );
            let start = self.next_episode;
            let end = start + len;
            // Peak is uniform in [0.3, 1.0] of the configured maximum so
            // episodes differ in severity.
            self.episode_peak = self.cfg.jitter_peak.mul_f64(self.rng.range_f64(0.3, 1.0));
            self.next_episode = end
                + SimDuration::from_secs_f64(
                    self.rng
                        .exponential(self.cfg.jitter_episode_mean_gap.as_secs_f64())
                        .max(1e-3),
                );
            if now < end {
                self.episode = Some((start, end));
            }
        }
    }

    /// Extra one-way delay contributed by the jitter process at `now`.
    ///
    /// Within an episode the extra delay follows a triangular ramp peaking
    /// mid-episode, matching the spike shapes of Fig 2(d).
    pub fn jitter_delay(&mut self, now: SimTime) -> SimDuration {
        self.advance_jitter(now);
        match self.episode {
            Some((start, end)) if now >= start && now < end => {
                let span = (end - start).as_secs_f64();
                let pos = (now - start).as_secs_f64() / span;
                let shape = 1.0 - (2.0 * pos - 1.0).abs();
                self.episode_peak.mul_f64(shape)
            }
            _ => SimDuration::ZERO,
        }
    }

    fn sample_loss(&mut self) -> bool {
        let (p_loss, p_flip) = match self.loss_state {
            LossState::Good => (self.cfg.loss_good, self.cfg.p_good_to_bad),
            LossState::Bad => (self.cfg.loss_bad, self.cfg.p_bad_to_good),
        };
        if self.rng.chance(p_flip) {
            self.loss_state = match self.loss_state {
                LossState::Good => LossState::Bad,
                LossState::Bad => LossState::Good,
            };
        }
        self.rng.chance(p_loss)
    }

    /// Offers one packet of `bytes` to the link at time `now`.
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> TxOutcome {
        self.packets_sent += 1;
        let queue = self.queue_delay(now);
        if queue > self.cfg.max_queue_delay {
            self.packets_lost += 1;
            return TxOutcome::QueueDrop;
        }
        if self.sample_loss() {
            self.packets_lost += 1;
            // The packet still occupied the sender's queue before dying.
            let ser = self.serialize_time(bytes);
            self.busy_until = self.busy_until.max(now) + ser;
            return TxOutcome::Lost;
        }
        let ser = self.serialize_time(bytes);
        let start = self.busy_until.max(now);
        self.busy_until = start + ser;
        let jitter = self.jitter_delay(now);
        self.bytes_sent += bytes as u64;
        TxOutcome::Delivered(self.busy_until + self.cfg.propagation + jitter)
    }

    /// Lifetime bytes successfully handed to the wire.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Lifetime packets offered.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Lifetime packets dropped (loss process plus queue drops).
    pub fn packets_lost(&self) -> u64 {
        self.packets_lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless(bandwidth_bps: u64) -> LinkConfig {
        LinkConfig {
            bandwidth_bps,
            propagation: SimDuration::from_millis(10),
            max_queue_delay: SimDuration::from_secs(10),
            loss_good: 0.0,
            loss_bad: 0.0,
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            jitter_episode_mean_gap: SimDuration::ZERO,
            jitter_episode_mean_len: SimDuration::ZERO,
            jitter_peak: SimDuration::ZERO,
        }
    }

    #[test]
    fn serialization_delay_matches_bandwidth() {
        // 1 Mbps, 1250 bytes => 10 ms on the wire.
        let mut link = Link::new(lossless(1_000_000), SimRng::new(1));
        let out = link.transmit(SimTime::ZERO, 1250);
        assert_eq!(
            out,
            TxOutcome::Delivered(SimTime::from_millis(10) + SimDuration::from_millis(10))
        );
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = Link::new(lossless(1_000_000), SimRng::new(1));
        let delivered = |out| match out {
            TxOutcome::Delivered(at) => at,
            other => panic!("not delivered: {other:?}"),
        };
        let a = delivered(link.transmit(SimTime::ZERO, 1250));
        let b = delivered(link.transmit(SimTime::ZERO, 1250));
        assert_eq!(b - a, SimDuration::from_millis(10));
    }

    #[test]
    fn idle_link_does_not_accumulate_queue() {
        let mut link = Link::new(lossless(1_000_000), SimRng::new(1));
        link.transmit(SimTime::ZERO, 1250);
        // Offer the next packet long after the first drained.
        let t = SimTime::from_secs(1);
        let out = link.transmit(t, 1250);
        assert_eq!(out, TxOutcome::Delivered(t + SimDuration::from_millis(20)));
    }

    #[test]
    fn queue_overflow_drops() {
        let mut cfg = lossless(1_000_000);
        cfg.max_queue_delay = SimDuration::from_millis(15);
        let mut link = Link::new(cfg, SimRng::new(1));
        // Each packet adds 10ms of queue; the third exceeds 15ms backlog.
        assert!(matches!(
            link.transmit(SimTime::ZERO, 1250),
            TxOutcome::Delivered(_)
        ));
        assert!(matches!(
            link.transmit(SimTime::ZERO, 1250),
            TxOutcome::Delivered(_)
        ));
        assert_eq!(link.transmit(SimTime::ZERO, 1250), TxOutcome::QueueDrop);
    }

    #[test]
    fn loss_rate_tracks_configuration() {
        let mut cfg = lossless(1_000_000_000);
        cfg.loss_good = 0.1;
        let mut link = Link::new(cfg, SimRng::new(7));
        let mut lost = 0;
        for _ in 0..20_000 {
            if link.transmit(SimTime::ZERO, 100) == TxOutcome::Lost {
                lost += 1;
            }
        }
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_bursts() {
        // With a sticky bad state, losses should cluster: the conditional
        // probability of loss right after a loss must exceed the marginal.
        let mut cfg = lossless(1_000_000_000);
        cfg.loss_good = 0.001;
        cfg.loss_bad = 0.5;
        cfg.p_good_to_bad = 0.01;
        cfg.p_bad_to_good = 0.05;
        let mut link = Link::new(cfg, SimRng::new(11));
        let outcomes: Vec<bool> = (0..50_000)
            .map(|_| link.transmit(SimTime::ZERO, 100) == TxOutcome::Lost)
            .collect();
        let marginal = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        let mut after_loss = 0;
        let mut after_loss_lost = 0;
        for w in outcomes.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    after_loss_lost += 1;
                }
            }
        }
        let conditional = after_loss_lost as f64 / after_loss.max(1) as f64;
        assert!(
            conditional > marginal * 2.0,
            "conditional {conditional} vs marginal {marginal}"
        );
    }

    #[test]
    fn jitter_episodes_add_delay() {
        let mut cfg = lossless(1_000_000_000);
        cfg.jitter_episode_mean_gap = SimDuration::from_secs(5);
        cfg.jitter_episode_mean_len = SimDuration::from_secs(2);
        cfg.jitter_peak = SimDuration::from_millis(200);
        let mut link = Link::new(cfg, SimRng::new(13));
        let mut max_extra = SimDuration::ZERO;
        for s in 0..600 {
            let d = link.jitter_delay(SimTime::from_millis(s * 100));
            max_extra = max_extra.max(d);
        }
        assert!(
            max_extra >= SimDuration::from_millis(30),
            "max extra {max_extra}"
        );
        assert!(max_extra <= SimDuration::from_millis(200));
    }

    #[test]
    fn disabled_jitter_is_zero() {
        let mut link = Link::new(lossless(1_000_000), SimRng::new(17));
        for s in 0..100 {
            assert_eq!(link.jitter_delay(SimTime::from_secs(s)), SimDuration::ZERO);
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut link = Link::new(lossless(1_000_000_000), SimRng::new(19));
        for _ in 0..10 {
            link.transmit(SimTime::ZERO, 500);
        }
        assert_eq!(link.packets_sent(), 10);
        assert_eq!(link.bytes_sent(), 5_000);
        assert_eq!(link.packets_lost(), 0);
    }

    #[test]
    fn occupancy_reflects_queue() {
        let mut cfg = lossless(1_000_000);
        cfg.max_queue_delay = SimDuration::from_millis(100);
        let mut link = Link::new(cfg, SimRng::new(23));
        assert_eq!(link.queue_delay(SimTime::ZERO), SimDuration::ZERO);
        for _ in 0..5 {
            link.transmit(SimTime::ZERO, 1250); // 10ms each
        }
        assert_eq!(
            link.queue_delay(SimTime::ZERO),
            SimDuration::from_millis(50)
        );
    }
}
