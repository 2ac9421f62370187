//! The CDN edge actor: dedicated links, background load, frame bursts.

use crate::actors::ActorCtx;
use crate::cost::TrafficClass;
use crate::events::{Event, SliceDelivery};
use crate::world::Group;
use rlive_media::footprint::LocalChain;
use rlive_media::frame::FrameHeader;
use rlive_media::packet::PACKET_PAYLOAD;
use rlive_sim::link::{Link, LinkConfig, TxOutcome};
use rlive_sim::{SimDuration, SimRng, SimTime};

/// A typed request for one direct CDN frame delivery: everything the
/// edge needs to know about the receiving client, resolved by the
/// caller so the edge never reads client state itself.
pub(crate) struct CdnRequest {
    /// Receiving client.
    pub client: u64,
    /// Frame to deliver.
    pub header: FrameHeader,
    /// Sequencing chain shipped with the frame (CDN replies carry
    /// authoritative ordering).
    pub chain: Option<LocalChain>,
    /// Substream the frame maps to.
    pub substream: u16,
    /// The client's current ABR scale.
    pub scale: f64,
    /// The client's experiment group (for ledger attribution).
    pub group: Group,
}

/// One CDN edge: a capacity-limited dedicated link whose usable
/// bandwidth is squeezed by co-hosted background load (§7.1.2).
pub(crate) struct CdnEdge {
    link: Link,
    rtt_ms: u64,
    base_mbps: u64,
    /// Ornstein–Uhlenbeck-ish state of the background-load fluctuation.
    bg_state: f64,
    /// End of the current sharp overload spike, if one is active.
    spike_until: SimTime,
}

impl CdnEdge {
    /// Builds an edge with a dedicated link, forking its RNG from `rng`.
    pub fn new(mbps: u64, rtt_ms: u64, rng: SimRng) -> Self {
        CdnEdge {
            link: Link::new(LinkConfig::dedicated(mbps, rtt_ms), rng),
            rtt_ms,
            base_mbps: mbps,
            bg_state: 0.0,
            spike_until: SimTime::ZERO,
        }
    }

    /// Transmits an opaque payload (relay backhaul) over the edge link.
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> TxOutcome {
        self.link.transmit(now, bytes)
    }

    /// One background-load step: mean-reverting fluctuation around
    /// `mean` plus occasional sharp flash-crowd spikes at busy hours.
    /// `load` is the diurnal load factor; random draws come from the
    /// world RNG in a fixed order.
    pub fn tick_background(&mut self, now: SimTime, mean: f64, load: f64, rng: &mut SimRng) {
        // Slow mean-reverting fluctuation: overload arrives as
        // multi-second swells, not per-tick noise...
        let bgn = rng.normal();
        let spike_roll = rng.f64();
        let spike_len = 1_000 + rng.below(3_000);
        self.bg_state = 0.97 * self.bg_state + 0.12 * bgn;
        let mut bg = (mean * (1.0 + 0.55 * self.bg_state)).clamp(0.02, 0.85);
        // ...plus occasional sharp flash-crowd spikes at busy hours
        // that briefly overwhelm even minimum-bitrate demand.
        if now < self.spike_until {
            bg = bg.max(0.88);
        } else if spike_roll < 0.009 * mean * load {
            self.spike_until = now + SimDuration::from_millis(spike_len);
            bg = bg.max(0.88);
        }
        let effective = ((self.base_mbps as f64) * (1.0 - bg)).max(5.0);
        self.link.set_bandwidth_bps((effective * 1e6) as u64);
    }

    /// Delivers one frame to one client over the dedicated link,
    /// charging the group ledger and scheduling the arrival slice.
    pub fn deliver_frame(&mut self, ctx: &mut ActorCtx<'_>, req: CdnRequest) {
        let size = (req.header.size as f64 * req.scale) as u32;
        let total = size.div_ceil(PACKET_PAYLOAD).max(1);
        let overhead = ctx.cfg.transport.packet_overhead() as u32;
        let wire = size + total * overhead;
        let rtt = self.rtt_ms;
        match self.link.transmit(ctx.now, wire as usize) {
            TxOutcome::Delivered(at) => {
                ctx.ledger(req.group)
                    .add(TrafficClass::DedicatedServing, wire as u64);
                let arrive =
                    at + SimDuration::from_millis(rtt / 2) + ctx.cfg.transport.hop_overhead();
                // Dedicated links lose individual packets rarely; sample
                // residual loss per frame.
                ctx.queue.schedule(
                    arrive,
                    Event::ClientSlice(Box::new(SliceDelivery {
                        client: req.client,
                        header: req.header,
                        substream: req.substream,
                        received: (0..total).collect(),
                        total,
                        chain: req.chain,
                        bytes: wire as u64,
                    })),
                );
            }
            TxOutcome::Lost | TxOutcome::QueueDrop => {
                // Congestion drop: the whole burst is gone; the client's
                // recovery path will notice via timeout.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeliveryMode, SystemConfig};
    use crate::cost::TrafficLedger;
    use crate::energy::EnergyModel;
    use rlive_media::frame::{FrameHeader, FrameType};
    use rlive_sim::EventQueue;

    /// A CDN delivery without any surrounding world: the edge charges
    /// the right ledger and schedules exactly one arrival slice.
    #[test]
    fn cdn_edge_delivers_one_frame_standalone() {
        let cfg = SystemConfig::for_mode(DeliveryMode::CdnOnly);
        let mut rng = SimRng::new(9);
        let mut queue: EventQueue<Event> = EventQueue::new();
        let energy_model = EnergyModel::default();
        let mut control = TrafficLedger::new();
        let mut test = TrafficLedger::new();
        let mut ctx = ActorCtx {
            now: SimTime::ZERO,
            end_at: SimTime::ZERO + SimDuration::from_secs(60),
            cfg: &cfg,
            rng: &mut rng,
            queue: &mut queue,
            energy_model: &energy_model,
            control_traffic: &mut control,
            test_traffic: &mut test,
        };
        let mut edge = CdnEdge::new(100, 30, SimRng::new(7));
        let header = FrameHeader {
            stream_id: 0,
            dts_ms: 33,
            size: 20_000,
            frame_type: FrameType::I,
        };
        edge.deliver_frame(
            &mut ctx,
            CdnRequest {
                client: 5,
                header,
                chain: None,
                substream: 0,
                scale: 1.0,
                group: Group::Test,
            },
        );
        assert_eq!(queue.len(), 1, "one arrival slice scheduled");
        let (_, event) = queue.pop().unwrap();
        match event {
            Event::ClientSlice(d) => {
                assert_eq!(d.client, 5);
                assert_eq!(d.header.dts_ms, 33);
                assert_eq!(d.received.len(), d.total);
            }
            other => panic!("unexpected event {}", other.kind()),
        }
        assert!(test.dedicated_serving >= 20_000);
        assert_eq!(control.dedicated_serving, 0);
    }

    /// A prefill burst — many recent frames pushed back-to-back, as
    /// `session::cdn_prefill` does on join — schedules one arrival slice
    /// per frame with non-decreasing arrival times (the shared dedicated
    /// link serialises the burst).
    #[test]
    fn cdn_edge_prefill_burst_serialises_frames() {
        let cfg = SystemConfig::for_mode(DeliveryMode::CdnOnly);
        let mut rng = SimRng::new(9);
        let mut queue: EventQueue<Event> = EventQueue::new();
        let energy_model = EnergyModel::default();
        let mut control = TrafficLedger::new();
        let mut test = TrafficLedger::new();
        let mut ctx = ActorCtx {
            now: SimTime::ZERO,
            end_at: SimTime::ZERO + SimDuration::from_secs(60),
            cfg: &cfg,
            rng: &mut rng,
            queue: &mut queue,
            energy_model: &energy_model,
            control_traffic: &mut control,
            test_traffic: &mut test,
        };
        let mut edge = CdnEdge::new(1_000, 30, SimRng::new(7));
        let burst = 12u64;
        for i in 0..burst {
            let header = FrameHeader {
                stream_id: 0,
                dts_ms: 33 * (i + 1),
                size: 8_000,
                frame_type: if i == 0 { FrameType::I } else { FrameType::P },
            };
            edge.deliver_frame(
                &mut ctx,
                CdnRequest {
                    client: 5,
                    header,
                    chain: None,
                    substream: 0,
                    scale: 1.0,
                    group: Group::Test,
                },
            );
        }
        assert_eq!(queue.len(), burst as usize, "one slice per burst frame");
        let mut last_arrival = SimTime::ZERO;
        let mut last_dts = 0u64;
        while let Some((at, event)) = queue.pop() {
            match event {
                Event::ClientSlice(d) => {
                    assert!(at >= last_arrival, "link serialises the burst");
                    assert!(d.header.dts_ms > last_dts, "frames arrive in dts order");
                    last_arrival = at;
                    last_dts = d.header.dts_ms;
                }
                other => panic!("unexpected event {}", other.kind()),
            }
        }
        assert!(test.dedicated_serving >= burst * 8_000);
    }
}
