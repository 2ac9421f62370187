//! The best-effort relay actor: subscriptions, backhaul pull, fan-out
//! forwarding, churn, background load and the edge adviser.

use crate::actors::cdn::CdnEdge;
use crate::actors::client::Client;
use crate::actors::stream::SuperNode;
use crate::actors::ActorCtx;
use crate::arena::IdArena;
use crate::config::DeliveryMode;
use crate::cost::TrafficClass;
use crate::events::{Event, SliceDelivery, TraceSink, FULL_STREAM};
use rlive_control::adviser::SwitchSuggestion;
use rlive_control::features::{heartbeat_interval_secs, ClientId};
use rlive_control::quota::NodeQuotas;
use rlive_control::{AdviserConfig, EdgeAdviser, NodeId, NodeStatus, StreamKey};
use rlive_data::reorder::PacketSet;
use rlive_media::footprint::LocalChain;
use rlive_media::frame::FrameHeader;
use rlive_media::packet::PACKET_PAYLOAD;
use rlive_sim::churn::{ChurnModel, ChurnTimeline};
use rlive_sim::link::{Link, LinkConfig, TxOutcome};
use rlive_sim::{SimDuration, SimRng, SimTime};
use rlive_workload::nodes::NodeSpec;
use std::sync::Arc;

/// A typed view of one forwarding target, resolved by the router so
/// the relay never reads client state: the subscriber id plus the
/// client-dependent delivery parameters.
pub(crate) struct SubscriberView {
    /// Receiving client.
    pub client: u64,
    /// The client's current ABR scale.
    pub scale: f64,
    /// The client's experiment group (for ledger attribution).
    pub group: crate::world::Group,
    /// Sequencing chain to embed in the slice (`None` under central
    /// sequencing, where the super node ships it separately).
    pub chain: Option<LocalChain>,
    /// Whether the central super node must ship this client the chain.
    pub super_chain: bool,
}

/// Resolves the forwarding targets of one `(stream, ss)` frame into
/// `views` (cleared first) so the relay actor never reads client fields
/// itself. Departed targets are skipped; `chain` is embedded for every
/// client not on central sequencing, which the super node serves when
/// `central_world`.
pub(crate) fn resolve_views(
    relay: &Relay,
    clients: &IdArena<Client>,
    (stream, ss, chain): (u32, u16, LocalChain),
    central_world: bool,
    views: &mut Vec<SubscriberView>,
) {
    views.clear();
    views.extend(relay.targets_for(stream, ss).filter_map(|cid| {
        let client = clients.get(&cid)?;
        let central_client = matches!(client.mode_policy, DeliveryMode::RLiveCentralSequencing);
        Some(SubscriberView {
            client: cid,
            scale: client.abr.scale(),
            group: client.group,
            chain: (!central_world && !central_client).then_some(chain),
            super_chain: central_world && central_client,
        })
    }));
}

/// What one maintenance tick of a relay produced, for the world to
/// route onwards: the next tick interval, an online transition (if
/// any), whether to ingest a heartbeat, and the adviser evaluation key
/// (if the adviser came due with an active forwarding entry).
pub(crate) struct RelayTickOutcome {
    /// Interval until the next tick.
    pub interval: SimDuration,
    /// `Some(new_state)` when the churn state flipped this tick.
    pub transition: Option<bool>,
    /// Whether the relay reports [`Relay::status`] to the global
    /// scheduler (online relays only).
    pub heartbeat: bool,
    /// Forwarding key to evaluate the adviser against, if due.
    pub adviser_key: Option<StreamKey>,
}

/// One best-effort relay node.
pub(crate) struct Relay {
    /// Static node features (capacity, region, NAT, tier, RTT).
    pub spec: NodeSpec,
    uplink: Link,
    /// Mean fraction of the uplink consumed by the node's other tenants
    /// (best-effort boxes are shared; advertised bandwidth is far less
    /// reliable than dedicated servers, §8.1).
    bg_mean: f64,
    /// Mean-reverting fluctuation state of the background load.
    bg_state: f64,
    /// Admission quotas.
    pub quotas: NodeQuotas,
    churn: ChurnTimeline,
    /// Whether the node is currently online.
    pub online: bool,
    adviser: EdgeAdviser,
    /// (stream, substream-or-FULL) -> subscriber client ids, as a flat
    /// table sorted by key (binary-searched; iteration order matches
    /// the BTreeMap it replaces).
    subscribers: Vec<((u32, u16), Vec<u64>)>,
    /// What the relay's heartbeats report. `forwarding` is kept live;
    /// the load scalars are refreshed by every online tick.
    pub status: NodeStatus,
    /// Bytes served to subscribers over the uplink.
    pub serving_bytes: u64,
    /// Bytes pulled from the CDN backhaul.
    pub backward_bytes: u64,
    /// High-water mark of concurrent subscribers.
    pub peak_subscribers: usize,
}

impl Relay {
    /// Builds a relay from its spec, drawing the background-load mean
    /// and forking the uplink and churn RNGs from `rng` (in this exact
    /// order — the draw sequence is part of the determinism contract).
    pub fn new(
        spec: &NodeSpec,
        adviser_cfg: AdviserConfig,
        churn_model: impl Into<Arc<ChurnModel>>,
        rng: &mut SimRng,
    ) -> Self {
        let sessions = (spec.capacity_mbps / 0.5).clamp(4.0, 200.0);
        let bg_mean = rng.range_f64(0.15, 0.55);
        let uplink = Link::new(
            LinkConfig::best_effort(spec.capacity_mbps, spec.base_rtt_ms),
            rng.fork(300 + spec.id),
        );
        let churn = ChurnTimeline::new(churn_model, rng.fork(4000 + spec.id));
        Relay {
            bg_mean,
            bg_state: 0.0,
            uplink,
            quotas: NodeQuotas::new(spec.capacity_mbps, 2.0, 512.0, sessions),
            churn,
            online: true,
            adviser: EdgeAdviser::new(NodeId(spec.id), adviser_cfg),
            subscribers: Vec::new(),
            status: NodeStatus {
                conn_success_rate: 0.95,
                ..NodeStatus::idle(spec.capacity_mbps)
            },
            serving_bytes: 0,
            backward_bytes: 0,
            peak_subscribers: 0,
            spec: spec.clone(),
        }
    }

    /// Position of `key` in the sorted subscriber table.
    fn sub_search(&self, key: (u32, u16)) -> Result<usize, usize> {
        self.subscribers.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Current subscriber count across all substreams.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.iter().map(|(_, v)| v.len()).sum()
    }

    /// Whether this relay receives the header sequence of `stream`:
    /// whether any subscriber listens on one of its substreams.
    pub fn feeds(&self, stream: u32) -> bool {
        let i = self.subscribers.partition_point(|&((s, _), _)| s < stream);
        self.subscribers
            .get(i)
            .is_some_and(|&((s, _), _)| s == stream)
    }

    /// Whether any subscriber listens on `(stream, ss)`.
    pub fn has_subscribers(&self, stream: u32, ss: u16) -> bool {
        self.sub_search((stream, ss)).is_ok()
    }

    /// Clients interested in `(stream, ss)` frames: subscribers of the
    /// substream itself plus full-stream subscribers.
    pub fn interested_clients(&self, stream: u32, ss: u16) -> impl Iterator<Item = u64> + '_ {
        self.subscribers
            .iter()
            .filter(move |&&((st, sub), _)| st == stream && (sub == FULL_STREAM || sub == ss))
            .flat_map(|(_, subs)| subs.iter().copied())
    }

    /// Forwarding targets of one `(stream, ss)` frame, in subscription
    /// order: full-stream subscribers first, then substream subscribers.
    pub fn targets_for(&self, stream: u32, ss: u16) -> impl Iterator<Item = u64> + '_ {
        let subs = |key| match self.sub_search(key) {
            Ok(i) => &self.subscribers[i].1[..],
            Err(_) => &[],
        };
        subs((stream, FULL_STREAM))
            .iter()
            .chain(subs((stream, ss)))
            .copied()
    }

    /// Every subscribed client id (cost-consolidation suggestions go to
    /// all of them).
    pub fn all_subscriber_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.subscribers.iter().flat_map(|(_, v)| v.iter().copied())
    }

    /// Replaces the churn timeline (failure injection).
    pub fn set_churn(&mut self, churn: ChurnTimeline) {
        self.churn = churn;
    }

    /// Attaches the structured trace sink to the relay's adviser.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.adviser.set_trace_sink(sink);
    }

    /// Admits one subscription: reserves uplink quota, records the
    /// subscriber and starts forwarding its `(stream, ss)`. Returns
    /// `false` (without side effects) when offline or over quota.
    /// `client_exists` gates the adviser's per-connection QoS record.
    pub fn subscribe(
        &mut self,
        cid: u64,
        stream: u32,
        ss: u16,
        bandwidth_mbps: f64,
        client_exists: bool,
    ) -> bool {
        if !self.online {
            return false;
        }
        // Reserve 1.6x the average rate: frame-level substream splitting
        // concentrates whole I-frames on single relays, so admission at
        // the mean rate would tail-drop every keyframe burst.
        if !self.quotas.reserve(bandwidth_mbps * 1.6, 0.02, 4.0) {
            return false;
        }
        match self.sub_search((stream, ss)) {
            Ok(i) => self.subscribers[i].1.push(cid),
            Err(i) => self.subscribers.insert(i, ((stream, ss), vec![cid])),
        }
        self.peak_subscribers = self.peak_subscribers.max(self.subscriber_count());
        let key = StreamKey {
            stream_id: stream as u64,
            substream: if ss == FULL_STREAM { 0 } else { ss },
        };
        self.status.forwarding.insert(key);
        if client_exists {
            let rtt = self.spec.base_rtt_ms as f64;
            self.adviser.record_connection_qos(ClientId(cid), rtt);
        }
        true
    }

    /// Reverses one [`Relay::subscribe`]: releases quota and stops
    /// forwarding substreams (and feeding streams) nobody listens to.
    pub fn unsubscribe(&mut self, cid: u64, stream: u32, ss: u16, bandwidth_mbps: f64) {
        if let Ok(i) = self.sub_search((stream, ss)) {
            let subs = &mut self.subscribers[i].1;
            subs.retain(|&c| c != cid);
            if subs.is_empty() {
                self.subscribers.remove(i);
                let key = StreamKey {
                    stream_id: stream as u64,
                    substream: if ss == FULL_STREAM { 0 } else { ss },
                };
                self.status.forwarding.remove(&key);
            }
        }
        self.quotas.release(bandwidth_mbps * 1.6, 0.02, 4.0);
        self.adviser.remove_connection(ClientId(cid));
    }

    /// Current RTT estimate including uplink queueing and jitter.
    pub fn rtt_estimate(&mut self, now: SimTime) -> SimDuration {
        SimDuration::from_millis(self.spec.base_rtt_ms)
            + self.uplink.queue_delay(now)
            + self.uplink.jitter_delay(now)
    }

    /// One maintenance tick: advances the churn state (dropping all
    /// subscription state on an offline transition), refreshes the
    /// background-load-modulated uplink bandwidth, and — when online —
    /// produces the heartbeat and, if due, the adviser evaluation key.
    pub fn tick(&mut self, now: SimTime, rng: &mut SimRng) -> RelayTickOutcome {
        let was_online = self.online;
        self.online = self.churn.is_online(now);
        if was_online && !self.online {
            // Node went offline: drop all state; subscribers find out
            // through stalls and failover.
            self.subscribers.clear();
            self.status.forwarding.clear();
            self.quotas = NodeQuotas::new(
                self.spec.capacity_mbps,
                2.0,
                512.0,
                (self.spec.capacity_mbps / 0.5).clamp(4.0, 200.0),
            );
        }
        let active = !self.status.forwarding.is_empty();
        let interval = SimDuration::from_secs(heartbeat_interval_secs(active && self.online));

        // Background load of co-tenant services modulates the usable
        // uplink (§8.1: nodes bottleneck well below advertised rates).
        let bgn = rng.normal();
        self.bg_state = 0.9 * self.bg_state + 0.35 * bgn;
        let bg = (self.bg_mean * (1.0 + 0.7 * self.bg_state)).clamp(0.0, 0.9);
        let effective = (self.spec.capacity_mbps * (1.0 - bg)).max(0.3);
        self.uplink.set_bandwidth_bps((effective * 1e6) as u64);

        // Heartbeat (only online nodes report; offline nodes go stale in
        // the scheduler and are filtered out).
        let adviser_key = if self.online {
            self.status.used_mbps = self.quotas.bandwidth.used;
            self.status.subscribers = self.subscriber_count() as u32;
            // Adviser evaluation (§4.2.2) every other tick (10 s).
            self.adviser
                .record_utilization(self.quotas.bandwidth.utilization());
            if self.adviser.due(now) {
                self.status.forwarding.first().copied()
            } else {
                None
            }
        } else {
            None
        };
        RelayTickOutcome {
            interval,
            transition: (was_online != self.online).then_some(self.online),
            heartbeat: self.online,
            adviser_key,
        }
    }

    /// Runs the edge adviser against one forwarding key, given the
    /// scheduler-confirmed stream utilisation.
    pub fn advise(
        &mut self,
        now: SimTime,
        key: StreamKey,
        stream_util: Option<f64>,
    ) -> Vec<SwitchSuggestion> {
        self.adviser.evaluate(now, key, stream_util)
    }

    /// Pulls one frame's backhaul (`bytes`, sized by the router from
    /// subscriber demand) from `edge`, charging the dedicated-backhaul
    /// ledgers proportionally to the `(test, control)` subscriber split
    /// and scheduling the [`Event::RelayFrame`] arrival — delayed by
    /// chunk accumulation when chunk-based forwarding is configured.
    #[allow(clippy::too_many_arguments)]
    pub fn pull_backhaul(
        &mut self,
        ctx: &mut ActorCtx<'_>,
        edge: &mut CdnEdge,
        rid: u32,
        header: &FrameHeader,
        stream: u32,
        needs_payload: bool,
        bytes: usize,
        group_counts: (usize, usize),
    ) {
        let outcome = edge.transmit(ctx.now, bytes);
        if let TxOutcome::Delivered(at) = outcome {
            if needs_payload {
                self.backward_bytes += bytes as u64;
                self.quotas.bandwidth.used = self.quotas.bandwidth.used.max(0.0);
            }
            // Backhaul is dedicated traffic; attribute it to the
            // subscriber groups proportionally.
            if needs_payload {
                let (test_subs, control_subs) = group_counts;
                let total = (test_subs + control_subs).max(1);
                let test_share = bytes as u64 * test_subs as u64 / total as u64;
                ctx.test_traffic
                    .add(TrafficClass::DedicatedBackhaul, test_share);
                ctx.control_traffic
                    .add(TrafficClass::DedicatedBackhaul, bytes as u64 - test_share);
            }
            // Chunk-based forwarding (§5.1): the relay holds the
            // frame until its chunk completes, adding head-of-line
            // accumulation latency that frame-level push avoids.
            let chunk_delay = match ctx.cfg.chunk_frames {
                Some(chunk) if chunk > 1 => {
                    let idx = header.dts_ms / 33;
                    let pos = idx % chunk as u64;
                    SimDuration::from_millis((chunk as u64 - 1 - pos) * 33)
                }
                _ => SimDuration::ZERO,
            };
            let arrive = at + chunk_delay + SimDuration::from_millis(self.spec.base_rtt_ms / 2);
            ctx.queue.schedule(
                arrive,
                Event::RelayFrame {
                    relay: rid,
                    stream,
                    dts: header.dts_ms,
                },
            );
        }
    }

    /// Forwards one frame to the resolved subscriber `views`:
    /// packetises at each client's ABR scale, transmits over the shared
    /// uplink, schedules the arriving slice, and hands central-
    /// sequencing clients to the super node for chain delivery.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_frame(
        &mut self,
        ctx: &mut ActorCtx<'_>,
        header: FrameHeader,
        stream: u32,
        dts: u64,
        ss: u16,
        views: &[SubscriberView],
        super_node: &mut SuperNode,
        streams: usize,
    ) {
        for view in views {
            let size = (header.size as f64 * view.scale) as u32;
            let total = size.div_ceil(PACKET_PAYLOAD).max(1);
            let overhead = ctx.cfg.transport.packet_overhead() as u32;
            let mut received = PacketSet::default();
            let mut last_arrival = None;
            let mut bytes = 0u64;
            for i in 0..total {
                let payload = if i + 1 == total {
                    (size - (total - 1) * PACKET_PAYLOAD.min(size)).max(64)
                } else {
                    PACKET_PAYLOAD
                };
                let pkt_bytes = payload as usize + overhead as usize;
                match self.uplink.transmit(ctx.now, pkt_bytes) {
                    TxOutcome::Delivered(at) => {
                        received.insert(i);
                        bytes += pkt_bytes as u64;
                        last_arrival = Some(last_arrival.map_or(at, |l: SimTime| l.max(at)));
                    }
                    TxOutcome::Lost | TxOutcome::QueueDrop => {}
                }
            }
            self.serving_bytes += bytes;
            ctx.ledger(view.group)
                .add(TrafficClass::BestEffortServing, bytes);
            if let Some(at) = last_arrival {
                let arrive = at + ctx.cfg.transport.hop_overhead();
                ctx.queue.schedule(
                    arrive,
                    Event::ClientSlice(ctx.slices.boxed(SliceDelivery {
                        client: view.client,
                        header,
                        substream: ss,
                        received,
                        total,
                        chain: view.chain,
                        bytes,
                    })),
                );
            }
            // Centralised sequencing: the super node ships the chain
            // separately, later, and not at all during outages.
            if view.super_chain {
                super_node.schedule_chain(ctx, view.client, stream, dts, streams);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlive_sim::nat::NatType;
    use rlive_sim::rng::EmpiricalCdf;

    fn spec(id: u64) -> NodeSpec {
        NodeSpec {
            id,
            capacity_mbps: 20.0,
            isp: 0,
            region: 0,
            bgp_prefix: 0,
            geo: (0.0, 0.0),
            nat: NatType::Public,
            high_quality: true,
            base_rtt_ms: 20,
        }
    }

    fn relay() -> Relay {
        let mut rng = SimRng::new(11);
        Relay::new(
            &spec(3),
            AdviserConfig::default(),
            ChurnModel::production(),
            &mut rng,
        )
    }

    #[test]
    fn subscribe_unsubscribe_bookkeeping() {
        let mut r = relay();
        assert!(r.subscribe(7, 2, 0, 0.5, true));
        assert!(r.subscribe(8, 2, FULL_STREAM, 1.0, true));
        assert!(r.feeds(2));
        assert_eq!(r.subscriber_count(), 2);
        assert_eq!(r.peak_subscribers, 2);
        // Full-stream subscribers come first in the forwarding order.
        assert_eq!(r.targets_for(2, 0).collect::<Vec<_>>(), vec![8, 7]);
        assert_eq!(r.interested_clients(2, 0).collect::<Vec<_>>(), vec![7, 8]);
        // Substream 1 only reaches the full-stream subscriber.
        assert_eq!(r.targets_for(2, 1).collect::<Vec<_>>(), vec![8]);
        r.unsubscribe(7, 2, 0, 0.5);
        assert!(!r.has_subscribers(2, 0));
        assert!(r.feeds(2), "full-stream subscriber still feeds");
        r.unsubscribe(8, 2, FULL_STREAM, 1.0);
        assert!(!r.feeds(2));
        assert_eq!(r.subscriber_count(), 0);
        assert_eq!(r.peak_subscribers, 2, "high-water mark survives");
    }

    #[test]
    fn admission_rejects_over_quota() {
        let mut r = relay();
        // 20 Mbps capacity at 1.6x reservation: 12 admits of 1 Mbps
        // exhaust it.
        let mut admitted = 0;
        for cid in 0..40u64 {
            if r.subscribe(cid, 0, 0, 1.0, false) {
                admitted += 1;
            }
        }
        assert!(admitted > 0 && admitted < 40, "admitted {admitted}");
    }

    #[test]
    fn churn_outage_clears_state_and_resubscribe_works_after_recovery() {
        let mut r = relay();
        let outage_at = SimTime::ZERO + SimDuration::from_secs(30);
        r.set_churn(ChurnTimeline::scripted(
            ChurnModel::from_lifespan_cdf(
                EmpiricalCdf::from_points(&[(10.0, 0.0), (20.0, 1.0)]),
                0.001,
            ),
            SimRng::new(5),
            outage_at,
            SimDuration::from_secs(10),
        ));
        let mut rng = SimRng::new(6);
        assert!(r.subscribe(1, 0, 0, 0.5, true));
        let before = r.tick(SimTime::ZERO + SimDuration::from_secs(1), &mut rng);
        assert!(r.online);
        assert!(before.transition.is_none());
        assert!(before.heartbeat);

        let during = r.tick(outage_at + SimDuration::from_secs(1), &mut rng);
        assert!(!r.online);
        assert_eq!(during.transition, Some(false));
        assert!(!during.heartbeat, "offline nodes do not report");
        assert_eq!(r.subscriber_count(), 0, "outage drops all subscribers");
        assert!(!r.feeds(0));
        assert!(
            !r.subscribe(2, 0, 0, 0.5, true),
            "offline relays admit nobody"
        );

        let after = r.tick(outage_at + SimDuration::from_secs(30), &mut rng);
        assert!(r.online, "outage window has passed");
        assert_eq!(after.transition, Some(true));
        assert!(
            r.subscribe(2, 0, 0, 0.5, true),
            "recovered relay admits again"
        );
    }
}
