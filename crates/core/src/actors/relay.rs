//! The best-effort relay actor: subscriptions, backhaul pull, fan-out
//! forwarding, churn, background load and the edge adviser.

use crate::actors::cdn::CdnEdge;
use crate::actors::client::Client;
use crate::actors::stream::SuperNode;
use crate::actors::ActorCtx;
use crate::arena::IdArena;
use crate::cost::TrafficClass;
use crate::events::{Event, SliceDelivery, TraceSink};
use rlive_control::adviser::SwitchSuggestion;
use rlive_control::adviser::UTIL_WINDOW_CAPACITY;
use rlive_control::features::{heartbeat_interval_secs, ClientId};
use rlive_control::quota::NodeQuotas;
use rlive_control::{AdviserConfig, EdgeAdviser, NodeId, NodeStatus, StreamKey};
use rlive_data::reorder::PacketSet;
use rlive_media::footprint::LocalChain;
use rlive_media::frame::FrameHeader;
use rlive_media::packet::PACKET_PAYLOAD;
use rlive_sim::churn::{ChurnModel, ChurnTimeline};
use rlive_sim::link::{Link, LinkConfig, TxOutcome};
use rlive_sim::nat::NatType;
use rlive_sim::{SimDuration, SimRng, SimTime};
use rlive_workload::nodes::NodeSpec;
use std::borrow::Cow;
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
        let central_client = client.spec().central_sequencing;
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

/// One best-effort relay node: the core every tick reads, plus the
/// [`Serving`] part, built the first time the relay is probed or
/// subscribed to ([`Relay::start_serving`]) and kept for its life.
pub(crate) struct Relay {
    churn: ChurnTimeline,
    /// The uplink's RNG, forked at build: until the serving part exists
    /// only the bandwidth touches the link, so a link built later from
    /// it equals one built at t = 0.
    link_rng: SimRng,
    /// Mean fraction of the uplink consumed by the node's other tenants
    /// (best-effort boxes are shared; advertised bandwidth is far less
    /// reliable than dedicated servers, §8.1).
    bg_mean: f64,
    /// Mean-reverting fluctuation state of the background load.
    bg_state: f64,
    /// Current background-load-modulated uplink bandwidth.
    uplink_bps: u64,
    capacity_mbps: f64,
    base_rtt_ms: u64,
    serving: Option<Box<Serving>>,
    pub region: u16,
    pub nat: NatType,
    pub high_quality: bool,
    /// Whether the node is currently online.
    pub online: bool,
    /// Utilisation samples (of fresh quotas) recorded with no serving
    /// part, saturating at the adviser window.
    idle_samples: u8,
}

// Every node holds a core; only relays that serve hold the rest.
const _: () = assert!(std::mem::size_of::<Relay>() <= 192);

/// The state of a relay that has served.
pub(crate) struct Serving {
    uplink: Link,
    /// Admission quotas.
    pub quotas: NodeQuotas,
    adviser: EdgeAdviser,
    /// [`SubKey`] -> subscriber client ids, as a flat table sorted by
    /// key (binary-searched; iteration order matches the BTreeMap it
    /// replaces): a stream's whole-stream subscribers come before its
    /// split slots.
    subscribers: Vec<(SubKey, Vec<u64>)>,
    /// What the relay's heartbeats report. `forwarding` is kept live;
    /// the load scalars are refreshed by every online tick.
    status: NodeStatus,
    /// Bytes served to subscribers over the uplink.
    pub serving_bytes: u64,
    /// Bytes pulled from the CDN backhaul.
    pub backward_bytes: u64,
    /// High-water mark of concurrent subscribers.
    pub peak_subscribers: usize,
}

impl Serving {
    /// Current subscriber count across all substreams.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.iter().map(|(_, v)| v.len()).sum()
    }

    /// Position of `key` in the sorted subscriber table.
    fn search(&self, key: SubKey) -> Result<usize, usize> {
        self.subscribers.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The subscriber table's entries of `stream`.
    fn stream_entries(&self, stream: u32) -> &[(SubKey, Vec<u64>)] {
        let subs = &self.subscribers[..];
        let lo = subs.partition_point(|&((s, ..), _)| s < stream);
        let len = subs[lo..].partition_point(|&((s, ..), _)| s == stream);
        &subs[lo..lo + len]
    }
}

/// A subscription key: `(stream, split width, slot)`. Width 1 is the
/// whole stream; a split session subscribes slot by slot at width K.
pub(crate) type SubKey = (u32, u16, u16);

/// The quotas of a relay of `capacity_mbps` nobody is subscribed to.
fn fresh_quotas(capacity_mbps: f64) -> NodeQuotas {
    let sessions = (capacity_mbps / 0.5).clamp(4.0, 200.0);
    NodeQuotas::new(capacity_mbps, 2.0, 512.0, sessions)
}

/// The forwarding-set key of a subscription: a whole-stream key and
/// slot 0 of a split share one.
fn forwarding_key((stream, _, slot): SubKey) -> StreamKey {
    StreamKey {
        stream_id: stream as u64,
        substream: slot,
    }
}

impl Relay {
    /// Builds a relay from its spec, drawing the background-load mean
    /// and forking the uplink and churn RNGs from `rng` (in this exact
    /// order — the draw sequence is part of the determinism contract).
    pub fn new(spec: &NodeSpec, churn_model: impl Into<Arc<ChurnModel>>, rng: &mut SimRng) -> Self {
        Relay {
            bg_mean: rng.range_f64(0.15, 0.55),
            link_rng: rng.fork(300 + spec.id),
            churn: ChurnTimeline::new(churn_model, rng.fork(4000 + spec.id)),
            bg_state: 0.0,
            uplink_bps: LinkConfig::best_effort(spec.capacity_mbps, spec.base_rtt_ms).bandwidth_bps,
            capacity_mbps: spec.capacity_mbps,
            base_rtt_ms: spec.base_rtt_ms,
            serving: None,
            region: spec.region,
            nat: spec.nat,
            high_quality: spec.high_quality,
            online: true,
            idle_samples: 0,
        }
    }

    /// Builds the serving part of relay `id`, as it would stand had it
    /// been built with the core, unless it exists. Returns whether it
    /// was built now.
    pub fn start_serving(&mut self, id: NodeId, cfg: &AdviserConfig, trace: &TraceSink) -> bool {
        if self.serving.is_some() {
            return false;
        }
        let quotas = fresh_quotas(self.capacity_mbps);
        let mut adviser = EdgeAdviser::new(id, cfg.clone());
        adviser.set_trace_sink(trace.clone());
        for _ in 0..self.idle_samples {
            adviser.record_utilization(quotas.bandwidth.utilization());
        }
        let link = LinkConfig {
            bandwidth_bps: self.uplink_bps,
            ..LinkConfig::best_effort(self.capacity_mbps, self.base_rtt_ms)
        };
        self.serving = Some(Box::new(Serving {
            uplink: Link::new(link, self.link_rng.clone()),
            quotas,
            adviser,
            subscribers: Vec::new(),
            status: self.status().into_owned(),
            serving_bytes: 0,
            backward_bytes: 0,
            peak_subscribers: 0,
        }));
        true
    }

    /// The serving part, if the relay has ever served.
    pub fn serving(&self) -> Option<&Serving> {
        self.serving.as_deref()
    }

    fn part(&mut self) -> &mut Serving {
        let part = self.serving.as_deref_mut();
        part.expect("the serving part is built before the relay serves")
    }

    /// Whether this relay receives the header sequence of `stream`:
    /// whether any subscriber listens on one of its substreams.
    pub fn feeds(&self, stream: u32) -> bool {
        self.serving()
            .is_some_and(|p| !p.stream_entries(stream).is_empty())
    }

    /// Forwarding targets of one frame of `stream` on substream `ss`, in
    /// subscription order: whole-stream subscribers first, then those
    /// of slot `ss` (a world splits at one K).
    pub fn targets_for(&self, stream: u32, ss: u16) -> impl Iterator<Item = u64> + '_ {
        let entries = self.serving().map_or(&[][..], |p| p.stream_entries(stream));
        let (whole, split) = match entries {
            [((_, 1, _), subs), rest @ ..] => (&subs[..], rest),
            _ => (&[][..], entries),
        };
        let slot = split.iter().find(|&&((_, _, slot), _)| slot == ss);
        let slot = slot.map_or(&[][..], |(_, subs)| &subs[..]);
        whole.iter().chain(slot).copied()
    }

    /// Every subscribed client id (cost-consolidation suggestions go to
    /// all of them).
    pub fn all_subscriber_ids(&self) -> impl Iterator<Item = u64> + '_ {
        let subs = self.serving().map_or(&[][..], |p| &p.subscribers);
        subs.iter().flat_map(|(_, v)| v.iter().copied())
    }

    /// Replaces the churn timeline (failure injection).
    pub fn set_churn(&mut self, churn: ChurnTimeline) {
        self.churn = churn;
    }

    /// Attaches the structured trace sink to the relay's adviser.
    pub fn set_trace(&mut self, sink: TraceSink) {
        if let Some(p) = self.serving.as_deref_mut() {
            p.adviser.set_trace_sink(sink);
        }
    }

    /// Whether an additional session with the given footprint fits the
    /// relay's quotas.
    pub fn admits(&self, bandwidth_mbps: f64, cpu_cores: f64, memory_mb: f64) -> bool {
        let quotas = match self.serving() {
            Some(p) => Cow::Borrowed(&p.quotas),
            None => Cow::Owned(fresh_quotas(self.capacity_mbps)),
        };
        quotas.admits(bandwidth_mbps, cpu_cores, memory_mb)
    }

    /// What the relay's heartbeats report: an idle status until it
    /// serves.
    pub fn status(&self) -> Cow<'_, NodeStatus> {
        match self.serving() {
            Some(p) => Cow::Borrowed(&p.status),
            None => Cow::Owned(NodeStatus {
                conn_success_rate: 0.95,
                ..NodeStatus::idle(self.capacity_mbps)
            }),
        }
    }

    /// Admits one subscription: reserves uplink quota, records the
    /// subscriber under `key` and starts forwarding it. Returns `false`
    /// (without side effects) when offline or over quota.
    /// `client_exists` gates the adviser's per-connection QoS record.
    pub fn subscribe(
        &mut self,
        cid: u64,
        key: SubKey,
        bandwidth_mbps: f64,
        client_exists: bool,
    ) -> bool {
        if !self.online {
            return false;
        }
        let rtt = self.base_rtt_ms as f64;
        let p = self.part();
        // Reserve 1.6x the average rate: frame-level substream splitting
        // concentrates whole I-frames on single relays, so admission at
        // the mean rate would tail-drop every keyframe burst.
        if !p.quotas.reserve(bandwidth_mbps * 1.6, 0.02, 4.0) {
            return false;
        }
        match p.search(key) {
            Ok(i) => p.subscribers[i].1.push(cid),
            Err(i) => p.subscribers.insert(i, (key, vec![cid])),
        }
        p.peak_subscribers = p.peak_subscribers.max(p.subscriber_count());
        p.status.forwarding.insert(forwarding_key(key));
        if client_exists {
            p.adviser.record_connection_qos(ClientId(cid), rtt);
        }
        true
    }

    /// Reverses one [`Relay::subscribe`]: releases quota and stops
    /// forwarding substreams (and feeding streams) nobody listens to,
    /// under either key that shares the forwarding entry. A relay that
    /// has never served holds nothing to release.
    pub fn unsubscribe(&mut self, cid: u64, key: SubKey, bandwidth_mbps: f64) {
        let Some(p) = self.serving.as_deref_mut() else {
            return;
        };
        if let Ok(i) = p.search(key) {
            let subs = &mut p.subscribers[i].1;
            subs.retain(|&c| c != cid);
            if subs.is_empty() {
                p.subscribers.remove(i);
                let (stream, _, slot) = key;
                let entries = p.stream_entries(stream);
                if !entries.iter().any(|&((.., s), _)| s == slot) {
                    p.status.forwarding.remove(&forwarding_key(key));
                }
            }
        }
        p.quotas.release(bandwidth_mbps * 1.6, 0.02, 4.0);
        p.adviser.remove_connection(ClientId(cid));
    }

    /// Current RTT estimate including uplink queueing and jitter.
    pub fn rtt_estimate(&mut self, now: SimTime) -> SimDuration {
        let base = SimDuration::from_millis(self.base_rtt_ms);
        let uplink = &mut self.part().uplink;
        base + uplink.queue_delay(now) + uplink.jitter_delay(now)
    }

    /// One maintenance tick: advances the churn state (dropping all
    /// subscription state on an offline transition), refreshes the
    /// background-load-modulated uplink bandwidth, and — when online —
    /// produces the heartbeat and, if due, the adviser evaluation key.
    pub fn tick(&mut self, now: SimTime, rng: &mut SimRng) -> RelayTickOutcome {
        let was_online = self.online;
        self.online = self.churn.is_online(now);
        let mut part = self.serving.as_deref_mut();
        if let Some(p) = part.as_mut().filter(|_| was_online && !self.online) {
            // Node went offline: drop all state; subscribers find out
            // through stalls and failover.
            p.subscribers.clear();
            p.status.forwarding.clear();
            p.quotas = fresh_quotas(self.capacity_mbps);
        }
        let active = part
            .as_ref()
            .is_some_and(|p| !p.status.forwarding.is_empty());
        let interval = SimDuration::from_secs(heartbeat_interval_secs(active && self.online));

        // Background load of co-tenant services modulates the usable
        // uplink (§8.1: nodes bottleneck well below advertised rates).
        let bgn = rng.normal();
        self.bg_state = 0.9 * self.bg_state + 0.35 * bgn;
        let bg = (self.bg_mean * (1.0 + 0.7 * self.bg_state)).clamp(0.0, 0.9);
        let effective = (self.capacity_mbps * (1.0 - bg)).max(0.3);
        self.uplink_bps = (effective * 1e6) as u64;

        // Heartbeat (only online nodes report; offline nodes go stale in
        // the scheduler and are filtered out), and the adviser
        // evaluation (§4.2.2) every other tick (10 s).
        let mut adviser_key = None;
        match part {
            Some(p) => {
                p.uplink.set_bandwidth_bps(self.uplink_bps);
                if self.online {
                    p.status.used_mbps = p.quotas.bandwidth.used;
                    p.status.subscribers = p.subscriber_count() as u32;
                    p.adviser
                        .record_utilization(p.quotas.bandwidth.utilization());
                    if p.adviser.due(now) {
                        adviser_key = p.status.forwarding.first().copied();
                    }
                }
            }
            None if self.online => {
                self.idle_samples = (self.idle_samples + 1).min(UTIL_WINDOW_CAPACITY as u8);
            }
            None => {}
        }
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
        self.part().adviser.evaluate(now, key, stream_util)
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
            // Backhaul is dedicated traffic; attribute it to the
            // subscriber groups proportionally.
            if needs_payload {
                self.part().backward_bytes += bytes as u64;
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
            let arrive = at + chunk_delay + SimDuration::from_millis(self.base_rtt_ms / 2);
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
        let p = self.part();
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
                match p.uplink.transmit(ctx.now, pkt_bytes) {
                    TxOutcome::Delivered(at) => {
                        received.insert(i);
                        bytes += pkt_bytes as u64;
                        last_arrival = Some(last_arrival.map_or(at, |l: SimTime| l.max(at)));
                    }
                    TxOutcome::Lost | TxOutcome::QueueDrop => {}
                }
            }
            p.serving_bytes += bytes;
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

    /// A relay that has never served.
    fn idle_relay() -> Relay {
        Relay::new(&spec(3), ChurnModel::production(), &mut SimRng::new(11))
    }

    fn start(r: &mut Relay) -> bool {
        r.start_serving(NodeId(3), &AdviserConfig::default(), &TraceSink::disabled())
    }

    /// A relay with its serving part.
    fn relay() -> Relay {
        let mut r = idle_relay();
        start(&mut r);
        r
    }

    #[test]
    fn subscribe_unsubscribe_bookkeeping() {
        let mut r = relay();
        let targets = |r: &Relay, stream, ss| r.targets_for(stream, ss).collect::<Vec<_>>();
        // Mixed widths: slot 0 of a 4-way split, then a whole stream.
        assert!(r.subscribe(7, (2, 4, 0), 0.5, true));
        assert!(r.subscribe(8, (2, 1, 0), 1.0, true));
        assert!(r.feeds(2));
        assert_eq!(r.all_subscriber_ids().count(), 2);
        assert_eq!(r.serving().unwrap().peak_subscribers, 2);
        // Whole-stream subscribers come first; slot 1 reaches only them.
        let both = (targets(&r, 2, 0), targets(&r, 2, 1));
        assert_eq!(both, (vec![8, 7], vec![8]));
        // The two keys share one forwarding entry, kept while either
        // key has subscribers.
        let forwards = |r: &Relay| r.status().forwarding.first().map(|k| k.substream);
        r.unsubscribe(8, (2, 1, 0), 1.0);
        assert_eq!(forwards(&r), Some(0), "slot 0 still forwards");
        assert!(r.subscribe(8, (2, 1, 0), 1.0, true));
        r.unsubscribe(7, (2, 4, 0), 0.5);
        assert_eq!(forwards(&r), Some(0), "the whole stream still forwards");
        assert_eq!(targets(&r, 2, 0), [8]);
        r.unsubscribe(8, (2, 1, 0), 1.0);
        assert!(!r.feeds(2) && forwards(&r).is_none());
        assert_eq!(r.all_subscriber_ids().count(), 0);
        let peak = r.serving().unwrap().peak_subscribers;
        assert_eq!(peak, 2, "high-water mark survives");
        // K = 1: the one slot is the whole stream; each subscriber once.
        assert!(r.subscribe(5, (3, 1, 0), 1.0, true) && r.subscribe(6, (3, 1, 0), 1.0, true));
        assert_eq!(targets(&r, 3, 0), [5, 6]);
    }

    #[test]
    fn admission_rejects_over_quota() {
        let mut r = relay();
        // 20 Mbps capacity at 1.6x reservation: 12 admits of 1 Mbps
        // exhaust it.
        let mut admitted = 0;
        for cid in 0..40u64 {
            if r.subscribe(cid, (0, 4, 0), 1.0, false) {
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
        assert!(r.subscribe(1, (0, 4, 0), 0.5, true));
        let before = r.tick(SimTime::ZERO + SimDuration::from_secs(1), &mut rng);
        assert!(r.online);
        assert!(before.transition.is_none());
        assert!(before.heartbeat);

        let during = r.tick(outage_at + SimDuration::from_secs(1), &mut rng);
        assert!(!r.online);
        assert_eq!(during.transition, Some(false));
        assert!(!during.heartbeat, "offline nodes do not report");
        let left = r.all_subscriber_ids().count();
        assert_eq!(left, 0, "outage drops all subscribers");
        assert!(!r.feeds(0));
        assert!(
            !r.subscribe(2, (0, 4, 0), 0.5, true),
            "offline relays admit nobody"
        );

        let after = r.tick(outage_at + SimDuration::from_secs(30), &mut rng);
        assert!(r.online, "outage window has passed");
        assert_eq!(after.transition, Some(true));
        assert!(
            r.subscribe(2, (0, 4, 0), 0.5, true),
            "recovered relay admits again"
        );
    }

    #[test]
    fn a_serving_part_built_late_equals_one_built_with_the_core() {
        let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
        let mut early = relay();
        let mut late = idle_relay();
        let (mut rng_early, mut rng_late) = (SimRng::new(6), SimRng::new(6));
        let mut tick_both = |early: &mut Relay, late: &mut Relay, now| {
            let a = early.tick(now, &mut rng_early);
            let b = late.tick(now, &mut rng_late);
            assert_eq!(
                (a.interval, a.transition, a.heartbeat, a.adviser_key),
                (b.interval, b.transition, b.heartbeat, b.adviser_key),
                "tick at {now:?}"
            );
            assert_eq!(early.status(), late.status(), "heartbeat at {now:?}");
            a.adviser_key
        };
        // Six idle ticks fill the adviser window with fresh-quota samples.
        for secs in (0..30).step_by(5) {
            tick_both(&mut early, &mut late, at(secs));
        }
        assert!(late.serving().is_none(), "ticks alone build nothing");
        assert!(early.online && late.online, "the seed keeps the node up");
        assert!(start(&mut late) && !start(&mut late), "built once");

        // Probed and subscribed at t = 30 s.
        assert_eq!(early.rtt_estimate(at(30)), late.rtt_estimate(at(30)));
        for cid in 0..10 {
            let admitted = early.subscribe(cid, (1, 4, 0), 1.0, true);
            assert_eq!(admitted, late.subscribe(cid, (1, 4, 0), 1.0, true));
        }
        // Traffic before the next tick runs at the bandwidth of the last.
        let burst = |r: &mut Relay| -> Vec<_> {
            let now = |i| at(31) + SimDuration::from_millis(i);
            (0..200)
                .map(|i| r.part().uplink.transmit(now(i), 1_200))
                .collect()
        };
        assert_eq!(burst(&mut early), burst(&mut late));
        // The next tick brings the adviser due with a forwarding key.
        let key = tick_both(&mut early, &mut late, at(35)).expect("adviser due");
        let advice = early.advise(at(35), key, Some(0.1));
        assert!(!advice.is_empty(), "the idle samples fill the window");
        assert_eq!(advice, late.advise(at(35), key, Some(0.1)));
        // A minute of traffic: the link's losses and jitter episodes
        // draw from its RNG.
        for i in 0..3_000 {
            let now = at(36) + SimDuration::from_millis(20 * i);
            let sent = early.part().uplink.transmit(now, 1_200);
            assert_eq!(sent, late.part().uplink.transmit(now, 1_200), "{now:?}");
            assert_eq!(early.rtt_estimate(now), late.rtt_estimate(now), "{now:?}");
        }
        assert_eq!(early.admits(1.0, 0.02, 4.0), late.admits(1.0, 0.02, 4.0));
    }
}
