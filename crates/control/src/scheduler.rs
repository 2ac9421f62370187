//! The global scheduler (§4.1.1).
//!
//! The scheduler ingests node heartbeats, keeps per-node static and
//! temporal state, and answers candidate-recommendation requests: it
//! retrieves a pool from the [`crate::registry::HashTreeRegistry`],
//! ranks the pool with the personalised availability/cost objective
//! `argmax Σ aᵢ/pᵢ` (a node already forwarding the requested substream
//! has no back-to-CDN cost), mixes in exploration candidates (§8.2), and
//! returns the top-K. It also models the service's processing latency so
//! Fig 12(a) can be regenerated.

use crate::features::{
    ClientInfo, Heartbeat, NodeClass, NodeId, NodeStatus, StaticFeatures, StreamKey,
};
use crate::policy::{build_policy, SchedulerPolicy, SchedulerPolicyKind};
use crate::registry::{AttrQuery, HashTreeRegistry, MatchLevel};
use crate::scoring::{score, NatSuccessHistory, ScoreWeights};
use rlive_sim::metrics::{Percentiles, Summary};
use rlive_sim::trace::{TraceEvent, TraceSink};
use rlive_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Scheduler configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Number of candidates returned to the client (top-K).
    pub top_k: usize,
    /// Relative cost multiplier for a node that must newly subscribe to
    /// the CDN (back-to-CDN traffic), versus one already forwarding.
    pub back_to_cdn_cost: f64,
    /// Fraction of the candidate list reserved for exploration (idle or
    /// under-observed nodes), the §8.2 explore–exploit balance.
    pub explore_fraction: f64,
    /// Which scoring policy serves recommendations (see
    /// [`crate::policy`]).
    pub policy: SchedulerPolicyKind,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            top_k: 8,
            back_to_cdn_cost: 2.0,
            explore_fraction: 0.2,
            policy: SchedulerPolicyKind::Static,
        }
    }
}

/// One recommended candidate, as returned to the client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The node.
    pub node: NodeId,
    /// Its availability/cost rank score at recommendation time.
    pub score: f64,
    /// Whether the node was already forwarding the requested substream.
    pub already_forwarding: bool,
}

/// A full recommendation response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Recommendation {
    /// The requested substream.
    pub key: StreamKey,
    /// Candidates, best first.
    pub candidates: Vec<Candidate>,
    /// Time the scheduler spent producing the answer (modelled).
    pub service_time: SimDuration,
    /// How far the registry had to relax the attribute match.
    pub match_level: MatchLevel,
}

/// What the scheduler knows of one node, at the node's registry slot.
struct NodeRecord {
    statics: StaticFeatures,
    status: NodeStatus,
    last_heartbeat: SimTime,
}

/// Heartbeats older than this mark a node stale and unrecommendable.
const STALENESS: SimDuration = SimDuration::from_secs(30);

/// Base processing time of one recommendation request.
const SERVICE_BASE: SimDuration = SimDuration::from_millis(20);

/// Additional processing time per scored candidate.
const SERVICE_PER_CANDIDATE: SimDuration = SimDuration::from_micros(100);

impl NodeRecord {
    /// Whether the node may still be recommended and still vouches for
    /// the capacity of the streams it forwards: it has never sent a
    /// heartbeat (just registered), or its last one is no older than
    /// [`STALENESS`].
    fn is_fresh(&self, now: SimTime) -> bool {
        self.last_heartbeat == SimTime::ZERO
            || now.saturating_since(self.last_heartbeat) <= STALENESS
    }
}

/// The global scheduler.
///
/// # Examples
///
/// ```
/// use rlive_control::features::*;
/// use rlive_control::scheduler::{GlobalScheduler, SchedulerConfig};
/// use rlive_control::scoring::Platform;
/// use rlive_sim::nat::NatType;
/// use rlive_sim::{SimRng, SimTime};
///
/// let mut sched = GlobalScheduler::new(SchedulerConfig::default(), SimRng::new(1));
/// let statics = StaticFeatures {
///     isp: 1, region: 1, bgp_prefix: 9, geo: (0.0, 0.0),
///     class: NodeClass::Normal, conn_type: ConnectionType::Cable,
///     nat: NatType::FullCone,
/// };
/// sched.register_node(NodeId(1), statics, NodeStatus::idle(50.0));
/// let client = ClientInfo {
///     id: ClientId(7), isp: 1, region: 1, bgp_prefix: 9,
///     geo: (0.0, 0.0), platform: Platform::Android,
/// };
/// let key = StreamKey { stream_id: 3, substream: 0 };
/// let rec = sched.recommend(SimTime::from_secs(1), &client, key);
/// assert_eq!(rec.candidates[0].node, NodeId(1));
/// ```
pub struct GlobalScheduler {
    cfg: SchedulerConfig,
    registry: HashTreeRegistry,
    /// Node records, indexed by the registry's slot: the registry's id
    /// map is the only one.
    nodes: Vec<NodeRecord>,
    nat_history: NatSuccessHistory,
    /// The scoring policy behind the [`crate::policy::SchedulerPolicy`]
    /// seam. Adjusts availability scores and absorbs windowed feedback.
    policy: Box<dyn SchedulerPolicy>,
    rng: SimRng,
    // Telemetry for Fig 12.
    service_times: Percentiles,
    requests: u64,
    /// Structured trace sink (disabled by default): every served
    /// recommendation is emitted as a `SchedulerRecommendation` event.
    trace: TraceSink,
    // Scratch reused across recommendations and stream-utilisation
    // reads; holds nothing between calls.
    pool: Vec<u32>,
    scored: Vec<Candidate>,
}

impl GlobalScheduler {
    /// Creates a scheduler.
    pub fn new(cfg: SchedulerConfig, rng: SimRng) -> Self {
        let policy = build_policy(cfg.policy);
        GlobalScheduler {
            cfg,
            registry: HashTreeRegistry::new(),
            nodes: Vec::new(),
            nat_history: NatSuccessHistory::default(),
            policy,
            rng,
            service_times: Percentiles::new(),
            requests: 0,
            trace: TraceSink::disabled(),
            pool: Vec::new(),
            scored: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Attaches a structured trace sink for recommendation events.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Registers a node's static features (on first sight / re-register).
    pub fn register_node(&mut self, node: NodeId, statics: StaticFeatures, status: NodeStatus) {
        let slot = self.registry.index_node(
            node,
            statics.isp,
            statics.class,
            statics.region,
            status.forwarding.iter().copied(),
        );
        let rec = NodeRecord {
            statics,
            status,
            last_heartbeat: SimTime::ZERO,
        };
        match slot {
            slot if slot == self.nodes.len() => self.nodes.push(rec),
            slot => self.nodes[slot] = rec,
        }
    }

    /// Makes room for `nodes` more registrations.
    pub fn reserve(&mut self, nodes: usize) {
        self.nodes.reserve_exact(nodes);
        self.registry.reserve(nodes);
    }

    /// Number of known nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Ingests one heartbeat, refreshing temporal state and the index.
    pub fn ingest_heartbeat(&mut self, hb: Heartbeat) {
        self.ingest_status(hb.node, hb.at, &hb.status);
    }

    /// [`GlobalScheduler::ingest_heartbeat`] from a status the caller
    /// keeps: the scalars are copied, and the forwarding set is copied
    /// and re-indexed only when it changed.
    pub fn ingest_status(&mut self, node: NodeId, at: SimTime, status: &NodeStatus) {
        let Some(slot) = self.registry.slot(node) else {
            return;
        };
        let rec = &mut self.nodes[slot];
        rec.last_heartbeat = at;
        let forwarding = std::mem::take(&mut rec.status.forwarding);
        rec.status = NodeStatus {
            forwarding,
            ..*status
        };
        if rec.status.forwarding != status.forwarding {
            rec.status.forwarding.clone_from(&status.forwarding);
            self.registry.index_node(
                node,
                rec.statics.isp,
                rec.statics.class,
                rec.statics.region,
                status.forwarding.iter().copied(),
            );
        }
    }

    /// Records the outcome of a client's connection attempt so the
    /// NAT-specific success-rate term stays current. The same outcome
    /// feeds the active policy's per-node candidate-yield window.
    pub fn observe_connection(&mut self, now: SimTime, node: NodeId, success: bool) {
        if let Some(slot) = self.registry.slot(node) {
            self.nat_history
                .observe(self.nodes[slot].statics.nat, success);
            self.policy.note_probe(now, node, success);
        }
    }

    /// Feeds the outcome of a loss-recovery attempt attributed to
    /// `node` (the best-effort relay that was serving the recovered
    /// frame's substream) into the active policy's per-node
    /// recovery-failure window. A no-op under the static policy and for
    /// departed nodes.
    pub fn note_recovery_outcome(&mut self, now: SimTime, node: NodeId, success: bool) {
        if self.registry.slot(node).is_some() {
            self.policy.note_recovery(now, node, success);
        }
    }

    /// The active policy's label (`static` / `adaptive`).
    pub fn policy_label(&self) -> &'static str {
        self.policy.label()
    }

    /// Demotions the active policy has applied so far, keyed by
    /// feedback window. Empty under the static policy.
    pub fn policy_demotions(&self) -> BTreeMap<u64, u64> {
        self.policy.demotions_by_window()
    }

    /// Mean stream-level utilisation across nodes forwarding `key` —
    /// the `ū_stream` double-check used by the adviser's cost trigger
    /// (§4.2.2). Departed nodes are excluded the same way the
    /// recommendation path excludes them: a node whose heartbeat is
    /// older than the staleness bound no longer vouches for the
    /// stream's capacity (its frozen last-known status would otherwise
    /// pollute the mean forever).
    pub fn stream_utilization(&mut self, now: SimTime, key: StreamKey) -> Option<f64> {
        // The registry indexes a node under `key` exactly while its
        // record forwards it. Ascending id order fixes the f64 sum.
        self.pool.clear();
        self.pool.extend(self.registry.forwarders(key));
        self.pool
            .sort_unstable_by_key(|&slot| self.registry.id(slot));
        let mut s = Summary::new();
        for &slot in &self.pool {
            let rec = &self.nodes[slot as usize];
            if rec.is_fresh(now) {
                s.add(rec.status.utilization());
            }
        }
        if s.count() == 0 {
            None
        } else {
            Some(s.mean())
        }
    }

    /// Scores the fresh nodes of `self.pool` into `self.scored`. The
    /// §4.1.1 objective is availability over cost, where cost is the
    /// client's bandwidth alone when the node already forwards the
    /// substream, and includes back-to-CDN traffic otherwise.
    fn score_pool(
        &mut self,
        now: SimTime,
        weights: &ScoreWeights,
        client: &ClientInfo,
        key: StreamKey,
    ) {
        self.scored.clear();
        for &slot in &self.pool {
            let rec = &self.nodes[slot as usize];
            if !rec.is_fresh(now) {
                continue;
            }
            let node = self.registry.id(slot);
            // The policy seam: the static score passes through
            // unmodified under `StaticScorePolicy`; `AdaptivePolicy`
            // multiplies in the node's learned demotion/boost factor.
            let raw = score(
                weights,
                &rec.statics,
                &rec.status,
                client,
                &self.nat_history,
            );
            let availability = self.policy.adjust(node, raw);
            let already = rec.status.forwarding.contains(&key);
            let cost = if already {
                1.0
            } else {
                self.cfg.back_to_cdn_cost
            };
            self.scored.push(Candidate {
                node,
                score: rank_score(availability, cost),
                already_forwarding: already,
            });
        }
    }

    /// Produces the top-K candidate recommendation for `client`
    /// requesting `key` at time `now`: retrieve a bounded pool, score
    /// it, rank it.
    pub fn recommend(
        &mut self,
        now: SimTime,
        client: &ClientInfo,
        key: StreamKey,
    ) -> Recommendation {
        let mut candidates = Vec::new();
        let (service_time, match_level) = self.recommend_into(now, client, key, &mut candidates);
        Recommendation {
            key,
            candidates,
            service_time,
            match_level,
        }
    }

    /// [`GlobalScheduler::recommend`] into a caller-owned buffer: the
    /// candidates, best first, are *appended* to `out`, so one buffer
    /// can hold several substreams' lists back to back. Returns the
    /// modelled service time and the registry's match level.
    pub fn recommend_into(
        &mut self,
        now: SimTime,
        client: &ClientInfo,
        key: StreamKey,
        out: &mut Vec<Candidate>,
    ) -> (SimDuration, MatchLevel) {
        // Stage-profiled (wall clock, stderr-only reporting).
        let _span = rlive_sim::obs::time_stage(rlive_sim::obs::Stage::SchedulerCall);
        self.requests += 1;
        // Roll the policy's feedback windows forward (no-op for Static).
        self.policy.advance(now);
        let weights = ScoreWeights::for_platform(client.platform);
        let query = AttrQuery {
            stream: key,
            isp: client.isp,
            class: NodeClass::HighQuality,
            region: client.region,
        };
        // Retrieve a pool several times K so ranking has slack. The
        // registry hands out at most `want` ids at any population.
        let want = self.cfg.top_k * 8;
        let match_level = self
            .registry
            .retrieve_slots_into(&query, want, &mut self.pool);
        self.score_pool(now, &weights, client, key);
        let scored_len = self.scored.len();
        let k = self.cfg.top_k;
        let exploit_n = ((1.0 - self.cfg.explore_fraction) * k as f64).round() as usize;
        let start = out.len();
        rank(&mut self.scored, k, exploit_n, &mut self.rng, out);

        let service_time = self.sample_service_time(scored_len);
        self.service_times.add(service_time.as_millis_f64());
        self.trace.emit(
            now,
            Some(client.id.0),
            TraceEvent::SchedulerRecommendation {
                stream: key.stream_id,
                substream: key.substream,
                candidates: (out.len() - start) as u32,
                service_time_ms: service_time.as_millis_f64(),
            },
        );
        (service_time, match_level)
    }

    fn sample_service_time(&mut self, candidates_scored: usize) -> SimDuration {
        // Base cost plus per-candidate scoring plus a lognormal tail for
        // queueing/GC/IO — calibrated to Fig 12(a): P50 ≈ 58 ms,
        // P90 ≈ 111.5 ms.
        let base = SERVICE_BASE + SERVICE_PER_CANDIDATE.saturating_mul(candidates_scored as u64);
        let tail = self.rng.lognormal(3.55, 0.7);
        base + SimDuration::from_secs_f64(tail / 1000.0)
    }

    /// Service-time distribution accumulated so far (milliseconds).
    pub fn service_time_stats(&mut self) -> &mut Percentiles {
        &mut self.service_times
    }

    /// Total recommendation requests served.
    pub fn request_count(&self) -> u64 {
        self.requests
    }
}

/// A candidate's score, `availability / cost`, checked to rank by its
/// bits: for finite scores of positive sign (+0.0 but not −0.0), the
/// order of the bit patterns as integers is the numeric order.
fn rank_score(availability: f64, cost: f64) -> f64 {
    let s = availability / cost;
    assert!(s.is_finite() && s.is_sign_positive(), "rank score {s}");
    s
}

/// Rank order: score descending, then node id ascending, compared as
/// integers (see [`rank_score`]). Total over candidates with distinct
/// ids, so a ranked vector is unique and any of its positions can be
/// computed by selection.
fn by_rank(a: &Candidate, b: &Candidate) -> Ordering {
    (b.score.to_bits(), a.node).cmp(&(a.score.to_bits(), b.node))
}

/// Reorders `v` so that `v[..n]` holds ranks `0..n` in order.
fn rank_top(v: &mut [Candidate], n: usize) {
    if 0 < n && n < v.len() {
        v.select_nth_unstable_by(n, by_rank);
    }
    v[..n].sort_unstable_by(by_rank);
}

/// Appends to `out` the `k` candidates to return from the scored pool,
/// which it reorders: ranks `0..exploit_n`, then explore picks, then
/// the ranked tail. Computes only the ranks the answer reads.
fn rank(
    scored: &mut [Candidate],
    k: usize,
    exploit_n: usize,
    rng: &mut SimRng,
    out: &mut Vec<Candidate>,
) {
    let exploit_n = exploit_n.min(scored.len());
    rank_top(scored, exploit_n);
    let (top, tail) = scored.split_at_mut(exploit_n);
    let start = out.len();
    out.reserve(k.max(exploit_n));
    out.extend_from_slice(top);
    let taken = |out: &Vec<Candidate>, node| out[start..].iter().any(|c| c.node == node);

    // Explore–exploit (§8.2): reserve a slice of the list for idle or
    // underused nodes so the scheduler keeps observing them. A pick is
    // a uniformly drawn rank among the tail's non-forwarding entries.
    let mut explorable = 0;
    for i in 0..tail.len() {
        if !tail[i].already_forwarding {
            tail.swap(i, explorable);
            explorable += 1;
        }
    }
    while out.len() - start < k && explorable > 0 {
        let pick = rng.below(explorable as u64) as usize;
        let (_, picked, _) = tail[..explorable].select_nth_unstable_by(pick, by_rank);
        if taken(out, picked.node) {
            break;
        }
        out.push(*picked);
    }
    // Fill any remaining slots from the ranked tail: the picks are the
    // only tail entries it can skip.
    if out.len() - start < k {
        let fill = (k - exploit_n).min(tail.len());
        rank_top(tail, fill);
        for c in &tail[..fill] {
            if out.len() - start >= k {
                break;
            }
            if !taken(out, c.node) {
                out.push(*c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{ClientId, ConnectionType};
    use crate::scoring::Platform;
    use rlive_sim::nat::NatType;

    fn statics(isp: u16, region: u16, bgp: u32) -> StaticFeatures {
        StaticFeatures {
            isp,
            region,
            bgp_prefix: bgp,
            geo: (0.0, 0.0),
            class: NodeClass::HighQuality,
            conn_type: ConnectionType::Cable,
            nat: NatType::FullCone,
        }
    }

    fn client() -> ClientInfo {
        ClientInfo {
            id: ClientId(1),
            isp: 1,
            region: 1,
            bgp_prefix: 100,
            geo: (0.0, 0.0),
            platform: Platform::Android,
        }
    }

    fn key() -> StreamKey {
        StreamKey {
            stream_id: 7,
            substream: 0,
        }
    }

    fn scheduler_with_nodes(n: u64) -> GlobalScheduler {
        let mut s = GlobalScheduler::new(SchedulerConfig::default(), SimRng::new(1));
        for i in 0..n {
            let mut status = NodeStatus::idle(50.0);
            if i % 2 == 0 {
                status.forwarding.insert(key());
                status.used_mbps = 10.0;
            }
            s.register_node(NodeId(i), statics(1, 1, 100 + i as u32), status);
        }
        s
    }

    #[test]
    fn recommends_top_k() {
        let mut s = scheduler_with_nodes(200);
        let rec = s.recommend(SimTime::from_secs(1), &client(), key());
        assert_eq!(rec.candidates.len(), s.config().top_k);
        assert_eq!(rec.match_level, MatchLevel::Exact);
    }

    #[test]
    fn forwarding_nodes_preferred_for_cost() {
        let mut s = scheduler_with_nodes(40);
        let rec = s.recommend(SimTime::from_secs(1), &client(), key());
        // The exploit slice should be dominated by already-forwarding
        // nodes (cost 1 vs back_to_cdn_cost 2).
        let exploit = &rec.candidates[..5];
        let forwarding = exploit.iter().filter(|c| c.already_forwarding).count();
        assert!(forwarding >= 4, "forwarding in top-5: {forwarding}");
    }

    #[test]
    fn exploration_mixes_in_idle_nodes() {
        let mut s = scheduler_with_nodes(100);
        let rec = s.recommend(SimTime::from_secs(1), &client(), key());
        let idle = rec
            .candidates
            .iter()
            .filter(|c| !c.already_forwarding)
            .count();
        assert!(idle >= 1, "no exploration candidates in {rec:?}");
    }

    #[test]
    fn stale_nodes_excluded() {
        let mut s = scheduler_with_nodes(10);
        // All nodes heartbeat at t=10s.
        for i in 0..10 {
            let mut status = NodeStatus::idle(50.0);
            status.forwarding.insert(key());
            s.ingest_heartbeat(Heartbeat {
                node: NodeId(i),
                at: SimTime::from_secs(10),
                status,
            });
        }
        // At t=100s everything is stale (staleness 30s).
        let rec = s.recommend(SimTime::from_secs(100), &client(), key());
        assert!(rec.candidates.is_empty(), "{:?}", rec.candidates);
        // At t=20s nodes are fresh.
        let rec = s.recommend(SimTime::from_secs(20), &client(), key());
        assert!(!rec.candidates.is_empty());
    }

    #[test]
    fn heartbeat_updates_forwarding_index() {
        let mut s = GlobalScheduler::new(SchedulerConfig::default(), SimRng::new(2));
        s.register_node(NodeId(1), statics(1, 1, 100), NodeStatus::idle(50.0));
        let rec = s.recommend(SimTime::from_secs(1), &client(), key());
        assert!(rec.candidates.iter().all(|c| !c.already_forwarding));
        let mut status = NodeStatus::idle(50.0);
        status.forwarding.insert(key());
        s.ingest_heartbeat(Heartbeat {
            node: NodeId(1),
            at: SimTime::from_secs(2),
            status,
        });
        let rec = s.recommend(SimTime::from_secs(3), &client(), key());
        assert!(rec.candidates[0].already_forwarding);
    }

    #[test]
    fn service_time_distribution_matches_fig12a() {
        let mut s = scheduler_with_nodes(200);
        for i in 0..2_000 {
            s.recommend(SimTime::from_secs(1 + i), &client(), key());
        }
        let p50 = s.service_time_stats().median();
        let p90 = s.service_time_stats().quantile(0.9);
        // Fig 12(a): median 58.2 ms, P90 111.5 ms. Shape check with slack.
        assert!((40.0..80.0).contains(&p50), "p50 {p50}");
        assert!((85.0..160.0).contains(&p90), "p90 {p90}");
        assert!(p90 > p50 * 1.5);
    }

    #[test]
    fn stream_utilization_aggregates() {
        let mut s = GlobalScheduler::new(SchedulerConfig::default(), SimRng::new(3));
        for i in 0..4 {
            let mut status = NodeStatus::idle(100.0);
            status.forwarding.insert(key());
            status.used_mbps = 25.0 * i as f64; // 0, 25, 50, 75
            s.register_node(NodeId(i), statics(1, 1, 1), status);
        }
        let u = s
            .stream_utilization(SimTime::from_secs(1), key())
            .expect("has forwarders");
        assert!((u - 0.375).abs() < 1e-9, "u {u}");
        assert!(s
            .stream_utilization(
                SimTime::from_secs(1),
                StreamKey {
                    stream_id: 99,
                    substream: 0
                }
            )
            .is_none());
    }

    #[test]
    fn stream_utilization_excludes_stale_nodes() {
        let mut s = GlobalScheduler::new(SchedulerConfig::default(), SimRng::new(3));
        for i in 0..2 {
            let mut status = NodeStatus::idle(100.0);
            status.forwarding.insert(key());
            status.used_mbps = 50.0 * i as f64; // 0, 50
            s.register_node(NodeId(i), statics(1, 1, 1), status);
        }
        // Both heartbeat at t=10s; node 1 then goes silent (offline).
        for i in 0..2 {
            let mut status = NodeStatus::idle(100.0);
            status.forwarding.insert(key());
            status.used_mbps = 50.0 * i as f64;
            s.ingest_heartbeat(Heartbeat {
                node: NodeId(i),
                at: SimTime::from_secs(10),
                status,
            });
        }
        let mut fresh = NodeStatus::idle(100.0);
        fresh.forwarding.insert(key());
        fresh.used_mbps = 0.0;
        s.ingest_heartbeat(Heartbeat {
            node: NodeId(0),
            at: SimTime::from_secs(100),
            status: fresh,
        });
        // At t=100s node 1's heartbeat is 90s old (staleness 30s): its
        // frozen 50% utilisation must not pollute the stream mean.
        let u = s
            .stream_utilization(SimTime::from_secs(100), key())
            .expect("fresh forwarder remains");
        assert!(u.abs() < 1e-9, "stale node leaked into u_stream: {u}");
        // While fresh, both contribute.
        let u = s
            .stream_utilization(SimTime::from_secs(12), key())
            .expect("both fresh");
        assert!((u - 0.25).abs() < 1e-9, "u {u}");
    }

    #[test]
    fn connection_observation_feeds_nat_history() {
        let mut s = scheduler_with_nodes(2);
        // Fail FullCone connections repeatedly; future scores drop but
        // recommendation still works.
        for _ in 0..100 {
            s.observe_connection(SimTime::from_secs(1), NodeId(0), false);
        }
        let rec = s.recommend(SimTime::from_secs(1), &client(), key());
        assert!(!rec.candidates.is_empty());
    }

    /// The ranking as it was before it became a selection, kept
    /// verbatim as the reference: sort the whole pool, copy out the
    /// explorable tail, draw from the copy.
    fn reference_rank(
        scored: &mut [Candidate],
        k: usize,
        exploit_n: usize,
        rng: &mut SimRng,
    ) -> Vec<Candidate> {
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then_with(|| a.node.cmp(&b.node))
        });
        let mut result: Vec<Candidate> = scored.iter().take(exploit_n).copied().collect();
        let explorable: Vec<Candidate> = scored
            .iter()
            .skip(exploit_n)
            .filter(|c| !c.already_forwarding)
            .copied()
            .collect();
        while result.len() < k && !explorable.is_empty() {
            let pick = rng.below(explorable.len() as u64) as usize;
            if !result.iter().any(|c| c.node == explorable[pick].node) {
                result.push(explorable[pick]);
            } else {
                break;
            }
        }
        for c in scored.iter().skip(exploit_n) {
            if result.len() >= k {
                break;
            }
            if !result.iter().any(|r| r.node == c.node) {
                result.push(*c);
            }
        }
        result
    }

    /// `recommend` as it was before the read path was rebuilt: one
    /// `retrieve`, a record lookup and a score per pooled id, a full
    /// sort. Emits no trace event (the tests attach no sink).
    fn reference_recommend(
        s: &mut GlobalScheduler,
        now: SimTime,
        client: &ClientInfo,
        key: StreamKey,
    ) -> Recommendation {
        s.requests += 1;
        s.policy.advance(now);
        let weights = ScoreWeights::for_platform(client.platform);
        let query = AttrQuery {
            stream: key,
            isp: client.isp,
            class: NodeClass::HighQuality,
            region: client.region,
        };
        let (pool, match_level) = s.registry.retrieve(&query, s.cfg.top_k * 8);
        let mut scored = Vec::new();
        for node in pool {
            let rec = &s.nodes[s.registry.slot(node).expect("indexed")];
            if now.saturating_since(rec.last_heartbeat) > STALENESS
                && rec.last_heartbeat != SimTime::ZERO
            {
                continue;
            }
            let already = rec.status.forwarding.contains(&key);
            let availability = s.policy.adjust(
                node,
                score(&weights, &rec.statics, &rec.status, client, &s.nat_history),
            );
            let cost = if already { 1.0 } else { s.cfg.back_to_cdn_cost };
            scored.push(Candidate {
                node,
                score: availability / cost,
                already_forwarding: already,
            });
        }
        let k = s.cfg.top_k;
        let exploit_n = ((1.0 - s.cfg.explore_fraction) * k as f64).round() as usize;
        let candidates = reference_rank(&mut scored, k, exploit_n, &mut s.rng);
        let service_time = s.sample_service_time(scored.len());
        s.service_times.add(service_time.as_millis_f64());
        Recommendation {
            key,
            candidates,
            service_time,
            match_level,
        }
    }

    fn assert_same_answer(a: &Recommendation, b: &Recommendation) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.candidates, b.candidates, "key {:?}", a.key);
        assert_eq!(a.service_time, b.service_time, "key {:?}", a.key);
        assert_eq!(a.match_level, b.match_level, "key {:?}", a.key);
    }

    fn assert_same_state(a: &mut GlobalScheduler, b: &mut GlobalScheduler) {
        assert_eq!(a.request_count(), b.request_count());
        assert_eq!(a.rng, b.rng, "RNG streams diverged");
        assert_eq!(a.service_times.count(), b.service_times.count());
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(a.service_times.quantile(q), b.service_times.quantile(q));
        }
    }

    fn stream_key(stream_id: u64, substream: u16) -> StreamKey {
        StreamKey {
            stream_id,
            substream,
        }
    }

    /// A population that is a pure function of its arguments, so two
    /// calls give twins. Attributes come from small sets so that scores
    /// tie; substream (0, s) is forwarded by about half, an eighth, a
    /// fiftieth and none of the nodes for s = 0..4, which puts >= 64,
    /// 1-63 and 0 forwarders in front of the idle level; a third of the
    /// nodes are stale at t = 100 s and a few are gone. Nodes register
    /// in ascending id order, or descending, which reverses slot order.
    fn generated(
        seed: u64,
        n: u64,
        policy: SchedulerPolicyKind,
        descending: bool,
    ) -> GlobalScheduler {
        let cfg = SchedulerConfig {
            policy,
            ..SchedulerConfig::default()
        };
        let mut s = GlobalScheduler::new(cfg, SimRng::new(seed));
        let mut g = SimRng::new(seed ^ 0x5eed);
        for i in (0..n).map(|i| if descending { n - 1 - i } else { i }) {
            let statics = StaticFeatures {
                isp: g.below(3) as u16,
                region: g.below(3) as u16,
                bgp_prefix: g.below(6) as u32,
                geo: (g.below(3) as f64 * 10.0, 0.0),
                class: if g.chance(0.3) {
                    NodeClass::HighQuality
                } else {
                    NodeClass::Normal
                },
                conn_type: ConnectionType::Cable,
                nat: NatType::ALL[g.below(NatType::ALL.len() as u64) as usize],
            };
            let mut status = NodeStatus::idle(50.0 * (1 + g.below(2)) as f64);
            for (substream, p) in [(0, 0.5), (1, 0.125), (2, 0.02)] {
                if g.chance(p) {
                    status.forwarding.insert(stream_key(0, substream));
                    status.used_mbps += 10.0;
                }
            }
            s.register_node(NodeId(i), statics, status.clone());
            match g.below(3) {
                0 => {}
                stale => s.ingest_heartbeat(Heartbeat {
                    node: NodeId(i),
                    at: SimTime::from_secs(if stale == 1 { 10 } else { 90 }),
                    status,
                }),
            }
        }
        // Two bad windows for every fifth node: under `Adaptive` their
        // factor drops below 1; under `Static` this is a no-op.
        for w in 0..2 {
            for i in (0..n).step_by(5) {
                let t = SimTime::from_millis(w * 1_000 + 100);
                s.note_recovery_outcome(t, NodeId(i), false);
                s.note_recovery_outcome(t, NodeId(i), false);
            }
        }
        s
    }

    fn generated_client(g: &mut SimRng, id: u64) -> ClientInfo {
        ClientInfo {
            id: ClientId(id),
            isp: g.below(3) as u16,
            region: g.below(3) as u16,
            bgp_prefix: g.below(6) as u32,
            geo: (g.below(3) as f64 * 10.0, 5.0),
            platform: Platform::Android,
        }
    }

    #[test]
    fn rank_by_selection_matches_full_sort() {
        let mut g = SimRng::new(77);
        for case in 0..2_000u64 {
            // Mostly pools around k, where the tail is short and the
            // duplicate-pick `break` fires; every tenth one is large.
            let n = if case % 10 == 0 {
                g.below(400)
            } else {
                g.below(20)
            };
            let forwarding_share = [0.0, 0.1, 0.5, 0.9, 1.0][g.below(5) as usize];
            let pool: Vec<Candidate> = (0..n)
                .map(|i| Candidate {
                    node: NodeId(i * 3 % 401),
                    // Few distinct scores: the node id decides most ranks.
                    score: g.below(4) as f64 / 4.0,
                    already_forwarding: g.chance(forwarding_share),
                })
                .collect();
            let k = 1 + g.below(10) as usize;
            let exploit_n = g.below(k as u64 + 1) as usize;
            let seed = g.next_u64();
            let (mut rng, mut rng_ref) = (SimRng::new(seed), SimRng::new(seed));
            let mut got = Vec::new();
            rank(&mut pool.clone(), k, exploit_n, &mut rng, &mut got);
            let expected = reference_rank(&mut pool.clone(), k, exploit_n, &mut rng_ref);
            assert_eq!(
                got, expected,
                "case {case}: k {k} exploit {exploit_n} {pool:?}"
            );
            assert_eq!(rng, rng_ref, "case {case}: draws differ");
        }
    }

    /// One explorable entry: the second draw repeats the first and the
    /// explore loop stops; the fill loop then takes the ranked tail.
    #[test]
    fn duplicate_explore_pick_stops_exploring() {
        let candidate = |node, score, already_forwarding| Candidate {
            node: NodeId(node),
            score,
            already_forwarding,
        };
        let mut pool = vec![
            candidate(1, 0.9, true),
            candidate(2, 0.8, true),
            candidate(3, 0.1, true),
            candidate(4, 0.2, true),
            candidate(5, 0.05, false),
        ];
        let mut rng = SimRng::new(1);
        let mut got = Vec::new();
        rank(&mut pool, 5, 2, &mut rng, &mut got);
        let nodes: Vec<u64> = got.iter().map(|c| c.node.0).collect();
        assert_eq!(nodes, [1, 2, 5, 4, 3]);
        // Two draws of `below(1)`, no more.
        let mut expected_rng = SimRng::new(1);
        expected_rng.below(1);
        expected_rng.below(1);
        assert_eq!(rng, expected_rng);
    }

    #[test]
    fn recommend_matches_the_full_sort_reference() {
        for policy in [SchedulerPolicyKind::Static, SchedulerPolicyKind::Adaptive] {
            // 5 nodes: fewer than k, and the any-ISP fallback. 150:
            // the idle level answers. 1 500: the pinned levels do, and
            // registered in descending id order, slot order is reversed.
            let cases = [(1, 5, false), (2, 150, false), (3, 1_500, false)];
            for (seed, n, descending) in cases.into_iter().chain([(4, 1_500, true)]) {
                let mut new = generated(seed, n, policy, descending);
                let mut old = generated(seed, n, policy, descending);
                let mut g = SimRng::new(seed);
                for i in 0..40 {
                    let client = generated_client(&mut g, i);
                    let now = SimTime::from_secs([3, 100, 200][g.below(3) as usize]);
                    // Substream 3 and stream 9 have no forwarder.
                    let key = stream_key([0, 0, 0, 9][g.below(4) as usize], g.below(4) as u16);
                    let got = new.recommend(now, &client, key);
                    let expected = reference_recommend(&mut old, now, &client, key);
                    assert_same_answer(&got, &expected);
                }
                assert_same_state(&mut new, &mut old);
            }
        }
    }

    #[test]
    fn rank_key_orders_as_partial_cmp_then_id() {
        let tiny = f64::from_bits(1);
        let mut scores = vec![0.0, tiny, 2.0 * tiny, f64::MIN_POSITIVE / 2.0];
        scores.extend([
            f64::MIN_POSITIVE,
            0.25,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            f64::MAX,
        ]);
        let mut g = SimRng::new(9);
        scores.extend((0..20).map(|_| g.range_f64(0.0, 2.0)));
        for &a in &scores {
            for &b in &scores {
                for (x, y) in [(1, 2), (2, 1), (3, 3)] {
                    let c = |node, score| Candidate {
                        node: NodeId(node),
                        score,
                        already_forwarding: false,
                    };
                    let expected = b.partial_cmp(&a).unwrap().then(x.cmp(&y));
                    assert_eq!(
                        by_rank(&c(x, a), &c(y, b)),
                        expected,
                        "{a:e} {x} vs {b:e} {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_score_rejects_what_its_bits_would_misorder() {
        assert_eq!(rank_score(0.0, 2.0).to_bits(), 0);
        assert_eq!(rank_score(0.5, 2.0), 0.25);
        for (availability, cost) in [
            (f64::NAN, 1.0),
            (1.0, 0.0),
            (-0.0, 1.0),
            (0.0, -1.0),
            (-0.5, 2.0),
        ] {
            let made = std::panic::catch_unwind(|| rank_score(availability, cost));
            assert!(made.is_err(), "{availability} / {cost} was accepted");
        }
    }

    #[test]
    fn adaptive_policy_demotes_failing_node_end_to_end() {
        let cfg = SchedulerConfig {
            policy: SchedulerPolicyKind::Adaptive,
            ..SchedulerConfig::default()
        };
        let mut s = GlobalScheduler::new(cfg, SimRng::new(5));
        for i in 0..2u64 {
            let mut status = NodeStatus::idle(50.0);
            status.forwarding.insert(key());
            s.register_node(NodeId(i), statics(1, 1, 100 + i as u32), status);
        }
        assert_eq!(s.policy_label(), "adaptive");
        // Node 0's recoveries fail across two consecutive windows.
        for w in 0..2u64 {
            let t = SimTime::from_millis(w * 1_000 + 100);
            s.note_recovery_outcome(t, NodeId(0), false);
            s.note_recovery_outcome(t, NodeId(0), false);
            s.note_recovery_outcome(t, NodeId(1), true);
            s.note_recovery_outcome(t, NodeId(1), true);
        }
        let rec = s.recommend(SimTime::from_secs(3), &client(), key());
        assert_eq!(rec.candidates[0].node, NodeId(1), "{:?}", rec.candidates);
        assert!(rec.candidates[0].score > rec.candidates[1].score);
        let demoted: u64 = s.policy_demotions().values().sum();
        assert_eq!(demoted, 1);
    }
}
