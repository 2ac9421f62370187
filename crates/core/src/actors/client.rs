//! The viewer-client actor: reordering, playback pacing, ABR, energy
//! and the per-session bookkeeping the control loops act on.

use crate::abr::AbrState;
use crate::actors::ActorCtx;
use crate::config::{DeliveryMode, ModeSpec};
use crate::energy::EnergyAccount;
use crate::events::{Event, SliceDelivery};
use crate::qoe::SessionMetrics;
use crate::world::Group;
use rlive_control::scheduler::Candidate;
use rlive_control::{ClientController, ClientControllerConfig, ClientInfo};
use rlive_data::recovery::{RecoveryAction, RecoveryStats, MAX_FANOUT};
use rlive_data::reorder::{PlaybackBuffer, ReorderBuffer};
use rlive_data::ring::SeqRing;
use rlive_media::footprint::LocalChain;
use rlive_media::frame::FrameHeader;
use rlive_sim::{SimDuration, SimTime};

/// Client playback target buffer.
pub(crate) const TARGET_BUFFER: SimDuration = SimDuration::from_millis(2_500);

/// Startup threshold: playback begins at this occupancy.
const STARTUP_BUFFER: SimDuration = SimDuration::from_millis(800);

/// The source of one slot of a session's split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubSource {
    /// A best-effort relay (by index).
    Relay(u32),
    /// The CDN covers this substream.
    Cdn,
}

impl SubSource {
    /// The serving relay, if any.
    pub fn relay(self) -> Option<u32> {
        match self {
            SubSource::Relay(r) => Some(r),
            SubSource::Cdn => None,
        }
    }
}

/// One in-flight hedged retransmission race for a frame (racing
/// recovery policy): `outstanding` legs were issued in round `round`;
/// the first success wins and the rest are absorbed as redundant.
#[derive(Debug, Clone)]
pub(crate) struct HedgeState {
    /// Monotonic batch counter per frame: a re-issued batch for the
    /// same dts bumps the round so stale legs cannot decide it.
    pub round: u16,
    /// Legs still in flight.
    pub outstanding: u8,
    /// Whether a leg already won this race.
    pub won: bool,
    /// Supplier (relay id) behind each leg, by attempt index.
    pub suppliers: [u64; MAX_FANOUT as usize],
}

/// The scheduler's candidate lists of one session, one per substream
/// (the mapping unit is the user–substream pair, §2.3), back to back in
/// substream order in one buffer that refills rewrite in place.
#[derive(Default)]
pub(crate) struct CandidateLists {
    entries: Vec<Candidate>,
    /// Per substream, the length of its list. `None` means "never
    /// received a list for this substream" — distinct from an empty
    /// list, which callers must not fall through.
    lens: Vec<Option<u32>>,
}

impl CandidateLists {
    /// Where the list of `ss` starts in `entries`.
    fn start(&self, ss: usize) -> usize {
        self.lens[..ss].iter().flatten().sum::<u32>() as usize
    }

    /// Sizes the buffer for `n` entries in all, so that refills up to
    /// that size allocate nothing.
    pub fn reserve(&mut self, n: usize) {
        self.entries.reserve(n.saturating_sub(self.entries.len()));
    }

    /// Replaces the list of `ss` with what `fill` appends to the buffer
    /// it is handed; the other substreams' lists stay as they are.
    pub fn refill(&mut self, ss: u16, fill: impl FnOnce(&mut Vec<Candidate>)) {
        let ss = usize::from(ss);
        if self.lens.len() <= ss {
            self.lens.resize(ss + 1, None);
        }
        let start = self.start(ss);
        self.entries
            .drain(start..start + self.lens[ss].unwrap_or(0) as usize);
        let appended_at = self.entries.len();
        fill(&mut self.entries);
        let len = self.entries.len() - appended_at;
        // The new list moves in front of the later substreams' lists.
        self.entries[start..].rotate_right(len);
        self.lens[ss] = Some(len as u32);
    }

    /// The list for `ss`: `None` when `ss` never received one, which
    /// stays distinct from an empty list.
    pub fn get(&self, ss: u16) -> Option<&[Candidate]> {
        let ss = usize::from(ss);
        let len = (*self.lens.get(ss)?)? as usize;
        let start = self.start(ss);
        Some(&self.entries[start..start + len])
    }

    /// Every list's candidates, in substream order.
    pub fn all(&self) -> &[Candidate] {
        &self.entries
    }
}

/// One viewer session.
pub(crate) struct Client {
    pub id: u64,
    pub group: Group,
    pub mode_policy: DeliveryMode,
    pub info: ClientInfo,
    pub stream: u32,
    pub cdn_edge: usize,
    /// The slot table: per slot of the split, its source. Empty while
    /// the session pulls the full stream from the CDN; one slot for a
    /// whole-stream relay session, K for a split one.
    pub sources: Vec<SubSource>,
    /// Per slot, the redundant relay pushing it too, if any.
    pub redundant: Vec<Option<u32>>,
    pub controller: ClientController,
    pub reorder: ReorderBuffer,
    pub playback: PlaybackBuffer,
    pub abr: AbrState,
    pub recovery_stats: RecoveryStats,
    pub session: SessionMetrics,
    pub energy: EnergyAccount,
    /// In-flight recovery requests, dts-ordered: dts -> (action, issue
    /// time). Dts keys arrive near-monotonically, so the ring's sorted
    /// flat storage inserts at the tail and pops at the head.
    pub requested_recovery: SeqRing<(RecoveryAction, SimTime)>,
    /// In-flight hedged retransmission races, dts-ordered (racing
    /// recovery policy only; empty under QoE-EDF).
    pub hedges: SeqRing<HedgeState>,
    /// Cached candidate lists from the scheduler.
    pub candidates: CandidateLists,
    /// Set when a relay sent a proactive switch suggestion.
    pub switch_suggested: bool,
    pub last_slice_at: SimTime,
    /// Completion time of the last frame released to playback.
    pub last_release_at: SimTime,
    /// EWMA of |inter-release gap − frame interval| in ms — the jitter
    /// margin the player must buffer against.
    pub jitter_ewma_ms: f64,
    pub leaves_at: SimTime,
    /// Next dts the player needs (deadline estimation).
    pub next_needed_dts: u64,
    pub departed: bool,
}

impl Client {
    /// Builds a fresh session in CDN-full mode.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u64,
        group: Group,
        mode_policy: DeliveryMode,
        info: ClientInfo,
        stream: u32,
        cdn_edge: usize,
        controller_cfg: ClientControllerConfig,
        frame_interval: SimDuration,
        fallback_threshold: SimDuration,
        recovery_stats: RecoveryStats,
        now: SimTime,
        leaves_at: SimTime,
    ) -> Self {
        Client {
            id,
            group,
            mode_policy,
            info,
            stream,
            cdn_edge,
            sources: Vec::new(),
            redundant: Vec::new(),
            controller: ClientController::new(controller_cfg),
            reorder: ReorderBuffer::new(),
            playback: PlaybackBuffer::new(frame_interval, fallback_threshold),
            abr: AbrState::new(),
            recovery_stats,
            session: SessionMetrics::new(now),
            energy: EnergyAccount::new(),
            requested_recovery: SeqRing::new(),
            hedges: SeqRing::new(),
            candidates: CandidateLists::default(),
            switch_suggested: false,
            last_slice_at: now,
            last_release_at: now,
            jitter_ewma_ms: 10.0,
            leaves_at,
            next_needed_dts: 0,
            departed: false,
        }
    }

    /// Feeds released-frame completion times into the jitter estimate.
    pub fn observe_releases(&mut self, now: SimTime, count: usize) {
        if count == 0 {
            return;
        }
        let gap = now.saturating_since(self.last_release_at).as_millis_f64();
        self.last_release_at = now;
        let alpha = 0.05;
        // First frame of the batch carries the real gap; the rest of a
        // burst arrived "at once" (gap 0), which is itself jitter.
        let mut sample = (gap - 33.3).abs();
        for _ in 0..count {
            self.jitter_ewma_ms = (1.0 - alpha) * self.jitter_ewma_ms + alpha * sample;
            sample = 33.3;
        }
    }

    /// The latency pad the player holds against delivery jitter: the
    /// chase floor is `base + pad`, so jitterier paths settle at higher
    /// end-to-end latency (production players adapt target latency the
    /// same way).
    pub fn jitter_pad(&self) -> SimDuration {
        SimDuration::from_millis((6.0 * self.jitter_ewma_ms).clamp(150.0, 2_500.0) as u64)
    }

    /// The session's row of the delivery table.
    pub fn spec(&self) -> ModeSpec {
        self.mode_policy.spec()
    }

    /// Slots of the session's split when the world splits streams `k`
    /// ways.
    pub fn width(&self, k: u16) -> u16 {
        if self.spec().split {
            k
        } else {
            1
        }
    }

    /// Short label of the current delivery state for trace records.
    pub fn mode_label(&self) -> &'static str {
        if self.sources.is_empty() {
            "cdn_full"
        } else if self.spec().split {
            "multi"
        } else {
            "single_source"
        }
    }

    /// Whether the client currently draws on any best-effort relay (an
    /// all-CDN split still does: its subscriptions may return).
    pub fn uses_best_effort(&self) -> bool {
        !self.sources.is_empty()
    }

    /// Every relay currently serving this client (primary + redundant).
    pub fn relay_sources(&self) -> impl Iterator<Item = u32> + '_ {
        let primaries = self.sources.iter().filter_map(|s| s.relay());
        primaries.chain(self.redundant.iter().flatten().copied())
    }

    /// Returns the session to CDN full-stream delivery, handing back the
    /// slot table it held.
    pub fn take_slots(&mut self) -> (Vec<SubSource>, Vec<Option<u32>>) {
        let sources = std::mem::take(&mut self.sources);
        (sources, std::mem::take(&mut self.redundant))
    }

    /// Absorbs one arriving slice: ABR/energy accounting, reorder
    /// ingest, playback pushes, and playback start once the startup
    /// buffer fills (scheduling the first player tick).
    pub fn ingest_slice(&mut self, ctx: &mut ActorCtx<'_>, d: &SliceDelivery) {
        if self.departed {
            return;
        }
        let now = ctx.now;
        let elapsed = now.saturating_since(self.last_slice_at);
        self.last_slice_at = now;
        self.abr
            .observe(d.bytes, elapsed.min(SimDuration::from_millis(500)));
        self.session.bytes_received += d.bytes;
        self.energy
            .add_cpu(ctx.energy_model.per_packet * d.received.len() as f64);
        if d.chain.is_some() {
            self.energy.add_cpu(ctx.energy_model.per_chain_merge);
        }
        let ready = self.reorder.ingest_slice(
            now,
            d.header,
            d.substream,
            &d.received,
            d.total,
            d.chain.as_ref(),
        );
        let released = ready.len();
        for f in ready {
            self.playback.push(f.header);
            self.energy.add_cpu(ctx.energy_model.per_frame_decode);
        }
        self.observe_releases(now, released);
        self.energy
            .observe_mem_kb(self.playback.len() as f64 * ctx.energy_model.mem_per_buffered_frame);

        // Start playback once the startup buffer fills.
        if !self.playback.is_started() && self.playback.occupancy() >= STARTUP_BUFFER {
            self.playback.start();
            self.session.first_frame_at = Some(now);
            ctx.queue
                .schedule(now, Event::PlayerTick { client: d.client });
        }
    }

    /// Absorbs separately-delivered sequencing metadata (central
    /// sequencing), releasing whatever frames it unblocks.
    pub fn ingest_chain(&mut self, ctx: &mut ActorCtx<'_>, chain: &LocalChain) {
        let now = ctx.now;
        self.reorder.ingest_chain_only(chain);
        let ready = self.reorder.drain_ready(now);
        let released = ready.len();
        for f in ready {
            self.playback.push(f.header);
        }
        self.observe_releases(now, released);
        self.energy.add_cpu(ctx.energy_model.per_chain_merge);
    }

    /// Absorbs one successfully recovered frame: accounting, optional
    /// authoritative chain (central sequencing), whole-frame ingest and
    /// playback pushes.
    pub fn ingest_recovered_frame(
        &mut self,
        now: SimTime,
        header: FrameHeader,
        chain: Option<&LocalChain>,
    ) {
        let scale = self.abr.scale();
        let bytes = (header.size as f64 * scale) as u64;
        self.session.bytes_received += bytes;
        // A CDN reply carries authoritative ordering (the frame is
        // indexed by dts at the source, §6); this is what unblocks
        // centralised-sequencing clients whose metadata channel lost
        // the entry.
        if self.spec().central_sequencing {
            if let Some(c) = chain {
                self.reorder.ingest_chain_only(c);
            }
        }
        let ready = self.reorder.ingest_whole_frame(now, header);
        let released = ready.len();
        for f in ready {
            self.playback.push(f.header);
        }
        self.observe_releases(now, released);
    }

    /// One playout tick: buffer-protection pacing, frame presentation,
    /// deadline skipping and rescheduling. `stream_epoch` is the sim
    /// time at which the watched stream produced dts 0 (for end-to-end
    /// latency sampling). Returns `true` when the sub-frame-cadence
    /// loss-recovery pass should run after this tick (§5.3).
    pub fn player_tick(&mut self, ctx: &mut ActorCtx<'_>, stream_epoch: SimTime) -> bool {
        let now = ctx.now;
        let cid = self.id;
        let interval = ctx.frame_interval();
        if self.departed {
            return false;
        }
        // Buffer-protection playback pacing around the jitter-adaptive
        // floor. Over-full (after a catch-up refill): drop a frame per
        // tick to chase latency back down. Eroded: present every fourth
        // frame a tick longer so the buffer regrows. Jitterier paths
        // therefore settle at proportionally higher end-to-end latency.
        let effective_target = TARGET_BUFFER.mul_f64(0.5) + self.jitter_pad();
        let occ = self.playback.occupancy();
        if occ > effective_target + SimDuration::from_millis(400) {
            self.playback.drop_oldest();
        } else if occ < effective_target.saturating_sub(SimDuration::from_millis(300))
            && self.playback.is_started()
            && self.session.frames_played.is_multiple_of(4)
            && !self.playback.is_empty()
        {
            self.session.frames_played += 1; // pace: present previous frame longer
            self.session.watch_time += interval;
            self.session.bitrate_weighted += self.abr.bitrate_bps() as f64 * interval.as_secs_f64();
            self.energy.add_playback(interval.as_secs_f64());
            let next = now + interval;
            if next <= ctx.end_at && next < self.leaves_at {
                ctx.queue.schedule(next, Event::PlayerTick { client: cid });
            }
            return false;
        }
        let before_rebuffers = self.playback.rebuffer_events();
        match self.playback.tick(now) {
            Some(header) => {
                self.session.frames_played += 1;
                self.next_needed_dts = header.dts_ms + 33;
                // Recovery bookkeeping for frames behind the playback
                // head is dead weight: a completion can only remove an
                // entry when its action matches, so superseded entries
                // below the head would otherwise leak for the session's
                // lifetime. Late hedge legs for evicted races are
                // absorbed as redundant by `on_hedge_outcome`.
                self.requested_recovery.evict_below(self.next_needed_dts);
                self.hedges.evict_below(self.next_needed_dts);
                self.session.watch_time += interval;
                self.session.bitrate_weighted +=
                    self.abr.bitrate_bps() as f64 * interval.as_secs_f64();
                self.energy.add_playback(interval.as_secs_f64());
                // Sample E2E latency every ~second.
                if self.session.frames_played.is_multiple_of(30) {
                    let source_time = stream_epoch + SimDuration::from_millis(header.dts_ms);
                    let latency = now.saturating_since(source_time);
                    self.session.e2e_latency_ms.push(latency.as_millis_f64());
                }
            }
            None => {
                if self.playback.rebuffer_events() > before_rebuffers {
                    self.abr.on_rebuffer(now);
                }
            }
        }
        // Deadline skip, codec-aware. A blocked B-frame is droppable
        // without corrupting decode, so it is abandoned once overdue. A
        // blocked P/I frame forces the player to wait; only once the
        // buffer has actually run dry (a counted stall) does the player
        // give up and jump forward past the damaged stretch to the next
        // decodable run — the "stall then jump" behaviour of production
        // players.
        if let Some(since) = self.reorder.head_blocked_since() {
            let blocked_for = now.saturating_since(since);
            let droppable = matches!(
                self.reorder.head_frame_type(),
                Some(rlive_media::frame::FrameType::B)
            );
            if droppable && blocked_for > SimDuration::from_millis(800) {
                let ready = self.reorder.skip_blocked_head(now);
                for f in ready {
                    self.playback.push(f.header);
                }
            } else if self.playback.is_empty()
                && self.playback.is_started()
                && blocked_for > SimDuration::from_millis(300)
            {
                for _ in 0..90 {
                    let ready = self.reorder.skip_blocked_head(now);
                    let released = !ready.is_empty();
                    for f in ready {
                        self.playback.push(f.header);
                    }
                    if released || self.reorder.head_blocked_since().is_none() {
                        break;
                    }
                }
            }
        }
        self.session.rebuffer_events = self.playback.rebuffer_events();
        self.session.rebuffer_duration = self.playback.rebuffer_duration();
        let frames_played = self.session.frames_played;
        let next = now + interval;
        if next <= ctx.end_at && next < self.leaves_at {
            ctx.queue.schedule(next, Event::PlayerTick { client: cid });
        }
        // Loss recovery runs at sub-frame cadence: fast retransmission
        // cannot wait for the coarse control loop (§5.3).
        frames_played.is_multiple_of(4)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rlive_control::features::ClientId;
    use rlive_control::Platform;

    /// A fresh session 1 of `mode_policy`, leaving at 120 s.
    pub(crate) fn client(mode_policy: DeliveryMode) -> Client {
        let info = ClientInfo {
            id: ClientId(1),
            isp: 0,
            region: 0,
            bgp_prefix: 0,
            geo: (0.0, 0.0),
            platform: Platform::Android,
        };
        Client::new(
            1,
            Group::Test,
            mode_policy,
            info,
            0,
            0,
            ClientControllerConfig::default(),
            SimDuration::from_secs_f64(1.0 / 30.0),
            SimDuration::from_millis(200),
            RecoveryStats::default(),
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(120),
        )
    }

    /// Source accounting follows the slot table through CDN-full, a
    /// split, an all-CDN split (failover holes) and a whole-stream
    /// relay session.
    #[test]
    fn mode_transitions_track_sources() {
        use SubSource::{Cdn, Relay};
        let state = |c: &Client| {
            let relays: Vec<u32> = c.relay_sources().collect();
            (c.mode_label(), c.uses_best_effort(), relays)
        };
        let mut c = client(DeliveryMode::RLive);
        assert_eq!(state(&c), ("cdn_full", false, vec![]));

        c.sources = vec![Relay(3), Cdn, Relay(5), Relay(3)];
        c.redundant = vec![None, Some(9), None, None];
        assert_eq!(state(&c), ("multi", true, vec![3, 5, 3, 9]));

        // A failover punched every relay out: an all-CDN split still
        // counts as best-effort (subscriptions may return) but exposes
        // no relay sources.
        (c.sources, c.redundant) = (vec![Cdn; 4], vec![None; 4]);
        assert_eq!(state(&c), ("multi", true, vec![]));
        c.take_slots();
        assert_eq!(state(&c), ("cdn_full", false, vec![]));

        let mut c = client(DeliveryMode::SingleSource);
        (c.sources, c.redundant) = (vec![Relay(7)], vec![None]);
        assert_eq!(state(&c), ("single_source", true, vec![7]));
        assert_eq!((c.width(4), client(DeliveryMode::RLive).width(4)), (1, 4));
    }

    /// Regression for the recovery-bookkeeping leak: releasing a frame
    /// advances `next_needed_dts` and must evict every
    /// `requested_recovery` / `hedges` entry behind the new head. A
    /// superseded in-flight entry below the head can never be removed
    /// by its (mismatched) completion, so without the eviction it
    /// would sit in the ring for the rest of the session.
    #[test]
    fn frame_release_evicts_recovery_bookkeeping_below_the_head() {
        use crate::config::SystemConfig;
        use rlive_media::frame::FrameType;
        use rlive_sim::{EventQueue, SimRng};

        let mut c = client(DeliveryMode::RLive);
        let t0 = SimTime::ZERO;
        // Stale entries at dts 0 (about to fall behind the head), a
        // live one at 33 (the next frame) and one well ahead at 330.
        for dts in [0u64, 33, 330] {
            c.requested_recovery
                .insert(dts, (RecoveryAction::BestEffortPackets, t0));
        }
        // dts 0 was additionally superseded by a dedicated retrieval:
        // the classic leak, a mismatched action that match-only
        // removal will never clear.
        c.requested_recovery
            .insert(0, (RecoveryAction::DedicatedFrame, t0));
        for dts in [0u64, 330] {
            c.hedges.insert(
                dts,
                HedgeState {
                    round: 0,
                    outstanding: 2,
                    won: false,
                    suppliers: [1, 2, 0],
                },
            );
        }
        for dts in [0u64, 33] {
            c.playback.push(FrameHeader {
                stream_id: 0,
                dts_ms: dts,
                frame_type: FrameType::P,
                size: 9_000,
            });
        }
        c.playback.start();
        // Skip the buffer-erosion pacing branch (frames_played % 4)
        // so this tick presents a frame.
        c.session.frames_played = 1;

        let cfg = SystemConfig::default();
        let mut rng = SimRng::new(1);
        let mut queue: EventQueue<Event> = EventQueue::new();
        let energy_model = crate::energy::EnergyModel::default();
        let mut control = crate::cost::TrafficLedger::default();
        let mut test = crate::cost::TrafficLedger::default();
        let mut ctx = ActorCtx {
            now: t0 + SimDuration::from_millis(100),
            end_at: t0 + SimDuration::from_secs(60),
            cfg: &cfg,
            rng: &mut rng,
            queue: &mut queue,
            slices: &mut crate::events::SlicePool::default(),
            energy_model: &energy_model,
            control_traffic: &mut control,
            test_traffic: &mut test,
        };
        c.player_tick(&mut ctx, SimTime::ZERO);

        assert_eq!(c.next_needed_dts, 33, "dts 0 should have been presented");
        assert!(
            c.requested_recovery.get(0).is_none(),
            "superseded entry behind the head must be evicted"
        );
        assert!(c.hedges.get(0).is_none(), "stale hedge race evicted");
        assert!(
            c.requested_recovery.get(33).is_some() && c.requested_recovery.get(330).is_some(),
            "entries at and ahead of the head must survive"
        );
        assert!(c.hedges.get(330).is_some());
    }

    /// One buffer holds every substream's list: refilling one leaves the
    /// others as they were, an absent list reads `None` and an empty
    /// one `Some(&[])`, and the buffer reads in substream order whatever
    /// order the lists arrived in.
    #[test]
    fn candidate_lists_refill_one_substream_in_place() {
        use rlive_control::NodeId;
        let cand = |node| Candidate {
            node: NodeId(node),
            score: 1.0,
            already_forwarding: false,
        };
        let ids = |l: &[Candidate]| l.iter().map(|c| c.node.0).collect::<Vec<_>>();
        let mut lists = CandidateLists::default();
        assert!(lists.get(0).is_none());
        for (ss, nodes) in [(2, 5..7), (0, 1..3), (1, 3..5)] {
            lists.refill(ss, |out| out.extend(nodes.map(cand)));
        }
        lists.refill(1, |out| out.extend((10..13).map(cand)));
        assert_eq!(lists.get(0).map(ids), Some(vec![1, 2]));
        assert_eq!(lists.get(1).map(ids), Some(vec![10, 11, 12]));
        assert_eq!(lists.get(2).map(ids), Some(vec![5, 6]));
        // Never received a list: none. An empty one: empty.
        assert_eq!(lists.get(3).map(ids), None);
        lists.refill(2, |_| {});
        assert_eq!(lists.get(2).map(ids), Some(vec![]));
        assert_eq!(ids(lists.all()), [1, 2, 10, 11, 12]);
    }

    /// The jitter EWMA reacts to release gaps and the pad stays inside
    /// its clamp band.
    #[test]
    fn jitter_pad_tracks_release_gaps_within_clamp() {
        let mut c = client(DeliveryMode::RLive);
        assert_eq!(c.jitter_pad(), SimDuration::from_millis(150));
        // A long stall then a burst of releases raises the estimate.
        c.observe_releases(SimTime::ZERO + SimDuration::from_secs(5), 10);
        assert!(c.jitter_ewma_ms > 10.0);
        let pad = c.jitter_pad();
        assert!(pad >= SimDuration::from_millis(150));
        assert!(pad <= SimDuration::from_millis(2_500));
        // Steady 33ms cadence decays the estimate towards the floor.
        let mut t = SimTime::ZERO + SimDuration::from_secs(5);
        for _ in 0..500 {
            t += SimDuration::from_millis(33);
            c.observe_releases(t, 1);
        }
        assert!(c.jitter_ewma_ms < 40.0, "ewma {}", c.jitter_ewma_ms);
    }
}
