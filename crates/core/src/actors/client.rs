//! The viewer-client actor: reordering, playback pacing, ABR, energy
//! and the per-session bookkeeping the control loops act on.

use crate::abr::{AbrConfig, AbrState};
use crate::actors::ActorCtx;
use crate::config::DeliveryMode;
use crate::energy::EnergyAccount;
use crate::events::{Event, SliceDelivery};
use crate::qoe::SessionMetrics;
use crate::world::Group;
use rlive_control::scheduler::Candidate;
use rlive_control::{ClientController, ClientControllerConfig, ClientInfo};
use rlive_data::recovery::{RecoveryAction, RecoveryStats};
use rlive_data::reorder::{PlaybackBuffer, ReorderBuffer};
use rlive_data::ring::SeqRing;
use rlive_media::footprint::LocalChain;
use rlive_media::frame::FrameHeader;
use rlive_sim::{SimDuration, SimTime};

/// One source of one substream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubSource {
    /// A best-effort relay (by index).
    Relay(u32),
    /// The CDN covers this substream.
    Cdn,
}

/// The delivery mode a client is currently in.
pub(crate) enum ClientMode {
    /// Full stream straight from the CDN.
    CdnFull,
    /// Full stream from one best-effort relay (§2.2 strawman).
    SingleSource {
        /// The serving relay.
        relay: u32,
    },
    /// Substreams spread over multiple sources (RLive proper).
    Multi {
        /// Primary source per substream.
        sources: Vec<SubSource>,
        /// Redundant relay per substream, if any.
        redundant: Vec<Option<u32>>,
    },
}

impl ClientMode {
    /// Short label for trace records.
    pub fn label(&self) -> &'static str {
        match self {
            ClientMode::CdnFull => "cdn_full",
            ClientMode::SingleSource { .. } => "single_source",
            ClientMode::Multi { .. } => "multi",
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
    pub suppliers: Vec<u64>,
}

/// One viewer session.
pub(crate) struct Client {
    pub id: u64,
    pub group: Group,
    pub mode_policy: DeliveryMode,
    pub info: ClientInfo,
    pub stream: u32,
    pub cdn_edge: usize,
    pub mode: ClientMode,
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
    /// Cached candidate lists from the scheduler, indexed by substream
    /// (the mapping unit is the user–substream pair, §2.3). `None`
    /// means "never received a list for this substream" — distinct
    /// from an empty list, which callers must not fall through.
    candidates: Vec<Option<Vec<Candidate>>>,
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
    pub upgrade_scheduled: bool,
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
            mode: ClientMode::CdnFull,
            controller: ClientController::new(controller_cfg),
            reorder: ReorderBuffer::new(),
            playback: PlaybackBuffer::new(frame_interval, fallback_threshold),
            abr: AbrState::new(AbrConfig::default()),
            recovery_stats: RecoveryStats::default(),
            session: SessionMetrics::new(now),
            energy: EnergyAccount::new(),
            requested_recovery: SeqRing::new(),
            hedges: SeqRing::new(),
            candidates: Vec::new(),
            switch_suggested: false,
            last_slice_at: now,
            last_release_at: now,
            jitter_ewma_ms: 10.0,
            leaves_at,
            next_needed_dts: 0,
            departed: false,
            upgrade_scheduled: false,
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

    /// Whether the client currently draws on any best-effort relay.
    pub fn uses_best_effort(&self) -> bool {
        !matches!(self.mode, ClientMode::CdnFull)
    }

    /// Caches the scheduler's candidate list for one substream.
    pub fn set_candidates(&mut self, ss: u16, list: Vec<Candidate>) {
        let idx = ss as usize;
        if self.candidates.len() <= idx {
            self.candidates.resize_with(idx + 1, || None);
        }
        self.candidates[idx] = Some(list);
    }

    /// The cached candidate list for `ss`, falling back to substream
    /// 0's list when `ss` never received one (an *empty* list for `ss`
    /// does not fall through — absence and emptiness stay distinct).
    pub fn candidates_for(&self, ss: u16) -> Option<&Vec<Candidate>> {
        self.candidates
            .get(ss as usize)
            .and_then(|o| o.as_ref())
            .or_else(|| self.candidates.first().and_then(|o| o.as_ref()))
    }

    /// All cached candidates across substreams, in substream order.
    pub fn all_candidates(&self) -> impl Iterator<Item = &Candidate> {
        self.candidates.iter().flatten().flatten()
    }

    /// Every relay currently serving this client (primary + redundant).
    pub fn relay_sources(&self) -> Vec<u32> {
        match &self.mode {
            ClientMode::CdnFull => Vec::new(),
            ClientMode::SingleSource { relay } => vec![*relay],
            ClientMode::Multi { sources, redundant } => {
                let mut v: Vec<u32> = sources
                    .iter()
                    .filter_map(|s| match s {
                        SubSource::Relay(r) => Some(*r),
                        SubSource::Cdn => None,
                    })
                    .collect();
                v.extend(redundant.iter().flatten().copied());
                v
            }
        }
    }

    /// Absorbs one arriving slice: ABR/energy accounting, reorder
    /// ingest, playback pushes, and playback start once the startup
    /// buffer fills (scheduling the first player tick).
    pub fn ingest_slice(&mut self, ctx: &mut ActorCtx<'_>, d: SliceDelivery) {
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
        if !self.playback.is_started() && self.playback.occupancy() >= ctx.cfg.startup_buffer {
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
        if self.mode_policy == DeliveryMode::RLiveCentralSequencing {
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
        let target = ctx.cfg.target_buffer;
        if self.departed {
            return false;
        }
        // Buffer-protection playback pacing around the jitter-adaptive
        // floor. Over-full (after a catch-up refill): drop a frame per
        // tick to chase latency back down. Eroded: present every fourth
        // frame a tick longer so the buffer regrows. Jitterier paths
        // therefore settle at proportionally higher end-to-end latency.
        let effective_target = target.mul_f64(0.5) + self.jitter_pad();
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
mod tests {
    use super::*;
    use rlive_control::features::ClientId;
    use rlive_control::Platform;

    fn client(mode_policy: DeliveryMode) -> Client {
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
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(120),
        )
    }

    /// Mode transitions: source accounting must follow the state
    /// machine CDN-full -> multi -> (failover holes) -> CDN-full.
    #[test]
    fn mode_transitions_track_sources() {
        let mut c = client(DeliveryMode::RLive);
        assert!(!c.uses_best_effort());
        assert_eq!(c.mode.label(), "cdn_full");
        assert!(c.relay_sources().is_empty());

        c.mode = ClientMode::Multi {
            sources: vec![
                SubSource::Relay(3),
                SubSource::Cdn,
                SubSource::Relay(5),
                SubSource::Relay(3),
            ],
            redundant: vec![None, Some(9), None, None],
        };
        assert!(c.uses_best_effort());
        assert_eq!(c.mode.label(), "multi");
        assert_eq!(c.relay_sources(), vec![3, 5, 3, 9]);

        // A failover punched every relay out: all-CDN multi still
        // counts as best-effort mode (subscriptions may return), but
        // exposes no relay sources.
        c.mode = ClientMode::Multi {
            sources: vec![SubSource::Cdn; 4],
            redundant: vec![None; 4],
        };
        assert!(c.uses_best_effort());
        assert!(c.relay_sources().is_empty());

        c.mode = ClientMode::SingleSource { relay: 7 };
        assert_eq!(c.mode.label(), "single_source");
        assert_eq!(c.relay_sources(), vec![7]);

        c.mode = ClientMode::CdnFull;
        assert!(!c.uses_best_effort());
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
                    suppliers: vec![1, 2],
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
