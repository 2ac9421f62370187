//! Session lifecycle and per-client control loops: arrival, CDN
//! prefill, the multi-source promotion gate, fallback/failover/switch
//! decisions, loss recovery and departure.
//!
//! Everything here is orchestration *across* actors: each function
//! takes the whole [`World`], reads whichever actors it must, and calls
//! into actor methods (never their private state) to effect changes.

use crate::actors::actor_ctx;
use crate::actors::cdn::CdnRequest;
use crate::actors::client::{Client, ClientMode, HedgeState, SubSource, TARGET_BUFFER};
use crate::config::{DeliveryMode, BASE_RUNG, BITRATE_LADDER};
use crate::cost::TrafficClass;
use crate::events::{Event, TraceEvent, FULL_STREAM};
use crate::world::{Group, World};
use rlive_control::adviser::SwitchSuggestion;
use rlive_control::features::{ClientId, ClientInfo};
use rlive_control::scheduler::Candidate;
use rlive_control::{NodeId, Platform, StreamKey};
use rlive_data::recovery::{FrameState, PlannedRecovery, RecoveryAction};
use rlive_media::footprint::LocalChain;
use rlive_media::frame::FrameHeader;
use rlive_sim::{SimDuration, SimTime};
use rlive_workload::streams::sample_view_duration_secs;
use rlive_workload::traces::RetxServer;

/// Retransmission timeout before a frame without a gap signal is
/// treated as incomplete.
const RETX_TIMEOUT: SimDuration = SimDuration::from_millis(120);

/// Client control loop interval.
const CONTROL_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// Trace label of a delivery-mode policy.
fn policy_label(mode: DeliveryMode) -> &'static str {
    match mode {
        DeliveryMode::CdnOnly => "cdn_only",
        DeliveryMode::SingleSource => "single_source",
        DeliveryMode::RLive => "rlive",
        DeliveryMode::RedundantMulti => "redundant_multi",
        DeliveryMode::RLiveCentralSequencing => "central_sequencing",
    }
}

// ----- delivery helpers ------------------------------------------------

/// Delivers one frame from the client's CDN edge directly.
pub(crate) fn cdn_deliver_frame(
    world: &mut World,
    now: SimTime,
    cid: u64,
    header: FrameHeader,
    chain: Option<LocalChain>,
    ss: u16,
) {
    let Some(client) = world.clients.get(&cid) else {
        return;
    };
    let edge = client.cdn_edge;
    let scale = client.abr.scale();
    let group = client.group;
    let mut ctx = actor_ctx!(world, now);
    world.cdn[edge].deliver_frame(
        &mut ctx,
        CdnRequest {
            client: cid,
            header,
            chain,
            substream: ss,
            scale,
            group,
        },
    );
}

/// Bursts recent frames of the client's stream from the CDN to fill
/// the playout buffer — used at startup (§4.1: "pulling the full
/// stream from the original CDN to fill the initial playout buffer")
/// and when the buffer runs low (§8.2: aggressive CDN usage to
/// safeguard QoE).
pub(crate) fn cdn_prefill(world: &mut World, now: SimTime, cid: u64) {
    let (stream, floor) = {
        let Some(client) = world.clients.get(&cid) else {
            return;
        };
        (client.stream as usize, client.next_needed_dts)
    };
    let order: Vec<u64> = world.streams[stream].recent_dts().collect();
    let Some(&latest) = order.last() else {
        return;
    };
    let window = TARGET_BUFFER.as_millis();
    // Refill from where the player is, so stalls translate into
    // end-to-end latency drift (live viewers lag behind after
    // rebuffering). Only re-anchor towards the live edge when the
    // session has fallen hopelessly behind ("latency chasing").
    let from = if floor == 0 || latest.saturating_sub(floor) > 3 * window {
        latest.saturating_sub(window)
    } else {
        floor
    };
    let mut frames = 0u32;
    for dts in order {
        if dts < from {
            continue;
        }
        let Some(&(header, chain)) = world.streams[stream].recent_frame(dts) else {
            continue;
        };
        let ss = world.substream_for(&header);
        cdn_deliver_frame(world, now, cid, header, Some(chain), ss);
        frames += 1;
    }
    world
        .trace
        .emit(now, Some(cid), TraceEvent::CdnPrefill { frames });
}

/// Counts (test, control) subscribers of a relay, for proportional
/// backhaul attribution.
pub(crate) fn group_counts(world: &World, relay: u32) -> (usize, usize) {
    let mut test = 0usize;
    let mut control = 0usize;
    for cid in world.relays[relay as usize].all_subscriber_ids() {
        match world.clients.get(&cid).map(|c| c.group) {
            Some(Group::Test) => test += 1,
            Some(Group::Control) => control += 1,
            None => {}
        }
    }
    (test, control)
}

// ----- control loops ---------------------------------------------------

/// One coarse control round: fallback check, failover/switch, loss
/// recovery, ABR evaluation, and rescheduling.
pub(crate) fn on_control_tick(world: &mut World, now: SimTime, cid: u64) {
    if !world.clients.contains_key(&cid) {
        return;
    }
    if world.clients[&cid].departed {
        return;
    }
    world
        .clients
        .get_mut(&cid)
        .expect("checked")
        .energy
        .add_cpu(world.energy_model.per_control_round);

    control_fallback_check(world, now, cid);
    control_failover_and_switch(world, now, cid);
    control_recovery(world, now, cid);
    if let Some(client) = world.clients.get_mut(&cid) {
        client.abr.evaluate(now);
        let next = now + CONTROL_INTERVAL;
        if next <= world.end_at && next < client.leaves_at {
            world
                .queue
                .schedule(next, Event::ControlTick { client: cid });
        }
    }
}

/// §7.4: occupancy below the fallback threshold sends the client
/// back to CDN full-stream delivery. The §2.2 strawman predates this
/// safety net: degraded single-source clients re-map to another
/// top-tier relay instead of returning to the CDN data path.
fn control_fallback_check(world: &mut World, now: SimTime, cid: u64) {
    let (needs_fallback, strawman, current_relay) = {
        let client = &world.clients[&cid];
        (
            client.uses_best_effort() && client.playback.below_fallback_threshold(),
            client.mode_policy == DeliveryMode::SingleSource,
            match &client.mode {
                ClientMode::SingleSource { relay } => Some(*relay),
                _ => None,
            },
        )
    };
    if needs_fallback && strawman {
        if let Some(dead) = current_relay {
            let full_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6;
            if let Some(next) = pick_relay_for(world, now, cid, 0) {
                if next != dead
                    && subscribe(
                        world,
                        cid,
                        next,
                        world.clients[&cid].stream,
                        FULL_STREAM,
                        full_mbps,
                    )
                {
                    unsubscribe(
                        world,
                        cid,
                        dead,
                        world.clients[&cid].stream,
                        FULL_STREAM,
                        full_mbps,
                    );
                    if let Some(client) = world.clients.get_mut(&cid) {
                        client.mode = ClientMode::SingleSource { relay: next };
                    }
                    world.trace.emit(
                        now,
                        Some(cid),
                        TraceEvent::ModeSwitch {
                            from: "single_source",
                            to: "single_source",
                            reason: "strawman_remap",
                        },
                    );
                    // Refill through the new relay's CDN feed path.
                    cdn_prefill(world, now, cid);
                }
            }
        }
        return;
    }
    if needs_fallback {
        let from = world.clients[&cid].mode.label();
        teardown_relay_subscriptions(world, cid);
        let client = world.clients.get_mut(&cid).expect("exists");
        client.mode = ClientMode::CdnFull;
        client.session.fell_back_to_cdn = true;
        world.trace.emit(
            now,
            Some(cid),
            TraceEvent::ModeSwitch {
                from,
                to: "cdn_full",
                reason: "buffer_fallback",
            },
        );
        // Try multi-source again once stabilised.
        let retry = now + SimDuration::from_secs(15);
        client.upgrade_scheduled = true;
        world
            .queue
            .schedule(retry, Event::MultiSourceUpgrade { client: cid });
        // Refill the buffer aggressively from the CDN (§8.2).
        cdn_prefill(world, now, cid);
    }
}

fn control_failover_and_switch(world: &mut World, now: SimTime, cid: u64) {
    let (sources, suggested) = {
        let client = &world.clients[&cid];
        (client.relay_sources(), client.switch_suggested)
    };
    if sources.is_empty() {
        return;
    }
    // Rapid failover: replace offline relays immediately.
    for rid in &sources {
        if !world.relays[*rid as usize].online {
            replace_relay_source(world, now, cid, *rid);
        }
    }
    // Periodic RTT-based switching (§4.2.1), also entered on a
    // proactive suggestion (§4.2.2).
    let (sources, candidates) = {
        let client = &world.clients[&cid];
        let mut all: Vec<Candidate> = client.all_candidates().copied().collect();
        all.sort_by_key(|c| c.node);
        all.dedup_by_key(|c| c.node);
        (client.relay_sources(), all)
    };
    if sources.is_empty() {
        return;
    }
    let hq_only = world.clients[&cid].mode_policy == DeliveryMode::SingleSource;
    let mut candidate_rtts: Vec<(NodeId, SimDuration)> = Vec::new();
    for c in &candidates {
        let idx = c.node.0 as usize;
        if idx < world.relays.len()
            && world.relays[idx].online
            && (!hq_only || world.relays[idx].spec.high_quality)
        {
            let rtt = world.relays[idx].rtt_estimate(now);
            candidate_rtts.push((c.node, rtt));
        }
    }
    let worst = sources
        .iter()
        .map(|&rid| (rid, world.relays[rid as usize].rtt_estimate(now)))
        .max_by_key(|(_, rtt)| *rtt);
    if let Some((rid, cur_rtt)) = worst {
        let decision = {
            let client = world.clients.get_mut(&cid).expect("exists");
            client
                .controller
                .assess_switch(now, NodeId(rid as u64), cur_rtt, &candidate_rtts)
        };
        match decision {
            rlive_control::client::SwitchDecision::SwitchTo(node) => {
                swap_relay(world, cid, rid, node.0 as u32);
            }
            rlive_control::client::SwitchDecision::Stay => {
                if suggested {
                    // No better node: ignore the suggestion but ask
                    // the scheduler for fresh candidates (§4.2.2).
                    refresh_candidates(world, now, cid);
                }
            }
        }
    }
    if let Some(client) = world.clients.get_mut(&cid) {
        client.switch_suggested = false;
    }
}

fn frame_deadline(client: &Client, dts: u64) -> SimDuration {
    if client.next_needed_dts > 0 {
        SimDuration::from_millis(dts.saturating_sub(client.next_needed_dts).min(60_000))
    } else {
        client.playback.occupancy() + SimDuration::from_millis(500)
    }
}

/// Whether a frame with an in-flight request may be re-decided: a
/// slow best-effort attempt can be overridden by a dedicated
/// retrieval when the deadline shrinks, and even a dedicated
/// retrieval is re-requested once it exceeds its expected latency
/// envelope (§5.3 re-evaluates the loss function under the current
/// state; §8.2 accepts the occasional duplicate this creates).
fn may_redecide(now: SimTime, in_flight: Option<&(RecoveryAction, SimTime)>) -> bool {
    match in_flight {
        None => true,
        Some((RecoveryAction::BestEffortPackets, _)) => true,
        Some((_, issued)) => now.saturating_since(*issued) > SimDuration::from_millis(600),
    }
}

/// The sub-frame-cadence loss-recovery pass (§5.3): collects every
/// damaged or missing frame, runs the configured [`RecoveryPolicy`]
/// (`data::recovery` seam), and issues the planned retrieval actions —
/// including hedged (racing) best-effort batches when the policy asks
/// for a fanout ≥ 2.
///
/// [`RecoveryPolicy`]: rlive_data::recovery::RecoveryPolicy
pub(crate) fn control_recovery(world: &mut World, now: SimTime, cid: u64) {
    let (plans, suppliers) = {
        let Some(client) = world.clients.get(&cid) else {
            return;
        };
        let stream = client.stream as usize;
        let incomplete = client.reorder.incomplete_frames(now, RETX_TIMEOUT);
        let mut states: Vec<FrameState> = incomplete
            .iter()
            .filter(|f| may_redecide(now, client.requested_recovery.get(f.header.dts_ms)))
            .map(|f| FrameState {
                dts_ms: f.header.dts_ms,
                deadline: frame_deadline(client, f.header.dts_ms),
                size: f.header.size,
                missing_packets: f.missing.len() as u32,
                frame_type: f.header.frame_type,
                substream: f.substream,
            })
            .collect();
        // Wholly-lost frames announced by chains but never received:
        // reconstruct their headers from the stream source record.
        for (dts, cnt) in client.reorder.missing_chain_frames(now, RETX_TIMEOUT) {
            if !may_redecide(now, client.requested_recovery.get(dts)) {
                continue;
            }
            let Some((header, _)) = world.streams[stream].recent_frame(dts) else {
                continue;
            };
            states.push(FrameState {
                dts_ms: dts,
                deadline: frame_deadline(client, dts),
                size: header.size.max(cnt * 1_000),
                missing_packets: cnt,
                frame_type: header.frame_type,
                substream: world.substream_for(header),
            });
        }
        // Centralised sequencing (§7.3.2): frames whose data arrived
        // but whose sequence metadata is missing or late cannot be
        // handed to the decoder; after a timeout the client
        // conservatively re-pulls them from the CDN, whose response
        // carries authoritative ordering. This is the extra
        // retransmission load the distributed design eliminates.
        if client.mode_policy == DeliveryMode::RLiveCentralSequencing {
            for dts in client
                .reorder
                .unorderable_complete(now, SimDuration::from_millis(400), 8)
            {
                if !may_redecide(now, client.requested_recovery.get(dts)) {
                    continue;
                }
                let Some((header, _)) = world.streams[stream].recent_frame(dts) else {
                    continue;
                };
                states.push(FrameState {
                    dts_ms: dts,
                    deadline: frame_deadline(client, dts),
                    size: header.size,
                    missing_packets: header.size.div_ceil(1_200).max(1),
                    frame_type: header.frame_type,
                    substream: world.substream_for(header),
                });
            }
        }
        if states.is_empty() {
            return;
        }
        let suppliers: Vec<u64> = client.relay_sources().iter().map(|&r| r as u64).collect();
        let mut plans = world.recovery_policy.plan(
            &states,
            &client.recovery_stats,
            &suppliers,
            &world.trace,
            now,
            cid,
        );
        // The §2.2 strawman has no QoE-driven recovery: lost data is
        // re-requested from the same best-effort relay, full stop.
        // (CDN-full phases still recover from the CDN.)
        if client.mode_policy == DeliveryMode::SingleSource && client.uses_best_effort() {
            for p in &mut plans {
                p.decision.action = RecoveryAction::BestEffortPackets;
                p.fanout = 1;
            }
        }
        // A client on CDN full-stream delivery has no best-effort
        // publisher to retransmit from; recovery goes to the CDN.
        if !client.uses_best_effort() {
            for p in &mut plans {
                if p.decision.action == RecoveryAction::BestEffortPackets {
                    p.decision.action = RecoveryAction::DedicatedFrame;
                }
                p.fanout = 1;
            }
        }
        (plans, suppliers)
    };
    for PlannedRecovery {
        decision: d,
        fanout,
    } in plans
    {
        let client = world.clients.get_mut(&cid).expect("exists");
        // Skip if this would merely repeat a fresh in-flight action.
        if let Some((a, issued)) = client.requested_recovery.get(d.dts_ms) {
            if *a == d.action && now.saturating_since(*issued) <= SimDuration::from_millis(600) {
                continue;
            }
        }
        client.requested_recovery.insert(d.dts_ms, (d.action, now));
        client.session.retx_requests += 1;
        client
            .energy
            .add_cpu(world.energy_model.per_recovery_decision);
        let group = client.group;
        // A hedged batch needs at least two attempts and at least two
        // suppliers to race; everything else takes the single path.
        if fanout >= 2 && d.action == RecoveryAction::BestEffortPackets && suppliers.len() >= 2 {
            issue_hedge_batch(world, now, cid, d.dts_ms, fanout, &suppliers);
            continue;
        }
        match d.action {
            RecoveryAction::BestEffortPackets => {
                let rec = world
                    .retx_traces
                    .sample(RetxServer::BestEffort, &mut world.rng);
                let at = now + SimDuration::from_secs_f64(rec.spent_ms / 1000.0);
                world.queue.schedule(
                    at,
                    Event::RecoveryOutcome {
                        client: cid,
                        dts: d.dts_ms,
                        action: d.action,
                        success: rec.success,
                    },
                );
            }
            RecoveryAction::DedicatedFrame
            | RecoveryAction::SwitchSubstream
            | RecoveryAction::FullStream => {
                let rec = world
                    .retx_traces
                    .sample(RetxServer::Dedicated, &mut world.rng);
                // Without the §8.1 DNS bypass, each dedicated
                // recovery pays a resolver round trip first.
                let dns = if world.cfg.dns_bypass {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_secs_f64(world.rng.lognormal(3.4, 0.6) / 1000.0)
                };
                let at = now + dns + SimDuration::from_secs_f64(rec.spent_ms / 1000.0);
                world
                    .ledger_mut(group)
                    .add(TrafficClass::DedicatedServing, 1_500);
                world.queue.schedule(
                    at,
                    Event::RecoveryOutcome {
                        client: cid,
                        dts: d.dts_ms,
                        action: d.action,
                        success: rec.success,
                    },
                );
            }
        }
    }
}

/// Issues one hedged (racing) best-effort retransmission batch:
/// `fanout` concurrent attempts for the frame at `dts`, each assigned a
/// supplier round-robin from `suppliers`, each sampling its own
/// retransmission trace in deterministic attempt order. The race is
/// tracked in the client's hedge ring under a per-frame round counter
/// so a re-issued batch can never be decided by a stale leg.
fn issue_hedge_batch(
    world: &mut World,
    now: SimTime,
    cid: u64,
    dts: u64,
    fanout: u32,
    suppliers: &[u64],
) {
    let round = {
        let client = world.clients.get_mut(&cid).expect("exists");
        client
            .hedges
            .get(dts)
            .map(|h| h.round.wrapping_add(1))
            .unwrap_or(0)
    };
    world.trace.emit(
        now,
        Some(cid),
        TraceEvent::HedgeIssued {
            dts_ms: dts,
            fanout,
        },
    );
    let mut attempt_suppliers = Vec::with_capacity(fanout as usize);
    for attempt in 0..fanout {
        attempt_suppliers.push(suppliers[attempt as usize % suppliers.len()]);
        let rec = world
            .retx_traces
            .sample(RetxServer::BestEffort, &mut world.rng);
        let at = now + SimDuration::from_secs_f64(rec.spent_ms / 1000.0);
        world.queue.schedule(
            at,
            Event::HedgeOutcome {
                client: cid,
                dts,
                attempt,
                round,
                success: rec.success,
            },
        );
    }
    let client = world.clients.get_mut(&cid).expect("exists");
    client.hedges.insert(
        dts,
        HedgeState {
            round,
            outstanding: fanout as u8,
            won: false,
            suppliers: attempt_suppliers,
        },
    );
}

/// Completion of one leg of a hedged retransmission batch. The first
/// successful leg wins the race (emitting exactly one logical
/// [`TraceEvent::RecoveryOutcome`] for the frame and cancelling the
/// rest); a losing batch emits one failed outcome and re-enters
/// [`control_recovery`]. Legs arriving after the race was decided —
/// or after the playback head evicted it — are absorbed: a late
/// *successful* leg still prices its redundant bytes in the ledger,
/// which is the real cost of hedging the A/B must see.
pub(crate) fn on_hedge_outcome(
    world: &mut World,
    now: SimTime,
    cid: u64,
    dts: u64,
    attempt: u32,
    round: u16,
    success: bool,
) {
    let stream = match world.clients.get(&cid) {
        Some(c) if !c.departed => c.stream,
        _ => return,
    };
    let header = world.streams[stream as usize]
        .recent_frame(dts)
        .map(|(h, _)| *h);
    let redundant_bytes = |header: Option<FrameHeader>| header.map_or(0, |h| h.size as u64 / 3);

    // Resolve this leg against the race state. Everything the borrow of
    // the client needs is extracted here; world-level effects follow.
    enum LegFate {
        /// Race already decided or evicted; leg is moot.
        Stale,
        /// Leg lost; race still undecided (or already decided earlier).
        Lost { race_over: bool, won: bool },
        /// This leg decided the race.
        Won { remaining: u8 },
        /// Leg succeeded after the race was already won: redundant.
        RedundantWin,
    }
    let (fate, supplier, live) = {
        let client = world.clients.get_mut(&cid).expect("checked above");
        match client.hedges.get_mut(dts) {
            Some(h) if h.round == round => {
                let supplier = h.suppliers.get(attempt as usize).copied();
                let live = !h.won;
                h.outstanding = h.outstanding.saturating_sub(1);
                let fate = if success && !h.won {
                    h.won = true;
                    LegFate::Won {
                        remaining: h.outstanding,
                    }
                } else if success {
                    LegFate::RedundantWin
                } else {
                    LegFate::Lost {
                        race_over: h.outstanding == 0,
                        won: h.won,
                    }
                };
                if h.outstanding == 0 {
                    client.hedges.remove(dts);
                }
                (fate, supplier, live)
            }
            _ => (LegFate::Stale, None, false),
        }
    };

    // Feed statistics, the scheduler window and the policy's supplier
    // quality only for legs that completed while the race was live —
    // legs arriving after the win were cancelled, their outcome says
    // nothing about the supplier the policy should learn from.
    if live {
        let client = world.clients.get_mut(&cid).expect("checked above");
        client.recovery_stats.observe_retx(success);
        if let Some(s) = supplier {
            world.recovery_policy.note_attempt_outcome(now, s, success);
            world
                .scheduler
                .note_recovery_outcome(now, NodeId(s), success);
        }
    }

    match fate {
        LegFate::Stale => {
            // The race is gone (head eviction or a newer round); a
            // successful stale leg still moved bytes.
            if success {
                let group = world.clients.get(&cid).expect("checked above").group;
                world
                    .ledger_mut(group)
                    .add(TrafficClass::BestEffortServing, redundant_bytes(header));
            }
        }
        LegFate::Won { remaining } => {
            world.trace.emit(
                now,
                Some(cid),
                TraceEvent::HedgeWon {
                    dts_ms: dts,
                    attempt,
                },
            );
            if remaining > 0 {
                world.trace.emit(
                    now,
                    Some(cid),
                    TraceEvent::HedgeCancelled {
                        dts_ms: dts,
                        remaining: u32::from(remaining),
                    },
                );
            }
            // Exactly one logical recovery outcome per race.
            world.trace.emit(
                now,
                Some(cid),
                TraceEvent::RecoveryOutcome {
                    dts_ms: dts,
                    action: RecoveryAction::BestEffortPackets.label(),
                    success: true,
                },
            );
            {
                let client = world.clients.get_mut(&cid).expect("checked above");
                if client.requested_recovery.get(dts).map(|(a, _)| *a)
                    == Some(RecoveryAction::BestEffortPackets)
                {
                    client.requested_recovery.remove(dts);
                }
            }
            if let Some(header) = header {
                let group;
                {
                    let chain = world.streams[stream as usize]
                        .recent_frame(dts)
                        .map(|(_, c)| *c);
                    let client = world.clients.get_mut(&cid).expect("checked above");
                    group = client.group;
                    client.ingest_recovered_frame(now, header, chain.as_ref());
                }
                world
                    .ledger_mut(group)
                    .add(TrafficClass::BestEffortServing, header.size as u64 / 3);
            }
        }
        LegFate::RedundantWin => {
            // The race was already won; this leg's bytes travelled
            // anyway. Redundant hedge traffic is the price of racing.
            let group = world.clients.get(&cid).expect("checked above").group;
            world
                .ledger_mut(group)
                .add(TrafficClass::BestEffortServing, redundant_bytes(header));
        }
        LegFate::Lost { race_over, won } => {
            if race_over && !won {
                // Every leg lost: one logical failure, then re-decide —
                // the shrunken deadline usually escalates (§5.3).
                world.trace.emit(
                    now,
                    Some(cid),
                    TraceEvent::RecoveryOutcome {
                        dts_ms: dts,
                        action: RecoveryAction::BestEffortPackets.label(),
                        success: false,
                    },
                );
                {
                    let client = world.clients.get_mut(&cid).expect("checked above");
                    if client.requested_recovery.get(dts).map(|(a, _)| *a)
                        == Some(RecoveryAction::BestEffortPackets)
                    {
                        client.requested_recovery.remove(dts);
                    }
                }
                control_recovery(world, now, cid);
            }
        }
    }
}

/// Completion of a recovery attempt issued by
/// [`control_recovery`]: account the outcome, absorb the recovered
/// frame, and apply any mode consequence (substream switch, full-
/// stream fallback).
pub(crate) fn on_recovery_outcome(
    world: &mut World,
    now: SimTime,
    cid: u64,
    dts: u64,
    action: RecoveryAction,
    success: bool,
) {
    let stream = match world.clients.get(&cid) {
        Some(c) if !c.departed => c.stream,
        _ => return,
    };
    world.trace.emit(
        now,
        Some(cid),
        TraceEvent::RecoveryOutcome {
            dts_ms: dts,
            action: action.label(),
            success,
        },
    );
    let header = world.streams[stream as usize]
        .recent_frame(dts)
        .map(|(h, _)| *h);
    {
        let client = world.clients.get_mut(&cid).expect("checked above");
        client.recovery_stats.observe_retx(success);
        if client.requested_recovery.get(dts).map(|(a, _)| *a) == Some(action) {
            client.requested_recovery.remove(dts);
        }
    }
    // Attribute the outcome to the relay sourcing the frame's substream
    // and feed the scheduler's policy window (a no-op under the static
    // policy). CDN-sourced substreams have no node to blame.
    let source_relay = world
        .clients
        .get(&cid)
        .and_then(|client| match &client.mode {
            ClientMode::SingleSource { relay } => Some(*relay),
            ClientMode::Multi { sources, .. } => {
                header.and_then(|h| match sources.get(world.substream_for(&h) as usize) {
                    Some(SubSource::Relay(rid)) => Some(*rid),
                    _ => None,
                })
            }
            ClientMode::CdnFull => None,
        });
    if let Some(rid) = source_relay {
        world
            .scheduler
            .note_recovery_outcome(now, NodeId(rid as u64), success);
        // Single (non-hedged) best-effort attempts also teach the
        // recovery policy its per-supplier quality (no-op under
        // QoE-EDF, whose hook is the default).
        if action == RecoveryAction::BestEffortPackets {
            world
                .recovery_policy
                .note_attempt_outcome(now, rid as u64, success);
        }
    }
    if !success {
        // Re-evaluate right away; the shrunken deadline usually
        // escalates the action (§5.3).
        control_recovery(world, now, cid);
    }
    if success {
        if let Some(header) = header {
            let group;
            {
                let chain = world.streams[stream as usize]
                    .recent_frame(dts)
                    .map(|(_, c)| *c);
                let client = world.clients.get_mut(&cid).expect("checked above");
                group = client.group;
                client.ingest_recovered_frame(now, header, chain.as_ref());
            }
            let bytes = (header.size as f64) as u64;
            match action {
                RecoveryAction::BestEffortPackets => {
                    world
                        .ledger_mut(group)
                        .add(TrafficClass::BestEffortServing, bytes / 3);
                }
                _ => {
                    world
                        .ledger_mut(group)
                        .add(TrafficClass::DedicatedServing, bytes);
                }
            }
        }
    }
    match action {
        RecoveryAction::SwitchSubstream => {
            if let Some(header) = header {
                let ss = world.substream_for(&header);
                switch_substream_to_cdn(world, cid, ss);
            }
        }
        RecoveryAction::FullStream => {
            let from = world
                .clients
                .get(&cid)
                .map(|c| c.mode.label())
                .unwrap_or("cdn_full");
            teardown_relay_subscriptions(world, cid);
            if let Some(client) = world.clients.get_mut(&cid) {
                client.mode = ClientMode::CdnFull;
                client.session.fell_back_to_cdn = true;
            }
            world.trace.emit(
                now,
                Some(cid),
                TraceEvent::ModeSwitch {
                    from,
                    to: "cdn_full",
                    reason: "recovery_full_stream",
                },
            );
        }
        _ => {}
    }
}

/// Routes a relay's proactive switch suggestion to the affected
/// clients (§4.2.2).
pub(crate) fn deliver_suggestion(world: &mut World, rid: u32, s: &SwitchSuggestion) {
    let client_ids: Vec<u64> = match s {
        SwitchSuggestion::CostConsolidation { .. } => {
            world.relays[rid as usize].all_subscriber_ids().collect()
        }
        SwitchSuggestion::QosOutlier { clients, .. } => clients.iter().map(|(c, _)| c.0).collect(),
    };
    for cid in client_ids {
        if let Some(client) = world.clients.get_mut(&cid) {
            client.switch_suggested = true;
        }
    }
}

// ----- mapping: subscribe / unsubscribe / switch -----------------------

/// Subscribes `cid` to `(stream, ss)` on relay `rid`, reserving quota.
pub(crate) fn subscribe(
    world: &mut World,
    cid: u64,
    rid: u32,
    stream: u32,
    ss: u16,
    bandwidth_mbps: f64,
) -> bool {
    let client_exists = world.clients.contains_key(&cid);
    let admitted =
        world.relays[rid as usize].subscribe(cid, stream, ss, bandwidth_mbps, client_exists);
    world.refile_feeder(rid, stream);
    admitted
}

/// Reverses one [`subscribe`].
pub(crate) fn unsubscribe(
    world: &mut World,
    cid: u64,
    rid: u32,
    stream: u32,
    ss: u16,
    bandwidth_mbps: f64,
) {
    world.relays[rid as usize].unsubscribe(cid, stream, ss, bandwidth_mbps);
    world.refile_feeder(rid, stream);
}

pub(crate) fn teardown_relay_subscriptions(world: &mut World, cid: u64) {
    let Some(client) = world.clients.get(&cid) else {
        return;
    };
    let stream = client.stream;
    let per_sub_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6 / world.cfg.substreams as f64;
    match &client.mode {
        ClientMode::CdnFull => {}
        ClientMode::SingleSource { relay } => {
            let rid = *relay;
            unsubscribe(
                world,
                cid,
                rid,
                stream,
                FULL_STREAM,
                BITRATE_LADDER[BASE_RUNG] as f64 / 1e6,
            );
        }
        ClientMode::Multi { sources, redundant } => {
            let sources = sources.clone();
            let redundant = redundant.clone();
            for (ss, src) in sources.iter().enumerate() {
                if let SubSource::Relay(rid) = src {
                    unsubscribe(world, cid, *rid, stream, ss as u16, per_sub_mbps);
                }
            }
            for (ss, r) in redundant.iter().enumerate() {
                if let Some(rid) = r {
                    unsubscribe(world, cid, *rid, stream, ss as u16, per_sub_mbps);
                }
            }
        }
    }
}

fn switch_substream_to_cdn(world: &mut World, cid: u64, ss: u16) {
    let Some(client) = world.clients.get(&cid) else {
        return;
    };
    let stream = client.stream;
    let per_sub_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6 / world.cfg.substreams as f64;
    let old = match &client.mode {
        ClientMode::Multi { sources, .. } => sources.get(ss as usize).copied(),
        _ => None,
    };
    if let Some(SubSource::Relay(rid)) = old {
        unsubscribe(world, cid, rid, stream, ss, per_sub_mbps);
    }
    if let Some(client) = world.clients.get_mut(&cid) {
        if let ClientMode::Multi { sources, .. } = &mut client.mode {
            if let Some(slot) = sources.get_mut(ss as usize) {
                *slot = SubSource::Cdn;
            }
        }
    }
}

fn replace_relay_source(world: &mut World, now: SimTime, cid: u64, dead: u32) {
    // Probe fresh candidates and re-home every substream served by
    // the dead relay; CDN covers the gap when no candidate admits.
    let (stream, affected) = {
        let Some(client) = world.clients.get_mut(&cid) else {
            return;
        };
        client.controller.record_failure(now, NodeId(dead as u64));
        let stream = client.stream;
        let mut affected = Vec::new();
        match &mut client.mode {
            ClientMode::SingleSource { relay } if *relay == dead => {
                // Handled below: try another top-tier relay first.
                affected.push(usize::MAX);
            }
            ClientMode::Multi { sources, redundant } => {
                for (i, src) in sources.iter_mut().enumerate() {
                    if *src == SubSource::Relay(dead) {
                        *src = SubSource::Cdn;
                        affected.push(i);
                    }
                }
                for r in redundant.iter_mut() {
                    if *r == Some(dead) {
                        *r = None;
                    }
                }
            }
            _ => {}
        }
        (stream, affected)
    };
    let per_sub_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6 / world.cfg.substreams as f64;
    for ss in affected {
        if ss == usize::MAX {
            // Single-source re-map: another top-tier relay, or the
            // CDN as last resort.
            let full_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6;
            let next = pick_relay_for(world, now, cid, 0);
            let subscribed = next
                .map(|rid| subscribe(world, cid, rid, stream, FULL_STREAM, full_mbps))
                .unwrap_or(false);
            if let Some(client) = world.clients.get_mut(&cid) {
                client.mode = match (subscribed, next) {
                    (true, Some(rid)) => ClientMode::SingleSource { relay: rid },
                    _ => {
                        client.session.fell_back_to_cdn = true;
                        ClientMode::CdnFull
                    }
                };
            }
            continue;
        }
        // Try to find a replacement relay right away.
        if let Some(new_rid) = pick_relay_for(world, now, cid, ss as u16) {
            if subscribe(world, cid, new_rid, stream, ss as u16, per_sub_mbps) {
                if let Some(client) = world.clients.get_mut(&cid) {
                    if let ClientMode::Multi { sources, .. } = &mut client.mode {
                        sources[ss] = SubSource::Relay(new_rid);
                    }
                }
            }
        }
    }
}

fn swap_relay(world: &mut World, cid: u64, from: u32, to: u32) {
    let Some(client) = world.clients.get(&cid) else {
        return;
    };
    let stream = client.stream;
    let per_sub_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6 / world.cfg.substreams as f64;
    match &client.mode {
        ClientMode::SingleSource { relay } if *relay == from => {
            let full_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6;
            if subscribe(world, cid, to, stream, FULL_STREAM, full_mbps) {
                unsubscribe(world, cid, from, stream, FULL_STREAM, full_mbps);
                if let Some(client) = world.clients.get_mut(&cid) {
                    client.mode = ClientMode::SingleSource { relay: to };
                }
            }
        }
        ClientMode::Multi { sources, .. } => {
            let affected: Vec<usize> = sources
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == SubSource::Relay(from))
                .map(|(i, _)| i)
                .collect();
            // Move one substream per assessment round (gradual
            // re-mapping limits disruption).
            if let Some(&ss) = affected.first() {
                if subscribe(world, cid, to, stream, ss as u16, per_sub_mbps) {
                    unsubscribe(world, cid, from, stream, ss as u16, per_sub_mbps);
                    if let Some(client) = world.clients.get_mut(&cid) {
                        if let ClientMode::Multi { sources, .. } = &mut client.mode {
                            sources[ss] = SubSource::Relay(to);
                        }
                    }
                }
            }
        }
        _ => {}
    }
}

fn refresh_candidates(world: &mut World, now: SimTime, cid: u64) {
    let Some(client) = world.clients.get(&cid) else {
        return;
    };
    let info = client.info;
    let stream = client.stream as u64;
    let k = if client.mode_policy.is_multi_source() {
        world.cfg.substreams
    } else {
        1
    };
    for substream in 0..k {
        let key = StreamKey {
            stream_id: stream,
            substream,
        };
        let rec = world.scheduler.recommend(now, &info, key);
        if let Some(client) = world.clients.get_mut(&cid) {
            client.set_candidates(substream, rec.candidates);
        }
    }
}

/// Probes up to three candidates (§4.1.2) for a substream and
/// returns the first admitting, traversable, online relay.
fn pick_relay_for(world: &mut World, now: SimTime, cid: u64, ss: u16) -> Option<u32> {
    pick_relay_excluding(world, now, cid, ss, &[])
}

/// Like [`pick_relay_for`], additionally excluding `extra` (relays
/// already chosen in this mapping round).
fn pick_relay_excluding(
    world: &mut World,
    now: SimTime,
    cid: u64,
    ss: u16,
    extra: &[u32],
) -> Option<u32> {
    let policy = world.clients.get(&cid).map(|c| c.mode_policy);
    let hq_only = policy == Some(DeliveryMode::SingleSource);
    let weak_only =
        world.cfg.multi_on_weak_tier && policy.map(|p| p.is_multi_source()).unwrap_or(false);
    let (candidates, mut exclude) = {
        let relays = &world.relays;
        let client = world.clients.get_mut(&cid)?;
        let list = client.candidates_for(ss);
        let ids: Vec<NodeId> = list
            .map(|l| l.iter().map(|c| c.node).collect::<Vec<_>>())
            .unwrap_or_default()
            .into_iter()
            .filter(|n| !extra.contains(&(n.0 as u32)))
            // The §2.2 strawman extends the CDN with *only* the
            // top-tier nodes; everything else is invisible to it.
            .filter(|n| {
                let hq = relays
                    .get(n.0 as usize)
                    .map(|r| r.spec.high_quality)
                    .unwrap_or(false);
                (!hq_only || hq) && (!weak_only || !hq)
            })
            .collect();
        let probe_ids = client.controller.probe_list(now, &ids);
        (probe_ids, client.relay_sources())
    };
    exclude.extend_from_slice(extra);
    for node in candidates {
        let rid = node.0 as u32;
        if exclude.contains(&rid) {
            continue;
        }
        let idx = rid as usize;
        if idx >= world.relays.len() {
            continue;
        }
        world.candidate_probes += 1;
        let relay = &world.relays[idx];
        let usable = relay.online
            && relay.quotas.admits(0.75 * 1.6, 0.02, 4.0)
            && world.traversal.attempt(relay.spec.nat, &mut world.rng);
        world.scheduler.observe_connection(now, node, usable);
        if usable {
            if let Some(client) = world.clients.get_mut(&cid) {
                client.controller.record_success(node);
            }
            return Some(rid);
        }
        world.candidate_invalid += 1;
        if let Some(client) = world.clients.get_mut(&cid) {
            client.controller.record_failure(now, node);
        }
    }
    None
}

// ----- client lifecycle ------------------------------------------------

/// One viewer arrival: samples the user, stream, region and view
/// duration, creates the session in CDN-full mode, schedules its
/// loops, and bursts the initial playout buffer from the CDN.
pub(crate) fn on_client_arrival(world: &mut World, now: SimTime) {
    // Schedule the next arrival from the diurnal rate (plus any
    // active flash-crowd surge — a ×1.0 no-op without one).
    let load = world
        .scenario
        .demand_at(now.saturating_since(SimTime::ZERO));
    // Keep mean concurrency at `viewers(t)`: arrival rate =
    // target / mean session length.
    let mean_session = 110.0;
    let target = (world.scenario.peak_viewers as f64 * load).max(1.0);
    let rate = target / mean_session;
    let gap = SimDuration::from_secs_f64(world.rng.exponential(1.0 / rate).clamp(0.001, 30.0));
    if now + gap <= world.end_at {
        world.queue.schedule(now + gap, Event::ClientArrival);
    }

    // Create the client.
    let cid = world.next_client;
    world.next_client += 1;
    // Users return: pick from a pool ~60 % the size of total views.
    let user = world
        .rng
        .below((world.scenario.peak_viewers as u64 * 4).max(10));
    world.users_seen.insert(user);
    let group = if (rlive_media::hash::fnv1a_u64(user) as f64 / u64::MAX as f64)
        < world.policy.test_fraction
    {
        Group::Test
    } else {
        Group::Control
    };
    let mode_policy = match group {
        Group::Control => world.policy.control,
        Group::Test => world.policy.test,
    };
    let stream = world.popularity.sample_stream(&mut world.rng) as u32;
    world.streams[stream as usize].viewers += 1;
    let region = world.rng.below(world.scenario.population.regions as u64) as u16;
    let isp = world.rng.below(world.scenario.population.isps as u64) as u16;
    let bgp = region as u32 * world.scenario.population.prefixes_per_region
        + world
            .rng
            .below(world.scenario.population.prefixes_per_region as u64) as u32;
    let geo = (
        (region % 4) as f64 * 10.0 + world.rng.range_f64(0.0, 10.0),
        (region / 4) as f64 * 10.0 + world.rng.range_f64(0.0, 10.0),
    );
    let info = ClientInfo {
        id: ClientId(cid),
        isp,
        region,
        bgp_prefix: bgp,
        geo,
        platform: Platform::Android,
    };
    let view_secs = sample_view_duration_secs(&mut world.rng);
    let leaves_at = now + SimDuration::from_secs_f64(view_secs);
    let frame_interval = world.frame_interval();
    let mut client = Client::new(
        cid,
        group,
        mode_policy,
        info,
        stream,
        (region as usize) % world.cdn.len(),
        world.cfg.client_controller.clone(),
        frame_interval,
        world.cfg.fallback_threshold,
        now,
        leaves_at,
    );
    if world.trace.is_enabled() {
        client.reorder.set_trace_sink(cid, world.trace.clone());
        world.trace.emit(
            now,
            Some(cid),
            TraceEvent::SessionJoin {
                stream: stream as u64,
                group: match group {
                    Group::Control => "control",
                    Group::Test => "test",
                },
                mode: policy_label(mode_policy),
            },
        );
    }
    match group {
        Group::Control => world.control_qoe.add_viewer(),
        Group::Test => world.test_qoe.add_viewer(),
    }
    world.clients.insert(cid, client);

    // Kick off candidate retrieval in parallel with CDN startup
    // (§4.1: parallelism keeps first-frame latency low).
    if mode_policy.uses_best_effort() {
        refresh_candidates(world, now, cid);
        let upgrade_at = now + world.cfg.multi_source_after;
        if upgrade_at < leaves_at {
            if let Some(c) = world.clients.get_mut(&cid) {
                c.upgrade_scheduled = true;
            }
            world
                .queue
                .schedule(upgrade_at, Event::MultiSourceUpgrade { client: cid });
        }
    }
    world
        .queue
        .schedule(now + CONTROL_INTERVAL, Event::ControlTick { client: cid });
    world.queue.schedule(
        leaves_at.min(world.end_at),
        Event::ClientDeparture { client: cid },
    );
    // Fast startup: burst the initial playout buffer from the CDN.
    cdn_prefill(world, now, cid);
}

/// The multi-source promotion gate: once the popularity threshold is
/// met, maps the session onto best-effort relays according to its
/// delivery-mode policy.
pub(crate) fn on_upgrade(world: &mut World, now: SimTime, cid: u64) {
    let Some(client) = world.clients.get(&cid) else {
        return;
    };
    if client.departed || !matches!(client.mode, ClientMode::CdnFull) {
        return;
    }
    let mode_policy = client.mode_policy;
    let stream = client.stream;
    // Popularity gate (§7.1.1).
    if world.streams[stream as usize].viewers < world.cfg.popularity_threshold {
        return;
    }
    if let Some(c) = world.clients.get_mut(&cid) {
        c.upgrade_scheduled = false;
    }
    refresh_candidates(world, now, cid);
    match mode_policy {
        DeliveryMode::CdnOnly => {}
        DeliveryMode::SingleSource => {
            let full_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6;
            let mut granted = false;
            if let Some(rid) = pick_relay_for(world, now, cid, 0) {
                if subscribe(world, cid, rid, stream, FULL_STREAM, full_mbps) {
                    if let Some(client) = world.clients.get_mut(&cid) {
                        client.mode = ClientMode::SingleSource { relay: rid };
                    }
                    granted = true;
                }
            }
            world.trace.emit(
                now,
                Some(cid),
                TraceEvent::MultiSourcePromotion {
                    granted,
                    relays: granted as u32,
                },
            );
            if granted {
                world.trace.emit(
                    now,
                    Some(cid),
                    TraceEvent::ModeSwitch {
                        from: "cdn_full",
                        to: "single_source",
                        reason: "promotion",
                    },
                );
            }
        }
        DeliveryMode::RLive
        | DeliveryMode::RedundantMulti
        | DeliveryMode::RLiveCentralSequencing => {
            let k = world.cfg.substreams as usize;
            let per_sub_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6 / k as f64;
            let mut sources = vec![SubSource::Cdn; k];
            let mut redundant = vec![None; k];
            let mut any = false;
            let mut taken: Vec<u32> = Vec::new();
            for ss in 0..k {
                if let Some(rid) = pick_relay_excluding(world, now, cid, ss as u16, &taken) {
                    if subscribe(world, cid, rid, stream, ss as u16, per_sub_mbps) {
                        sources[ss] = SubSource::Relay(rid);
                        taken.push(rid);
                        any = true;
                    }
                }
                if mode_policy == DeliveryMode::RedundantMulti {
                    if let Some(rid2) = pick_relay_excluding(world, now, cid, ss as u16, &taken) {
                        if subscribe(world, cid, rid2, stream, ss as u16, per_sub_mbps) {
                            redundant[ss] = Some(rid2);
                            taken.push(rid2);
                        }
                    }
                }
            }
            world.trace.emit(
                now,
                Some(cid),
                TraceEvent::MultiSourcePromotion {
                    granted: any,
                    relays: taken.len() as u32,
                },
            );
            if any {
                world.trace.emit(
                    now,
                    Some(cid),
                    TraceEvent::ModeSwitch {
                        from: "cdn_full",
                        to: "multi",
                        reason: "promotion",
                    },
                );
                if let Some(client) = world.clients.get_mut(&cid) {
                    client.mode = ClientMode::Multi { sources, redundant };
                }
            }
        }
    }
}

/// Ends a session: tears down subscriptions, folds its metrics into
/// the group aggregates and removes the client.
pub(crate) fn close_session(world: &mut World, now: SimTime, cid: u64) {
    let Some(client) = world.clients.get(&cid) else {
        return;
    };
    if client.departed {
        return;
    }
    teardown_relay_subscriptions(world, cid);
    let client = world.clients.get_mut(&cid).expect("exists");
    client.departed = true;
    let stream = client.stream as usize;
    let group = client.group;
    let energy = if client.energy.playback_secs >= 5.0 {
        Some((
            client
                .energy
                .cpu_pct(&crate::energy::EnergyModel::default()),
            client.energy.mem_pct(),
            client
                .energy
                .temp_pct(&crate::energy::EnergyModel::default()),
            client
                .energy
                .battery_pct(&crate::energy::EnergyModel::default()),
        ))
    } else {
        None
    };
    client.session.frames_skipped = client.reorder.skipped_count();
    let session = client.session.clone();
    world.trace.emit(
        now,
        Some(cid),
        TraceEvent::SessionDepart {
            frames_played: session.frames_played,
            rebuffer_events: session.rebuffer_events,
        },
    );
    world.streams[stream].viewers = world.streams[stream].viewers.saturating_sub(1);
    match group {
        Group::Control => {
            world.control_qoe.add_session(&session);
            world.control_energy.extend(energy);
        }
        Group::Test => {
            world.test_qoe.add_session(&session);
            world.test_energy.extend(energy);
        }
    }
    world.clients.remove(&cid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::world::GroupPolicy;
    use rlive_control::ClientControllerConfig;
    use rlive_workload::scenario::Scenario;

    fn tiny_world() -> World {
        let mut s = Scenario::evening_peak().scaled(0.01);
        s.duration = SimDuration::from_secs(1);
        s.streams = 1;
        World::new(
            s,
            SystemConfig::for_mode(DeliveryMode::RLive),
            GroupPolicy::uniform(DeliveryMode::RLive),
            1,
        )
    }

    fn test_client(id: u64) -> Client {
        let info = ClientInfo {
            id: ClientId(id),
            isp: 0,
            region: 0,
            bgp_prefix: 0,
            geo: (0.0, 0.0),
            platform: Platform::Android,
        };
        Client::new(
            id,
            Group::Test,
            DeliveryMode::RLive,
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

    /// Regression for the supersede-then-complete sequence: §5.3
    /// re-decides an in-flight best-effort recovery into a dedicated
    /// retrieval, then the slow best-effort attempt completes anyway.
    /// Removal is match-only, so the late mismatched completion must
    /// leave the superseding dedicated entry in flight, and only the
    /// dedicated completion clears it.
    #[test]
    fn late_outcome_of_a_superseded_request_leaves_the_new_entry() {
        let mut world = tiny_world();
        let mut c = test_client(7);
        let t0 = SimTime::ZERO + SimDuration::from_millis(100);
        let t1 = SimTime::ZERO + SimDuration::from_millis(800);
        c.requested_recovery
            .insert(330, (RecoveryAction::BestEffortPackets, t0));
        // The shrunken deadline escalated: dedicated supersedes.
        c.requested_recovery
            .insert(330, (RecoveryAction::DedicatedFrame, t1));
        world.clients.insert(7, c);

        on_recovery_outcome(
            &mut world,
            t1 + SimDuration::from_millis(50),
            7,
            330,
            RecoveryAction::BestEffortPackets,
            false,
        );
        let entry = world.clients.get(&7).unwrap().requested_recovery.get(330);
        assert_eq!(
            entry.map(|(a, _)| *a),
            Some(RecoveryAction::DedicatedFrame),
            "mismatched late completion must not clear the superseding entry"
        );

        on_recovery_outcome(
            &mut world,
            t1 + SimDuration::from_millis(90),
            7,
            330,
            RecoveryAction::DedicatedFrame,
            true,
        );
        assert!(
            world
                .clients
                .get(&7)
                .unwrap()
                .requested_recovery
                .get(330)
                .is_none(),
            "the matching completion clears the entry"
        );
    }
}
