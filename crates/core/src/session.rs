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
use rlive_data::recovery::{FrameState, PlannedRecovery, RecoveryAction, MAX_FANOUT};
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

/// The per-client passes' buffers, owned by the world: a pass takes
/// them out, fills them from queries that borrow the client and puts
/// them back, so neither the recovery pass nor the control tick
/// allocates once warm.
#[derive(Default)]
pub(crate) struct ControlScratch {
    /// Recovery: the retransmission list, its suppliers and the plans.
    states: Vec<FrameState>,
    suppliers: Vec<u64>,
    plans: Vec<PlannedRecovery>,
    /// Control tick: the serving relays and the switch candidates.
    sources: Vec<u32>,
    candidates: Vec<Candidate>,
    candidate_rtts: Vec<(NodeId, SimDuration)>,
}

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
    let mut order = std::mem::take(&mut world.prefill_dts);
    order.clear();
    order.extend(world.streams[stream].recent_dts());
    let Some(&latest) = order.last() else {
        world.prefill_dts = order;
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
    for &dts in &order {
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
    let mut scratch = std::mem::take(&mut world.control);
    failover_and_switch(world, now, cid, &mut scratch);
    world.control = scratch;
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
    let client = &world.clients[&cid];
    if !(client.uses_best_effort() && client.playback.below_fallback_threshold()) {
        return;
    }
    if client.mode_policy == DeliveryMode::SingleSource {
        if let ClientMode::SingleSource { relay: dead } = client.mode {
            if let Some(next) = pick_relay_for(world, now, cid, 0) {
                if next != dead && move_source(world, cid, FULL_STREAM, dead, next) {
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
    fall_back_to_cdn(world, now, cid, "buffer_fallback");
    // Try multi-source again once stabilised.
    world
        .clients
        .get_mut(&cid)
        .expect("exists")
        .upgrade_scheduled = true;
    world.queue.schedule(
        now + SimDuration::from_secs(15),
        Event::MultiSourceUpgrade { client: cid },
    );
    // Refill the buffer aggressively from the CDN (§8.2).
    cdn_prefill(world, now, cid);
}

/// §7.4: tears down every relay subscription and returns the client to
/// CDN full-stream delivery, tracing the switch under `reason`.
fn fall_back_to_cdn(world: &mut World, now: SimTime, cid: u64, reason: &'static str) {
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
            reason,
        },
    );
}

fn failover_and_switch(world: &mut World, now: SimTime, cid: u64, scratch: &mut ControlScratch) {
    let ControlScratch {
        sources,
        candidates,
        candidate_rtts,
        ..
    } = scratch;
    let client = &world.clients[&cid];
    let suggested = client.switch_suggested;
    sources.clear();
    sources.extend(client.relay_sources());
    if sources.is_empty() {
        return;
    }
    // Rapid failover: replace offline relays immediately.
    for &rid in sources.iter() {
        if !world.relays[rid as usize].online {
            replace_relay_source(world, now, cid, rid);
        }
    }
    // Periodic RTT-based switching (§4.2.1), also entered on a
    // proactive suggestion (§4.2.2).
    let client = &world.clients[&cid];
    candidates.clear();
    candidates.extend_from_slice(client.candidates.all());
    candidates.sort_by_key(|c| c.node);
    candidates.dedup_by_key(|c| c.node);
    sources.clear();
    sources.extend(client.relay_sources());
    if sources.is_empty() {
        return;
    }
    let hq_only = client.mode_policy == DeliveryMode::SingleSource;
    candidate_rtts.clear();
    for c in candidates.iter() {
        let idx = c.node.0 as usize;
        if idx < world.relays.len()
            && world.relays[idx].online
            && (!hq_only || world.relays[idx].high_quality)
        {
            let rtt = world.serve(c.node.0 as u32).rtt_estimate(now);
            candidate_rtts.push((c.node, rtt));
        }
    }
    let worst = sources
        .iter()
        .map(|&rid| (rid, world.serve(rid).rtt_estimate(now)))
        .max_by_key(|(_, rtt)| *rtt);
    if let Some((rid, cur_rtt)) = worst {
        let decision = {
            let client = world.clients.get_mut(&cid).expect("exists");
            client
                .controller
                .assess_switch(now, NodeId(rid as u64), cur_rtt, candidate_rtts)
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
    let mut scratch = std::mem::take(&mut world.control);
    if plan_recovery(world, now, cid, &mut scratch) {
        issue_recovery(world, now, cid, &scratch);
    }
    world.control = scratch;
}

/// Fills `scratch` with the client's retransmission list, suppliers and
/// the policy's plans; returns whether there is anything to issue.
fn plan_recovery(world: &mut World, now: SimTime, cid: u64, scratch: &mut ControlScratch) -> bool {
    let Some(client) = world.clients.get(&cid) else {
        return false;
    };
    let stream = client.stream as usize;
    let state = |h: &FrameHeader, substream: u16, size: u32, missing_packets: u32| FrameState {
        dts_ms: h.dts_ms,
        deadline: frame_deadline(client, h.dts_ms),
        size,
        missing_packets,
        frame_type: h.frame_type,
        substream,
    };
    let states = &mut scratch.states;
    states.clear();
    let incomplete = client.reorder.incomplete_frames(now, RETX_TIMEOUT);
    states.extend(
        incomplete
            .filter(|f| may_redecide(now, client.requested_recovery.get(f.header.dts_ms)))
            .map(|f| state(&f.header, f.substream, f.header.size, f.missing.len())),
    );
    // Frames with no data to decide on, whose headers are rebuilt
    // from the stream source record: wholly-lost frames announced by
    // chains but never received (`Some(lost packets)`), then, under
    // centralised sequencing (§7.3.2), frames whose data arrived but
    // whose sequence metadata is missing or late (`None`). The client
    // conservatively re-pulls the latter from the CDN, whose response
    // carries authoritative ordering: the extra retransmission load
    // the distributed design eliminates.
    let unorderable = (client.mode_policy == DeliveryMode::RLiveCentralSequencing).then(|| {
        client
            .reorder
            .unorderable_complete(now, SimDuration::from_millis(400), 8)
    });
    let wholly_lost = client.reorder.missing_chain_frames(now, RETX_TIMEOUT);
    let rebuilt = wholly_lost.map(|(dts, n)| (dts, Some(n)));
    for (dts, lost) in rebuilt.chain(unorderable.into_iter().flatten().map(|dts| (dts, None))) {
        if !may_redecide(now, client.requested_recovery.get(dts)) {
            continue;
        }
        let Some((header, _)) = world.streams[stream].recent_frame(dts) else {
            continue;
        };
        let (size, missing) = match lost {
            Some(n) => (header.size.max(n * 1_000), n),
            None => (header.size, header.size.div_ceil(1_200).max(1)),
        };
        states.push(state(header, world.substream_for(header), size, missing));
    }
    if states.is_empty() {
        return false;
    }
    scratch.suppliers.clear();
    scratch
        .suppliers
        .extend(client.relay_sources().map(u64::from));
    let plans = &mut scratch.plans;
    plans.clear();
    plans.extend_from_slice(world.recovery_policy.plan(
        states,
        &client.recovery_stats,
        &scratch.suppliers,
        &world.trace,
        now,
        cid,
    ));
    // The §2.2 strawman has no QoE-driven recovery: lost data is
    // re-requested from the same best-effort relay, full stop.
    // (CDN-full phases still recover from the CDN.)
    if client.mode_policy == DeliveryMode::SingleSource && client.uses_best_effort() {
        for p in plans.iter_mut() {
            p.decision.action = RecoveryAction::BestEffortPackets;
            p.fanout = 1;
        }
    }
    // A client on CDN full-stream delivery has no best-effort
    // publisher to retransmit from; recovery goes to the CDN.
    if !client.uses_best_effort() {
        for p in plans.iter_mut() {
            if p.decision.action == RecoveryAction::BestEffortPackets {
                p.decision.action = RecoveryAction::DedicatedFrame;
            }
            p.fanout = 1;
        }
    }
    true
}

/// Issues the plans [`plan_recovery`] left in `scratch`.
fn issue_recovery(world: &mut World, now: SimTime, cid: u64, scratch: &ControlScratch) {
    let suppliers = &scratch.suppliers;
    for &PlannedRecovery {
        decision: ref d,
        fanout,
    } in &scratch.plans
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
            issue_hedge_batch(world, now, cid, d.dts_ms, fanout, suppliers);
            continue;
        }
        let dedicated = d.action != RecoveryAction::BestEffortPackets;
        let server = if dedicated {
            RetxServer::Dedicated
        } else {
            RetxServer::BestEffort
        };
        let rec = world.retx_traces.sample(server, &mut world.rng);
        // Without the §8.1 DNS bypass, each dedicated recovery pays a
        // resolver round trip first.
        let dns = if dedicated && !world.cfg.dns_bypass {
            SimDuration::from_secs_f64(world.rng.lognormal(3.4, 0.6) / 1000.0)
        } else {
            SimDuration::ZERO
        };
        if dedicated {
            world
                .ledger_mut(group)
                .add(TrafficClass::DedicatedServing, 1_500);
        }
        world.queue.schedule(
            now + dns + SimDuration::from_secs_f64(rec.spent_ms / 1000.0),
            Event::RecoveryOutcome {
                client: cid,
                dts: d.dts_ms,
                action: d.action,
                success: rec.success,
            },
        );
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
    let mut attempt_suppliers = [0; MAX_FANOUT as usize];
    for attempt in 0..fanout {
        attempt_suppliers[attempt as usize] = suppliers[attempt as usize % suppliers.len()];
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

    // Resolve this leg against the race state. Everything the borrow of
    // the client needs is extracted here; world-level effects follow.
    enum LegFate {
        /// The leg decides nothing: the race is gone (head eviction or
        /// a newer round), already won, or still has legs out.
        Moot,
        /// This leg won the race; `remaining` legs are cancelled.
        Won { remaining: u8 },
        /// The last leg of a race every leg lost.
        Lost,
    }
    let (fate, supplier, live) = {
        let client = world.clients.get_mut(&cid).expect("checked above");
        match client.hedges.get_mut(dts) {
            Some(h) if h.round == round => {
                let supplier = h.suppliers.get(attempt as usize).copied();
                let live = !h.won;
                h.outstanding = h.outstanding.saturating_sub(1);
                let fate = if success && live {
                    h.won = true;
                    LegFate::Won {
                        remaining: h.outstanding,
                    }
                } else if !success && live && h.outstanding == 0 {
                    LegFate::Lost
                } else {
                    LegFate::Moot
                };
                if h.outstanding == 0 {
                    client.hedges.remove(dts);
                }
                (fate, supplier, live)
            }
            _ => (LegFate::Moot, None, false),
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
        LegFate::Moot => {
            // A successful moot leg's bytes travelled anyway. Redundant
            // hedge traffic is the price of racing.
            if success {
                let group = world.clients.get(&cid).expect("checked above").group;
                let bytes = world.streams[stream as usize]
                    .recent_frame(dts)
                    .map_or(0, |(h, _)| h.size as u64 / 3);
                world
                    .ledger_mut(group)
                    .add(TrafficClass::BestEffortServing, bytes);
            }
            return;
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
        }
        LegFate::Lost => {}
    }
    // Exactly one logical recovery outcome per race: the winning leg's
    // success, or one failure once every leg has lost.
    let action = RecoveryAction::BestEffortPackets;
    settle_recovery(world, now, cid, dts, action, success);
}

/// Settles one logical recovery attempt on the frame at `dts`: traces
/// its outcome and retires the in-flight request if `action` still owns
/// it (a late outcome of a superseded request leaves the superseding
/// entry in flight). A success absorbs the recovered frame and prices
/// it in the ledger; a failure re-decides right away — the shrunken
/// deadline usually escalates the action (§5.3).
fn settle_recovery(
    world: &mut World,
    now: SimTime,
    cid: u64,
    dts: u64,
    action: RecoveryAction,
    success: bool,
) {
    world.trace.emit(
        now,
        Some(cid),
        TraceEvent::RecoveryOutcome {
            dts_ms: dts,
            action: action.label(),
            success,
        },
    );
    let client = world
        .clients
        .get_mut(&cid)
        .expect("settled sessions are live");
    if client.requested_recovery.get(dts).map(|(a, _)| *a) == Some(action) {
        client.requested_recovery.remove(dts);
    }
    if !success {
        control_recovery(world, now, cid);
        return;
    }
    let Some(&(header, chain)) = world.streams[client.stream as usize].recent_frame(dts) else {
        return;
    };
    client.ingest_recovered_frame(now, header, Some(&chain));
    let group = client.group;
    let (class, bytes) = match action {
        RecoveryAction::BestEffortPackets => {
            (TrafficClass::BestEffortServing, header.size as u64 / 3)
        }
        _ => (TrafficClass::DedicatedServing, header.size as u64),
    };
    world.ledger_mut(group).add(class, bytes);
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
    let header = world.streams[stream as usize]
        .recent_frame(dts)
        .map(|(h, _)| *h);
    let client = world.clients.get_mut(&cid).expect("checked above");
    client.recovery_stats.observe_retx(success);
    // Attribute the outcome to the relay sourcing the frame's substream
    // and feed the scheduler's policy window (a no-op under the static
    // policy). CDN-sourced substreams have no node to blame.
    let source_relay = match &world.clients[&cid].mode {
        ClientMode::SingleSource { relay } => Some(*relay),
        ClientMode::Multi { sources, .. } => {
            header.and_then(|h| match sources.get(world.substream_for(&h) as usize) {
                Some(SubSource::Relay(rid)) => Some(*rid),
                _ => None,
            })
        }
        ClientMode::CdnFull => None,
    };
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
    settle_recovery(world, now, cid, dts, action, success);
    match action {
        RecoveryAction::SwitchSubstream => {
            if let Some(header) = header {
                let ss = world.substream_for(&header);
                switch_substream_to_cdn(world, cid, ss);
            }
        }
        RecoveryAction::FullStream => fall_back_to_cdn(world, now, cid, "recovery_full_stream"),
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

/// Bandwidth one subscription reserves, Mbps: the base rung for
/// [`FULL_STREAM`], an even share of it for one of the K substreams.
fn subscription_mbps(world: &World, ss: u16) -> f64 {
    let full_mbps = BITRATE_LADDER[BASE_RUNG] as f64 / 1e6;
    if ss == FULL_STREAM {
        full_mbps
    } else {
        full_mbps / world.cfg.substreams as f64
    }
}

/// Subscribes `cid` to `(stream, ss)` on relay `rid`, reserving quota.
pub(crate) fn subscribe(world: &mut World, cid: u64, rid: u32, stream: u32, ss: u16) -> bool {
    let client_exists = world.clients.contains_key(&cid);
    let mbps = subscription_mbps(world, ss);
    let admitted = world
        .serve(rid)
        .subscribe(cid, stream, ss, mbps, client_exists);
    world.refile_feeder(rid, stream);
    admitted
}

/// Reverses one [`subscribe`].
pub(crate) fn unsubscribe(world: &mut World, cid: u64, rid: u32, stream: u32, ss: u16) {
    let mbps = subscription_mbps(world, ss);
    world.relays[rid as usize].unsubscribe(cid, stream, ss, mbps);
    world.refile_feeder(rid, stream);
}

/// Moves `cid`'s `ss` (or [`FULL_STREAM`]) subscription from relay
/// `from` to relay `to`: subscribes first and, only once `to` admits,
/// releases `from` and re-points the client. Returns whether it moved.
fn move_source(world: &mut World, cid: u64, ss: u16, from: u32, to: u32) -> bool {
    let stream = world.clients[&cid].stream;
    if !subscribe(world, cid, to, stream, ss) {
        return false;
    }
    unsubscribe(world, cid, from, stream, ss);
    let client = world.clients.get_mut(&cid).expect("exists");
    match &mut client.mode {
        ClientMode::Multi { sources, .. } => sources[ss as usize] = SubSource::Relay(to),
        mode => *mode = ClientMode::SingleSource { relay: to },
    }
    true
}

pub(crate) fn teardown_relay_subscriptions(world: &mut World, cid: u64) {
    let Some(client) = world.clients.get(&cid) else {
        return;
    };
    let stream = client.stream;
    match &client.mode {
        ClientMode::CdnFull => {}
        ClientMode::SingleSource { relay } => {
            let rid = *relay;
            unsubscribe(world, cid, rid, stream, FULL_STREAM);
        }
        ClientMode::Multi { sources, redundant } => {
            let sources = sources.clone();
            let redundant = redundant.clone();
            for (ss, src) in sources.iter().enumerate() {
                if let SubSource::Relay(rid) = src {
                    unsubscribe(world, cid, *rid, stream, ss as u16);
                }
            }
            for (ss, r) in redundant.iter().enumerate() {
                if let Some(rid) = r {
                    unsubscribe(world, cid, *rid, stream, ss as u16);
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
    let old = match &client.mode {
        ClientMode::Multi { sources, .. } => sources.get(ss as usize).copied(),
        _ => None,
    };
    if let Some(SubSource::Relay(rid)) = old {
        unsubscribe(world, cid, rid, stream, ss);
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
    for ss in affected {
        if ss == usize::MAX {
            // Single-source re-map: another top-tier relay, or the
            // CDN as last resort.
            let next = pick_relay_for(world, now, cid, 0);
            let subscribed = next
                .map(|rid| subscribe(world, cid, rid, stream, FULL_STREAM))
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
            if subscribe(world, cid, new_rid, stream, ss as u16) {
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
    let ss = match &client.mode {
        ClientMode::SingleSource { relay } if *relay == from => FULL_STREAM,
        // Move one substream per assessment round (gradual re-mapping
        // limits disruption).
        ClientMode::Multi { sources, .. } => {
            match sources.iter().position(|s| *s == SubSource::Relay(from)) {
                Some(ss) => ss as u16,
                None => return,
            }
        }
        _ => return,
    };
    move_source(world, cid, ss, from, to);
}

fn refresh_candidates(world: &mut World, now: SimTime, cid: u64) {
    let Some(client) = world.clients.get_mut(&cid) else {
        return;
    };
    let info = client.info;
    let k = if client.mode_policy.is_multi_source() {
        world.cfg.substreams
    } else {
        1
    };
    let top_k = world.scheduler.config().top_k;
    client.candidates.reserve(usize::from(k) * top_k);
    for substream in 0..k {
        let key = StreamKey {
            stream_id: client.stream as u64,
            substream,
        };
        client.candidates.refill(substream, |out| {
            world.scheduler.recommend_into(now, &info, key, out);
        });
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
    let client = world.clients.get_mut(&cid)?;
    let hq_only = client.mode_policy == DeliveryMode::SingleSource;
    let weak_only = world.cfg.multi_on_weak_tier && client.mode_policy.is_multi_source();
    let relays = &world.relays;
    let list = client.candidates.get(ss).unwrap_or_default();
    let ids = list.iter().map(|c| c.node).filter(|n| {
        // The §2.2 strawman extends the CDN with *only* the top-tier
        // nodes; everything else is invisible to it.
        let hq = relays
            .get(n.0 as usize)
            .map(|r| r.high_quality)
            .unwrap_or(false);
        !extra.contains(&(n.0 as u32)) && (!hq_only || hq) && (!weak_only || !hq)
    });
    let mut probes = std::mem::take(&mut world.probes);
    client.controller.probe_list(now, ids, &mut probes);
    let mut picked = None;
    for &node in &probes {
        let rid = node.0 as u32;
        if world.clients[&cid].relay_sources().any(|r| r == rid) {
            continue;
        }
        let idx = rid as usize;
        if idx >= world.relays.len() {
            continue;
        }
        world.candidate_probes += 1;
        let relay = &world.relays[idx];
        let usable = relay.online
            && relay.admits(0.75 * 1.6, 0.02, 4.0)
            && world.traversal.attempt(relay.nat, &mut world.rng);
        world.scheduler.observe_connection(now, node, usable);
        let controller = &mut world.clients.get_mut(&cid).expect("exists").controller;
        if usable {
            controller.record_success(node);
            picked = Some(rid);
            break;
        }
        world.candidate_invalid += 1;
        controller.record_failure(now, node);
    }
    world.probes = probes;
    picked
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
        world.recovery_prior.clone(),
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
            let relay = pick_relay_for(world, now, cid, 0)
                .filter(|&rid| subscribe(world, cid, rid, stream, FULL_STREAM));
            if let Some(relay) = relay {
                world.clients.get_mut(&cid).expect("exists").mode =
                    ClientMode::SingleSource { relay };
            }
            let granted = relay.is_some();
            trace_promotion(world, now, cid, granted, granted as u32, "single_source");
        }
        DeliveryMode::RLive
        | DeliveryMode::RedundantMulti
        | DeliveryMode::RLiveCentralSequencing => {
            let k = world.cfg.substreams as usize;
            let mut sources = vec![SubSource::Cdn; k];
            let mut redundant = vec![None; k];
            let mut any = false;
            let mut taken = std::mem::take(&mut world.taken);
            taken.clear();
            for ss in 0..k {
                if let Some(rid) = pick_relay_excluding(world, now, cid, ss as u16, &taken) {
                    if subscribe(world, cid, rid, stream, ss as u16) {
                        sources[ss] = SubSource::Relay(rid);
                        taken.push(rid);
                        any = true;
                    }
                }
                if mode_policy == DeliveryMode::RedundantMulti {
                    if let Some(rid2) = pick_relay_excluding(world, now, cid, ss as u16, &taken) {
                        if subscribe(world, cid, rid2, stream, ss as u16) {
                            redundant[ss] = Some(rid2);
                            taken.push(rid2);
                        }
                    }
                }
            }
            if any {
                world.clients.get_mut(&cid).expect("exists").mode =
                    ClientMode::Multi { sources, redundant };
            }
            trace_promotion(world, now, cid, any, taken.len() as u32, "multi");
            world.taken = taken;
        }
    }
}

/// Traces a promotion attempt over `relays` relays and, when granted,
/// the client's switch off CDN full-stream delivery onto mode `to`.
fn trace_promotion(
    world: &World,
    now: SimTime,
    cid: u64,
    granted: bool,
    relays: u32,
    to: &'static str,
) {
    world.trace.emit(
        now,
        Some(cid),
        TraceEvent::MultiSourcePromotion { granted, relays },
    );
    if granted {
        world.trace.emit(
            now,
            Some(cid),
            TraceEvent::ModeSwitch {
                from: "cdn_full",
                to,
                reason: "promotion",
            },
        );
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
            rlive_data::recovery::RecoveryStats::default(),
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
