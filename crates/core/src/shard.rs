//! Sharded execution of the world event loop.
//!
//! `World::run` pops events one at a time; this module lets a maximal
//! run of consecutive *shardable* events (a [`ShardBatch`]) execute on
//! a pool of scoped worker threads and merge back so that the event
//! queue, the trace ring and every metric accumulator end up
//! byte-identical to a sequential run — for any `--world-jobs N`. The
//! design mirrors the experiment runner's claim/merge machinery
//! (`rlive_sim::runner`), applied *inside* one world.
//!
//! # Partition rule
//!
//! Only two event classes are shardable (see [`ShardClass`]): client
//! events (slice/chain ingest, playout ticks) keyed by client id, and
//! relay frame fan-out keyed by relay index — each mutates exactly one
//! actor, never draws the world RNG, and reads sibling state read-only.
//! Events of the same key go to the same shard (`key % shards`), in
//! batch order, so per-actor mutation order matches the sequential run.
//!
//! # Batch formation
//!
//! Starting from a popped shardable event, the batch extends while the
//! queue head is (a) the same instant and the same class, or (b) a
//! `ChainDelivery` extending an all-`ChainDelivery` batch (chains
//! schedule nothing, draw nothing and trace nothing, so they may even
//! span instants). A `PlayerTick` *closes* its client id: a later head
//! with the same key ends the batch, because the tick's deferred
//! recovery pass (see below) must run before that event to match the
//! sequential order. Formation always runs — even at `--world-jobs 1`
//! — so its statistics ([`crate::world::RunReport::shardable_batches`])
//! are worker-count-invariant and pin the seam in the golden tests.
//!
//! # Outboxes and deterministic merge
//!
//! Each worker runs its events against *scratch* context: a fresh event
//! queue, fresh traffic ledgers, a staging trace sink and a sentinel
//! RNG that is asserted untouched after every handler (a handler that
//! draws would silently diverge across worker counts — this makes it a
//! loud failure instead). Per event it produces an [`EventOutcome`]:
//! scheduled events in insertion order, staged trace records, ledger
//! deltas and the deferred recovery flag. The merge then walks
//! outcomes in **batch index order** and, per event: bumps the event
//! counter, absorbs staged traces into the world ring (assigning
//! `TraceRecord::seq` at merge — the ordering invariant of
//! `rlive_sim::trace`), replays scheduled events through the world
//! queue (re-assigning queue sequence numbers in insertion order), adds
//! ledger deltas, and finally runs the sub-frame recovery pass
//! (`session::control_recovery`) that a sequential run would have run
//! inside the handler. Every world-RNG draw and queue insertion thus
//! happens in exactly the sequential order, on the merge thread.

use crate::actors::client::Client;
use crate::actors::relay::{resolve_views, Relay};
use crate::actors::stream::{StreamState, SuperNode};
use crate::actors::ActorCtx;
use crate::arena::IdArena;
use crate::config::{DeliveryMode, SystemConfig};
use crate::cost::TrafficLedger;
use crate::energy::EnergyModel;
use crate::events::{Event, ShardClass, SlicePool};
use crate::session;
use crate::world::World;
use rlive_sim::obs::{time_stage, Stage};
use rlive_sim::runner::run_shards;
use rlive_sim::trace::{TraceRecord, TraceSink};
use rlive_sim::{BuildIdHasher, EventQueue, SimRng, SimTime};
use std::collections::{HashMap, HashSet};

/// Seed of the per-event sentinel RNG handed to worker-side handlers.
/// Shardable handlers must never draw from the world RNG; comparing the
/// sentinel against a pristine clone after each handler turns any draw
/// into an immediate panic rather than silent cross-worker divergence.
const SENTINEL_RNG_SEED: u64 = 0x5EED_D00D_CAFE_F00D;

/// A maximal run of consecutive shardable events popped off the queue.
/// One lives in the world and is reused batch after batch.
#[derive(Default)]
pub(crate) struct ShardBatch {
    /// The class every batch member belongs to.
    pub class: ShardClass,
    /// `(at, event)` in pop order. All at one instant, except for
    /// all-`ChainDelivery` runs which may span instants.
    pub events: Vec<(SimTime, Event)>,
    /// Clients whose `PlayerTick` is in the batch (formation scratch).
    ticked: HashSet<u64, BuildIdHasher>,
}

/// Everything one worker-side handler produced, merged in batch order.
#[derive(Default)]
struct EventOutcome {
    /// Events the handler scheduled, in insertion order.
    scheduled: Vec<(SimTime, Event)>,
    /// Trace records the handler staged (empty when tracing is off).
    traces: Vec<TraceRecord>,
    /// Client id whose sub-frame recovery pass must run at merge.
    recover: Option<u64>,
    /// Control-group traffic charged by the handler.
    control_delta: TrafficLedger,
    /// Test-group traffic charged by the handler.
    test_delta: TrafficLedger,
}

impl World {
    /// Extends `first` (already popped, shardable, at `now`) into the
    /// maximal batch per the formation rule in the module docs.
    pub(crate) fn form_batch(
        &mut self,
        now: SimTime,
        first: Event,
        class: ShardClass,
    ) -> ShardBatch {
        let central_world = matches!(self.cfg.mode, DeliveryMode::RLiveCentralSequencing);
        let mut all_chains = matches!(first, Event::ChainDelivery { .. });
        let mut batch = std::mem::take(&mut self.batch);
        batch.class = class;
        batch.ticked.clear();
        if let Event::PlayerTick { client } = first {
            batch.ticked.insert(client);
        }
        batch.events.push((now, first));
        loop {
            let extends = match self.queue.peek() {
                None => false,
                Some((at, head)) => {
                    let same_instant = at == now && head.shard_class(central_world) == Some(class);
                    let chain_run = all_chains && matches!(head, Event::ChainDelivery { .. });
                    at <= self.end_at
                        && (same_instant || chain_run)
                        && !(class == ShardClass::Client
                            && batch.ticked.contains(&head.shard_key()))
                }
            };
            if !extends {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked event vanished");
            if let Event::PlayerTick { client } = event {
                batch.ticked.insert(client);
            }
            if !matches!(event, Event::ChainDelivery { .. }) {
                all_chains = false;
            }
            batch.events.push((at, event));
        }
        batch
    }

    /// Executes a formed batch: inline (the sequential reference path,
    /// provably identical to the plain pop loop) when the pool is off
    /// or the batch is too small to pay for thread spawns, sharded
    /// otherwise — with the deterministic merge either way producing
    /// identical post-batch world state.
    pub(crate) fn execute_batch(&mut self, mut batch: ShardBatch) {
        if self.world_jobs <= 1 || batch.events.len() < self.shard_min_batch {
            // Batch order is pop order, so the last event carries the
            // batch's maximum instant (chain runs may span instants).
            let last_at = batch.events.last().map(|(at, _)| *at);
            for (at, event) in batch.events.drain(..) {
                self.handle(at, event);
            }
            self.batch = batch;
            if let Some(at) = last_at {
                self.obs_advance(at);
            }
            return;
        }
        let ats: Vec<SimTime> = batch.events.iter().map(|(at, _)| *at).collect();
        let kinds: Vec<usize> = batch.events.iter().map(|(_, e)| e.kind_index()).collect();
        let per_shard = {
            let _span = time_stage(Stage::ShardExecute);
            match batch.class {
                ShardClass::Client => self.shard_client_batch(batch.events),
                ShardClass::RelayFrame => self.shard_relay_batch(batch.events),
            }
        };
        // Sealing watermark for the obs pump: each shard's maximum
        // handled instant, min-merged across shards — a window seals
        // only once *every* shard has advanced past it. (The fork-join
        // above means all shards are complete here, so the min is a
        // conservative bound; it matters the moment execution overlaps
        // the merge.)
        let watermark = shard_watermark(&per_shard, &ats);
        let slots = slot_outcomes(ats.len(), per_shard);
        {
            let _merge_span = time_stage(Stage::ShardMerge);
            for (i, slot) in slots.into_iter().enumerate() {
                let outcome = slot.expect("every sharded event produces an outcome");
                self.event_counts[kinds[i]] += 1;
                self.trace.absorb(outcome.traces);
                for (at, event) in outcome.scheduled {
                    self.queue.schedule(at, event);
                }
                self.control_traffic.merge(&outcome.control_delta);
                self.test_traffic.merge(&outcome.test_delta);
                // The sequential run fires the sub-frame recovery pass
                // inside the tick handler; here it runs on the merge
                // thread, same position in the event order, so its RNG
                // draws, schedules and trace emissions line up exactly.
                if let Some(cid) = outcome.recover {
                    session::control_recovery(self, ats[i], cid);
                }
            }
        }
        if let Some(at) = watermark {
            self.obs_advance(at);
        }
    }

    /// Runs a client-class batch on the worker pool. Returns per-shard
    /// `(batch index, outcome)` lists.
    fn shard_client_batch(
        &mut self,
        events: Vec<(SimTime, Event)>,
    ) -> Vec<Vec<(usize, EventOutcome)>> {
        let n = events.len();
        let nshards = self.world_jobs.min(n).max(1);
        let mut shard_events: Vec<Vec<(usize, SimTime, Event)>> =
            (0..nshards).map(|_| Vec::new()).collect();
        let mut needed: HashSet<u64> = HashSet::new();
        for (i, (at, event)) in events.into_iter().enumerate() {
            let key = event.shard_key();
            needed.insert(key);
            // Partition by the client's arena slot index — allocation-
            // stable and id-hash-free. Departed clients (no handle) go
            // to shard 0, whose worker early-returns on the miss.
            let shard = self
                .clients
                .handle_of(key)
                .map(|h| h.index as usize % nshards)
                .unwrap_or(0);
            shard_events[shard].push((i, at, event));
        }
        let mut shard_clients: Vec<HashMap<u64, &mut Client>> =
            (0..nshards).map(|_| HashMap::new()).collect();
        for (cid, h, client) in self.clients.iter_mut_handles() {
            if needed.contains(&cid) {
                shard_clients[h.index as usize % nshards].insert(cid, client);
            }
        }
        let streams = &self.streams;
        let cfg = &self.cfg;
        let energy_model = &self.energy_model;
        let end_at = self.end_at;
        let sink = &self.trace;
        let work: Vec<_> = shard_events.into_iter().zip(shard_clients).collect();
        run_shards(work, |(events, mut clients)| {
            run_client_shard(
                events,
                &mut clients,
                streams,
                cfg,
                energy_model,
                end_at,
                sink,
            )
        })
    }

    /// Runs a relay-frame batch on the worker pool. Returns per-shard
    /// `(batch index, outcome)` lists.
    fn shard_relay_batch(
        &mut self,
        events: Vec<(SimTime, Event)>,
    ) -> Vec<Vec<(usize, EventOutcome)>> {
        let n = events.len();
        let nshards = self.world_jobs.min(n).max(1);
        let mut shard_events: Vec<Vec<(usize, SimTime, Event)>> =
            (0..nshards).map(|_| Vec::new()).collect();
        let mut needed: HashSet<u64> = HashSet::new();
        for (i, (at, event)) in events.into_iter().enumerate() {
            let key = event.shard_key();
            needed.insert(key);
            shard_events[(key % nshards as u64) as usize].push((i, at, event));
        }
        let mut shard_relays: Vec<HashMap<u32, &mut Relay>> =
            (0..nshards).map(|_| HashMap::new()).collect();
        for (rid, relay) in self.relays.iter_mut().enumerate() {
            if needed.contains(&(rid as u64)) {
                shard_relays[(rid as u64 % nshards as u64) as usize].insert(rid as u32, relay);
            }
        }
        let streams = &self.streams;
        let clients = &self.clients;
        let cfg = &self.cfg;
        let energy_model = &self.energy_model;
        let end_at = self.end_at;
        let work: Vec<_> = shard_events.into_iter().zip(shard_relays).collect();
        run_shards(work, |(events, mut relays)| {
            run_relay_shard(
                events,
                &mut relays,
                clients,
                streams,
                cfg,
                energy_model,
                end_at,
            )
        })
    }
}

/// The sealing watermark one executed batch contributes: each shard's
/// maximum handled instant, min-merged across the shards that did any
/// work — the shard-merge-safety half of the obs watermark contract ("a
/// window seals only when all shards have advanced past it").
fn shard_watermark(per_shard: &[Vec<(usize, EventOutcome)>], ats: &[SimTime]) -> Option<SimTime> {
    per_shard
        .iter()
        .filter(|shard| !shard.is_empty())
        .filter_map(|shard| shard.iter().map(|(i, _)| ats[*i]).max())
        .min()
}

/// Re-slots per-shard `(batch index, outcome)` pairs into batch order.
fn slot_outcomes(
    n: usize,
    per_shard: Vec<Vec<(usize, EventOutcome)>>,
) -> Vec<Option<EventOutcome>> {
    let mut slots: Vec<Option<EventOutcome>> = (0..n).map(|_| None).collect();
    for shard in per_shard {
        for (i, outcome) in shard {
            slots[i] = Some(outcome);
        }
    }
    slots
}

/// Worker body for one client-class shard: runs each event against its
/// `&mut Client` with scratch context and collects per-event outboxes.
fn run_client_shard(
    events: Vec<(usize, SimTime, Event)>,
    clients: &mut HashMap<u64, &mut Client>,
    streams: &[StreamState],
    cfg: &SystemConfig,
    energy_model: &EnergyModel,
    end_at: SimTime,
    sink: &TraceSink,
) -> Vec<(usize, EventOutcome)> {
    let sentinel = SimRng::new(SENTINEL_RNG_SEED);
    let mut slices = SlicePool::default();
    let mut out = Vec::with_capacity(events.len());
    for (idx, at, event) in events {
        let cid = event.shard_key();
        let mut outcome = EventOutcome::default();
        let Some(client) = clients.get_mut(&cid) else {
            // Departed client: the sequential handler early-returns; the
            // merge still bumps the event counter.
            out.push((idx, outcome));
            continue;
        };
        let mut rng = sentinel.clone();
        let mut queue = EventQueue::new();
        let staging = if sink.is_enabled() {
            // Re-point the client's emitters at a private staging
            // buffer so concurrent emission order stays invisible; the
            // merge absorbs buffers in batch order.
            let staging = TraceSink::staging();
            client.reorder.set_trace_sink(cid, staging.clone());
            staging
        } else {
            TraceSink::disabled()
        };
        let mut ctx = ActorCtx {
            now: at,
            end_at,
            cfg,
            rng: &mut rng,
            queue: &mut queue,
            slices: &mut slices,
            energy_model,
            control_traffic: &mut outcome.control_delta,
            test_traffic: &mut outcome.test_delta,
        };
        match event {
            Event::ClientSlice(d) => client.ingest_slice(&mut ctx, &d),
            Event::ChainDelivery { stream, dts, .. } => {
                if let Some((_, chain)) = streams[stream as usize].recent_frame(dts) {
                    client.ingest_chain(&mut ctx, chain);
                }
            }
            Event::PlayerTick { .. } => {
                let stream_epoch = streams[client.stream as usize].epoch;
                if client.player_tick(&mut ctx, stream_epoch) {
                    outcome.recover = Some(cid);
                }
            }
            other => unreachable!("{} event in a client shard", other.kind()),
        }
        if sink.is_enabled() {
            client.reorder.set_trace_sink(cid, sink.clone());
            outcome.traces = staging.drain();
        }
        assert_eq!(
            rng, sentinel,
            "client-class handler drew the world RNG on a worker thread; \
             this event kind must not be shardable (see Event::shard_class)"
        );
        outcome.scheduled = queue.drain_ordered();
        out.push((idx, outcome));
    }
    out
}

/// Worker body for one relay-frame shard: resolves subscriber views
/// against the read-only client table (exactly as the sequential
/// router does) and forwards each frame with scratch context.
fn run_relay_shard(
    events: Vec<(usize, SimTime, Event)>,
    relays: &mut HashMap<u32, &mut Relay>,
    clients: &IdArena<Client>,
    streams: &[StreamState],
    cfg: &SystemConfig,
    energy_model: &EnergyModel,
    end_at: SimTime,
) -> Vec<(usize, EventOutcome)> {
    let sentinel = SimRng::new(SENTINEL_RNG_SEED);
    let mut slices = SlicePool::default();
    let mut out = Vec::with_capacity(events.len());
    for (idx, at, event) in events {
        let Event::RelayFrame { relay, stream, dts } = event else {
            unreachable!("{} event in a relay shard", event.kind());
        };
        let mut outcome = EventOutcome::default();
        let (Some(&(header, chain)), Some(r)) = (
            streams[stream as usize].recent_frame(dts),
            relays.get_mut(&relay),
        ) else {
            out.push((idx, outcome));
            continue;
        };
        if !r.online {
            out.push((idx, outcome));
            continue;
        }
        let ss = cfg.partition.assign(&header, cfg.substreams).0;
        // This path only runs when the world is NOT centrally
        // sequenced (Event::shard_class gates it), so `super_chain` is
        // false for every view and the scratch super node is never
        // consulted — central-sequencing chains draw the world RNG and
        // stay on the sequential path.
        let mut views = Vec::new();
        resolve_views(r, clients, (stream, ss, chain), false, &mut views);
        let mut rng = sentinel.clone();
        let mut queue = EventQueue::new();
        let mut scratch_super = SuperNode::new();
        let mut ctx = ActorCtx {
            now: at,
            end_at,
            cfg,
            rng: &mut rng,
            queue: &mut queue,
            slices: &mut slices,
            energy_model,
            control_traffic: &mut outcome.control_delta,
            test_traffic: &mut outcome.test_delta,
        };
        r.forward_frame(
            &mut ctx,
            header,
            stream,
            dts,
            ss,
            &views,
            &mut scratch_super,
            streams.len(),
        );
        assert_eq!(
            rng, sentinel,
            "relay fan-out drew the world RNG on a worker thread; \
             this delivery mode must not be shardable (see Event::shard_class)"
        );
        outcome.scheduled = queue.drain_ordered();
        out.push((idx, outcome));
    }
    out
}

// Compile-time pins of the snapshot seam: workers share these types by
// reference across threads (`Sync`) and own `&mut` actor partitions
// (`Send`). A field that introduces interior mutability or thread
// affinity fails the build here, not as heisen-divergence at runtime.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<StreamState>();
    assert_sync::<SystemConfig>();
    assert_sync::<EnergyModel>();
    assert_sync::<Client>();
    assert_sync::<IdArena<Client>>();
    assert_sync::<TraceSink>();
    assert_send::<Client>();
    assert_send::<Relay>();
    assert_send::<Event>();
};
