//! Per-layer drivers: the benchmark's own timed loops around public
//! functions of each layer, run only in the traced pass.
//!
//! Inputs are derived from the workload's spec (node count, streams,
//! viewers, seed), never hard-wired to a workload name. Each timed loop
//! runs for [`Inputs::budget`] (0.2 s of a 20 s run), each driver inside
//! its own span. Drivers also carry the output checks that need
//! a reference: the reorder buffer against a naive `BTreeMap` model,
//! `retrieve` against `min(want, N)`, codec round trips, and the obs
//! export against a JSON parser.

use crate::results::Metric;
use crate::spans::SpanLog;
use crate::workloads::{self, Workload};
use crate::worldrun::Ops;
use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::GroupPolicy;
use rlive::{Fleet, FleetReport, WorldSpec};
use rlive_bench::perf::{alloc_snapshot, Json};
use rlive_control::adviser::EdgeAdviser;
use rlive_control::features::{
    ClientId, ClientInfo, ConnectionType, Heartbeat, NodeClass, NodeId, NodeStatus, StaticFeatures,
    StreamKey,
};
use rlive_control::registry::{AttrQuery, HashTreeRegistry};
use rlive_control::scoring::Platform;
use rlive_control::GlobalScheduler;
use rlive_data::recovery::{
    FrameState, RacingPolicy, RecoveryDecider, RecoveryPolicy, RecoveryStats,
};
use rlive_data::reorder::ReorderBuffer;
use rlive_data::sequencing::{GlobalChain, MatchResult};
use rlive_media::flv::{decode_stream, encode_file_header, encode_frame_tag, encode_tag};
use rlive_media::footprint::{ChainGenerator, LocalChain};
use rlive_media::frame::{Frame, FrameType};
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::{packetize, DataPacket, PACKET_PAYLOAD};
use rlive_media::substream::substream_of;
use rlive_sim::trace::{TraceRecord, TraceSink};
use rlive_sim::{EventQueue, MetricRegistry, SimDuration, SimRng, SimTime, SloEngine};
use rlive_workload::dsl::ScenarioProgram;
use rlive_workload::nodes::{NodePopulation, NodeSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What every driver derives its inputs from.
pub struct Inputs<'a> {
    pub workload: &'a Workload,
    /// The spec of the world the traced pass ran; its seed seeds every
    /// driver.
    pub spec: &'a WorldSpec,
    /// Length of one timed loop.
    pub budget: Duration,
}

impl<'a> Inputs<'a> {
    /// Each timed loop gets a hundredth of the run's `--seconds`.
    pub fn new(workload: &'a Workload, spec: &'a WorldSpec, seconds: f64) -> Self {
        Inputs {
            workload,
            spec,
            budget: Duration::from_secs_f64(seconds / 100.0),
        }
    }

    /// A driver-private RNG stream: the seed, salted per driver.
    fn rng(&self, salt: u64) -> SimRng {
        SimRng::new(self.spec.seed).fork(salt)
    }
}

/// Calls `batch` until `budget` is used up (at least once) and returns
/// nanoseconds per unit, where each call reports the units it did.
fn ns_per_unit(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut units = 0u64;
    loop {
        units += batch();
        let elapsed = started.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / units.max(1) as f64;
        }
    }
}

type Driver = fn(&Inputs, &mut Ops, &mut Vec<Metric>);

/// Every driver, by the layer it times.
const DRIVERS: [(&str, Driver); 11] = [
    ("driver:workload", workload_layer),
    ("driver:control.scheduler", scheduler),
    ("driver:control.registry", registry),
    ("driver:control.adviser", adviser),
    ("driver:media", media),
    ("driver:data.sequencing", sequencing),
    ("driver:data.reorder", reorder),
    ("driver:data.recovery", recovery),
    ("driver:sim.event", event_queue),
    ("driver:sim.obs", obs_and_slo),
    ("driver:core.fleet", fleet),
];

/// [`ns_per_unit`] for one short call: 64 calls between clock reads, so
/// that reading the clock does not weigh on a call of tens of
/// nanoseconds.
fn ns_per_call(budget: Duration, mut call: impl FnMut()) -> f64 {
    ns_per_unit(budget, || {
        for _ in 0..64 {
            call();
        }
        64
    })
}

/// Nanoseconds per call of a `call` that uses up its input: `make`
/// builds a fresh input off the clock, until `budget` is used up.
fn ns_per_consuming_call<T>(
    budget: Duration,
    mut make: impl FnMut() -> T,
    mut call: impl FnMut(T),
) -> f64 {
    let started = Instant::now();
    let mut on_clock = Duration::ZERO;
    let mut calls = 0u32;
    while calls == 0 || started.elapsed() < budget {
        let input = make();
        let t0 = Instant::now();
        call(input);
        on_clock += t0.elapsed();
        calls += 1;
    }
    on_clock.as_nanos() as f64 / calls as f64
}

/// Runs every driver, each in its own span.
pub fn run_all(inp: &Inputs, log: &mut SpanLog, ops: &mut Ops, out: &mut Vec<Metric>) {
    for (name, driver) in DRIVERS {
        let id = log.enter(name);
        driver(inp, ops, out);
        log.exit(id);
    }
}

// ---------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------

/// `workload.nodes.generate_s` at the workload's N, and
/// `workload.dsl.compile_us` over a checked-in fuzzer find.
fn workload_layer(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let cfg = &inp.spec.scenario.population;
    let ns = ns_per_unit(inp.budget, || {
        black_box(NodePopulation::generate(
            cfg,
            &mut SimRng::new(inp.spec.seed),
        ));
        1
    });
    out.push(Metric::new("workload.nodes.generate_s", ns / 1e9, "s"));

    const SPEC: &str = include_str!("../../tests/scenarios/storm_heavy.scn");
    let mut compiled_ok = true;
    let ns = ns_per_call(inp.budget, || {
        let compiled = ScenarioProgram::parse_spec(black_box(SPEC)).and_then(|p| p.compile());
        compiled_ok &= compiled.is_ok_and(|c| !c.schedule.is_empty());
    });
    ops.check(
        compiled_ok,
        "dsl: storm_heavy.scn must parse and compile to a schedule",
    );
    out.push(Metric::new("workload.dsl.compile_us", ns / 1e3, "us"));
}

// ---------------------------------------------------------------------
// control
// ---------------------------------------------------------------------

/// The population `World::new` generates for this spec and seed.
fn population(inp: &Inputs) -> NodePopulation {
    NodePopulation::generate(
        &inp.spec.scenario.population,
        &mut SimRng::new(inp.spec.seed),
    )
}

/// The static features `World::new` registers a node under.
fn statics_of(node: &NodeSpec) -> StaticFeatures {
    StaticFeatures {
        isp: node.isp,
        region: node.region,
        bgp_prefix: node.bgp_prefix,
        geo: node.geo,
        class: if node.high_quality {
            NodeClass::HighQuality
        } else {
            NodeClass::Normal
        },
        conn_type: ConnectionType::Cable,
        nat: node.nat,
    }
}

/// Viewers with the attribute distribution `on_client_arrival` draws,
/// each asking for one substream of one of the scenario's streams.
fn requests(inp: &Inputs, rng: &mut SimRng, n: usize) -> Vec<(ClientInfo, StreamKey)> {
    let pop = &inp.spec.scenario.population;
    (0..n as u64)
        .map(|id| {
            let region = rng.below(pop.regions as u64) as u16;
            let info = ClientInfo {
                id: ClientId(id),
                isp: rng.below(pop.isps as u64) as u16,
                region,
                bgp_prefix: region as u32 * pop.prefixes_per_region
                    + rng.below(pop.prefixes_per_region as u64) as u32,
                geo: (
                    (region % 4) as f64 * 10.0 + rng.range_f64(0.0, 10.0),
                    (region / 4) as f64 * 10.0 + rng.range_f64(0.0, 10.0),
                ),
                platform: Platform::Android,
            };
            let key = StreamKey {
                stream_id: rng.below(inp.spec.scenario.streams as u64),
                substream: rng.below(inp.spec.config.substreams as u64) as u16,
            };
            (info, key)
        })
        .collect()
}

/// Scheduler drivers.
///
/// *Cold* is the registry a fresh world has: every node registered
/// idle, nothing forwarding, so retrieval relaxes all the way to the
/// idle index and the pool is N ÷ ISPs. *Warm* is the registry the
/// criterion bench measures: enough nodes already forward the requested
/// substream in the client's ISP that retrieval stops early with a pool
/// of about `2 × want`.
fn scheduler(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let pop = population(inp);
    let n = pop.nodes.len();
    let mut rng = inp.rng(1);
    let cfg = inp.spec.config.scheduler.clone();
    let top_k = cfg.top_k;
    let want = top_k * 8;

    // register_ns: the N registrations of world construction.
    let mut sched = GlobalScheduler::new(cfg.clone(), rng.fork(1));
    let t0 = Instant::now();
    for node in &pop.nodes {
        sched.register_node(
            NodeId(node.id),
            statics_of(node),
            NodeStatus::idle(node.capacity_mbps),
        );
    }
    let register_ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
    out.push(Metric::new(
        "control.scheduler.register_ns",
        register_ns,
        "ns",
    ));

    let reqs = requests(inp, &mut rng, 256);
    let now = SimTime::from_secs(1);
    let mut next = 0usize;
    let mut full_lists = true;
    let (_, bytes0) = alloc_snapshot();
    let mut calls = 0u64;
    let cold_ns = ns_per_unit(inp.budget, || {
        let (client, key) = &reqs[next % reqs.len()];
        next += 1;
        let rec = sched.recommend(now, client, *key);
        full_lists &= rec.candidates.len() == top_k.min(n);
        black_box(rec);
        calls += 1;
        1
    });
    let (_, bytes1) = alloc_snapshot();
    ops.check(
        full_lists,
        "scheduler: a cold recommend must return min(top_k, N) candidates",
    );
    out.push(Metric::new(
        "control.scheduler.recommend_us_cold",
        cold_ns / 1e3,
        "us",
    ));
    out.push(Metric::new(
        "control.scheduler.recommend_alloc_kb_cold",
        (bytes1 - bytes0) as f64 / calls as f64 / 1024.0,
        "KB",
    ));

    // heartbeat_ns: idle heartbeats, the write the relay ticks of an
    // idle-majority world send; no forwarding change, so no re-index.
    let mut i = 0usize;
    let hb_ns = ns_per_call(inp.budget, || {
        let node = &pop.nodes[i % n];
        i += 1;
        let mut status = NodeStatus::idle(node.capacity_mbps);
        status.used_mbps = (i % 7) as f64;
        sched.ingest_heartbeat(Heartbeat {
            node: NodeId(node.id),
            at: now,
            status,
        });
    });
    out.push(Metric::new("control.scheduler.heartbeat_ns", hb_ns, "ns"));

    // Warm the registry for one key: per ISP, the first `2 × want`
    // nodes (fewer when the population is small) start forwarding it.
    let hot = StreamKey {
        stream_id: 0,
        substream: 0,
    };
    let mut per_isp: BTreeMap<u16, usize> = BTreeMap::new();
    for node in &pop.nodes {
        let seen = per_isp.entry(node.isp).or_insert(0);
        if *seen >= 2 * want {
            continue;
        }
        *seen += 1;
        let mut status = NodeStatus::idle(node.capacity_mbps);
        status.forwarding.insert(hot);
        status.used_mbps = 0.25 * node.capacity_mbps;
        sched.ingest_heartbeat(Heartbeat {
            node: NodeId(node.id),
            at: now,
            status,
        });
    }
    let mut next = 0usize;
    let warm_ns = ns_per_call(inp.budget, || {
        let (client, _) = &reqs[next % reqs.len()];
        next += 1;
        black_box(sched.recommend(now, client, hot));
    });
    out.push(Metric::new(
        "control.scheduler.recommend_us_warm",
        warm_ns / 1e3,
        "us",
    ));

    let util_ns = ns_per_call(inp.budget, || {
        black_box(sched.stream_utilization(now, black_box(hot)));
    });
    ops.check(
        sched.stream_utilization(now, hot).is_some(),
        "scheduler: the warmed key must have forwarders",
    );
    out.push(Metric::new(
        "control.scheduler.stream_utilization_us_warm",
        util_ns / 1e3,
        "us",
    ));
}

/// Registry drivers on the cold (idle-only) index of N nodes.
fn registry(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let pop = population(inp);
    let n = pop.nodes.len();
    let mut rng = inp.rng(2);
    let mut reg = HashTreeRegistry::new();
    for node in &pop.nodes {
        let s = statics_of(node);
        reg.index_node(NodeId(node.id), s.isp, s.class, s.region, []);
    }
    let want = inp.spec.config.scheduler.top_k * 8;
    let queries: Vec<AttrQuery> = requests(inp, &mut rng, 256)
        .into_iter()
        .map(|(client, key)| AttrQuery {
            stream: key,
            isp: client.isp,
            class: NodeClass::HighQuality,
            region: client.region,
        })
        .collect();

    let mut next = 0usize;
    let mut pool_total = 0u64;
    let mut calls = 0u64;
    let mut enough = true;
    let ns = ns_per_call(inp.budget, || {
        let (pool, _) = reg.retrieve(&queries[next % queries.len()], want);
        next += 1;
        enough &= pool.len() >= want.min(n);
        pool_total += pool.len() as u64;
        calls += 1;
        black_box(pool);
    });
    ops.check(
        enough,
        "registry: retrieve must return at least min(want, N) ids",
    );
    out.push(Metric::new(
        "control.registry.retrieve_us_cold",
        ns / 1e3,
        "us",
    ));
    // Attempted ÷ useful: ids collected per id asked for.
    out.push(Metric::new(
        "control.registry.pool_per_want_cold",
        pool_total as f64 / calls as f64 / want as f64,
        "ratio",
    ));

    // reindex_ns: a node starts, then stops, forwarding a substream.
    let mut i = 0usize;
    let ns = ns_per_call(inp.budget, || {
        let node = &pop.nodes[(i / 2) % n];
        let s = statics_of(node);
        let key = StreamKey {
            stream_id: (i % 8) as u64,
            substream: (i % 4) as u16,
        };
        let forwarding = i.is_multiple_of(2).then_some(key);
        i += 1;
        reg.index_node(NodeId(node.id), s.isp, s.class, s.region, forwarding);
    });
    ops.check(
        reg.len() == n,
        "registry: re-indexing must not lose or add nodes",
    );
    out.push(Metric::new("control.registry.reindex_ns", ns, "ns"));
}

/// `control.adviser.evaluate_ns`: one evaluation round of a relay with
/// the subscriber count the workload's viewer-to-node ratio implies.
fn adviser(inp: &Inputs, _ops: &mut Ops, out: &mut Vec<Metric>) {
    let mut rng = inp.rng(3);
    let cfg = inp.spec.config.adviser.clone();
    let substreams = inp.spec.config.substreams as usize;
    let subscribers =
        (inp.workload.viewers * substreams / inp.workload.nodes.max(1)).max(cfg.min_connections);
    let mut adv = EdgeAdviser::new(NodeId(1), cfg.clone());
    for _ in 0..cfg.util_window {
        adv.record_utilization(rng.range_f64(0.1, 0.9));
    }
    for c in 0..subscribers as u64 {
        adv.record_connection_qos(ClientId(c), 20.0 + rng.range_f64(0.0, 30.0));
    }
    let key = StreamKey {
        stream_id: 0,
        substream: 0,
    };
    let mut t = 0u64;
    let ns = ns_per_call(inp.budget, || {
        t += 10;
        black_box(adv.evaluate(SimTime::from_secs(t), key, Some(0.5)));
    });
    out.push(Metric::new("control.adviser.evaluate_ns", ns, "ns"));
}

// ---------------------------------------------------------------------
// media and data
// ---------------------------------------------------------------------

/// Frames of one stream, their canonical local chains, and their
/// packets in publish order.
struct StreamFixture {
    frames: Vec<Frame>,
    chains: Vec<LocalChain>,
    packets: Vec<DataPacket>,
}

/// Twenty seconds of one stream, seeded.
fn stream_fixture(inp: &Inputs) -> StreamFixture {
    let substreams = inp.spec.config.substreams;
    let frames = GopGenerator::new(1, GopConfig::default(), inp.rng(4)).take_frames(600);
    let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
    let chains: Vec<LocalChain> = frames.iter().map(|f| cg.observe(&f.header)).collect();
    let packets = frames
        .iter()
        .zip(&chains)
        .flat_map(|(f, chain)| packetize(f, substream_of(&f.header, substreams).0, chain, 1))
        .collect();
    StreamFixture {
        frames,
        chains,
        packets,
    }
}

fn media(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let fx = stream_fixture(inp);
    let frames = fx.frames.len() as u64;

    let ns = ns_per_unit(inp.budget, || {
        let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
        for f in &fx.frames {
            black_box(cg.observe(&f.header));
        }
        frames
    });
    out.push(Metric::new("media.footprint.observe_ns", ns, "ns"));

    let ns = ns_per_unit(inp.budget, || {
        for (f, chain) in fx.frames.iter().zip(&fx.chains) {
            black_box(packetize(f, 0, chain, 1));
        }
        frames
    });
    out.push(Metric::new("media.packet.packetize_ns_per_frame", ns, "ns"));

    // codec_ns: one encode + decode round trip of one packet.
    let mut next = 0usize;
    let mut round_trips = true;
    let ns = ns_per_call(inp.budget, || {
        let pkt = &fx.packets[next % fx.packets.len()];
        next += 1;
        round_trips &= DataPacket::decode(&pkt.encode()).as_ref() == Some(pkt);
    });
    ops.check(round_trips, "media.packet: decode(encode(p)) must equal p");
    out.push(Metric::new("media.packet.codec_ns", ns, "ns"));

    let mut buf = bytes::BytesMut::new();
    encode_file_header(&mut buf);
    for f in &fx.frames {
        encode_tag(&mut buf, &encode_frame_tag(&f.header));
    }
    let encoded = buf.to_vec();
    let mut all_tags = true;
    let ns_per_byte = ns_per_unit(inp.budget, || {
        all_tags &=
            decode_stream(black_box(&encoded)).is_ok_and(|tags| tags.len() == fx.frames.len());
        encoded.len() as u64
    });
    ops.check(
        all_tags,
        "media.flv: decode_stream must return one tag per frame",
    );
    // bytes/ns × 1e9 ÷ 1e6 = MB/s.
    out.push(Metric::new(
        "media.flv.decode_mb_s",
        1e3 / ns_per_byte,
        "MB/s",
    ));
}

/// `data.sequencing.chain_ns`: Algorithm 1 per frame, in order.
fn sequencing(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let fx = stream_fixture(inp);
    let mut all_linked = true;
    let ns = ns_per_unit(inp.budget, || {
        let mut gc = GlobalChain::new();
        for (f, chain) in fx.frames.iter().zip(&fx.chains) {
            gc.ingest_header(f.header);
            all_linked &= gc.ingest_chain(chain) == MatchResult::Matched;
            all_linked &= gc.pop_linked_head().is_some();
        }
        fx.frames.len() as u64
    });
    ops.check(
        all_linked,
        "sequencing: an in-order stream must link and pop every frame",
    );
    out.push(Metric::new("data.sequencing.chain_ns", ns, "ns"));
}

/// Packets without a release after which the head frame is given up —
/// longer than any retransmission delay [`lossy_schedule`] draws, so
/// only permanently lost packets cause skips.
const SKIP_AFTER_PACKETS: u32 = 250;

/// The lossy arrival schedule: about 5 % of packets are lost and arrive
/// late as retransmissions, 0.1 % are lost for good, 2 % are duplicated,
/// and everything else is reordered by up to five positions. Packet 0
/// of every frame always arrives, and the very first packet stays
/// first so the session joins at frame 0.
fn lossy_schedule(packets: &[DataPacket], rng: &mut SimRng) -> Vec<DataPacket> {
    let mut keyed: Vec<(u64, usize, &DataPacket)> = Vec::with_capacity(packets.len());
    for (i, pkt) in packets.iter().enumerate() {
        let at = i as u64;
        let draw = rng.f64();
        let arrival = if i == 0 {
            0
        } else if draw < 0.001 && pkt.packet_index > 0 {
            continue;
        } else if draw < 0.05 {
            at + 40 + rng.below(120)
        } else {
            at + rng.below(6)
        };
        keyed.push((arrival, i, pkt));
        if i > 0 && rng.chance(0.02) {
            keyed.push((arrival + 1 + rng.below(10), i, pkt));
        }
    }
    keyed.sort_by_key(|&(arrival, i, _)| (arrival, i));
    keyed.into_iter().map(|(_, _, pkt)| pkt.clone()).collect()
}

/// What one pass over a schedule released and counted.
#[derive(Debug, Default, PartialEq, Eq)]
struct ReorderOutcome {
    /// dts of every released frame, in release order.
    released: Vec<u64>,
    packets: u64,
    skipped: u64,
}

/// Feeds `schedule` to the real buffer, one packet per simulated
/// millisecond, giving up on the head frame after
/// [`SKIP_AFTER_PACKETS`] packets without a release. Returns the
/// outcome and, per packet, whether a skip followed it.
fn drive_reorder(schedule: &[DataPacket]) -> (ReorderOutcome, Vec<bool>) {
    let mut rb = ReorderBuffer::new();
    let mut outcome = ReorderOutcome::default();
    let mut skips = Vec::with_capacity(schedule.len());
    let mut starved = 0u32;
    for (t, pkt) in schedule.iter().enumerate() {
        let now = SimTime::from_millis(t as u64);
        let before = outcome.released.len();
        outcome
            .released
            .extend(rb.ingest(now, pkt).iter().map(|r| r.header.dts_ms));
        starved = if outcome.released.len() > before {
            0
        } else {
            starved + 1
        };
        let skip = starved >= SKIP_AFTER_PACKETS;
        if skip {
            outcome
                .released
                .extend(rb.skip_blocked_head(now).iter().map(|r| r.header.dts_ms));
            starved = 0;
        }
        skips.push(skip);
    }
    outcome.packets = rb.packet_count();
    outcome.skipped = rb.skipped_count();
    (outcome, skips)
}

/// The deliberately naive reference: a jitter buffer that knows the
/// frame order in advance, keeps received packet indices per frame in
/// `BTreeMap`s, and releases the next expected frame once all of its
/// packets are in. No chains, no CRCs, no rings.
///
/// It does not count duplicates: the real buffer re-opens a "ghost"
/// assembly for a duplicate that lands between a frame's completion and
/// its release and so does not count that one, a quirk the goldens pin.
fn naive_reorder(frames: &[Frame], schedule: &[DataPacket], skips: &[bool]) -> ReorderOutcome {
    let order: Vec<u64> = frames.iter().map(|f| f.header.dts_ms).collect();
    let expected: BTreeMap<u64, usize> = frames
        .iter()
        .map(|f| (f.header.dts_ms, f.packet_count(PACKET_PAYLOAD) as usize))
        .collect();
    let mut received: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    let mut next = 0usize;
    let mut outcome = ReorderOutcome::default();
    let release = |next: &mut usize, received: &mut BTreeMap<u64, BTreeSet<u32>>| {
        let mut out = Vec::new();
        while let Some(&dts) = order.get(*next) {
            if received.get(&dts).map_or(0, BTreeSet::len) < expected[&dts] {
                break;
            }
            received.remove(&dts);
            out.push(dts);
            *next += 1;
        }
        out
    };
    for (pkt, &skip) in schedule.iter().zip(skips) {
        outcome.packets += 1;
        let dts = pkt.frame.dts_ms;
        if order.get(next).is_some_and(|&head| dts >= head) {
            received.entry(dts).or_default().insert(pkt.packet_index);
        }
        outcome.released.extend(release(&mut next, &mut received));
        if skip && next < order.len() {
            received.remove(&order[next]);
            next += 1;
            outcome.skipped += 1;
            outcome.released.extend(release(&mut next, &mut received));
        }
    }
    outcome
}

fn reorder(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let fx = stream_fixture(inp);

    let mut in_order = true;
    let ns = ns_per_unit(inp.budget, || {
        let (outcome, _) = drive_reorder(&fx.packets);
        in_order &= outcome.released.len() == fx.frames.len() && outcome.skipped == 0;
        fx.packets.len() as u64
    });
    ops.check(
        in_order,
        "reorder: a lossless in-order stream must release every frame",
    );
    out.push(Metric::new("data.reorder.ingest_ns_per_pkt", ns, "ns"));

    let schedule = lossy_schedule(&fx.packets, &mut inp.rng(5));
    let ns = ns_per_unit(inp.budget, || {
        black_box(drive_reorder(&schedule));
        schedule.len() as u64
    });
    out.push(Metric::new(
        "data.reorder.ingest_ns_per_pkt_lossy",
        ns,
        "ns",
    ));

    let (real, skips) = drive_reorder(&schedule);
    let naive = naive_reorder(&fx.frames, &schedule, &skips);
    ops.check(
        real == naive,
        &format!(
            "reorder: release order and counts must equal the naive BTreeMap reference \
             (real {} released / {} packets / {} skipped, naive {} / {} / {})",
            real.released.len(),
            real.packets,
            real.skipped,
            naive.released.len(),
            naive.packets,
            naive.skipped
        ),
    );
    // Useful ÷ attempted: frames released per frame published.
    out.push(Metric::new(
        "data.reorder.release_share",
        real.released.len() as f64 / fx.frames.len() as f64,
        "ratio",
    ));
}

/// Recovery drivers over a seeded retransmission list of 16 frames.
fn recovery(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let mut rng = inp.rng(6);
    let cfg = inp.spec.config.recovery.clone();
    let states: Vec<FrameState> = (0..16u64)
        .map(|i| FrameState {
            dts_ms: 1_000 + i * 33,
            deadline: SimDuration::from_millis(40 + rng.below(900)),
            size: 3_000 + rng.below(30_000) as u32,
            missing_packets: 1 + rng.below(5) as u32,
            frame_type: match i % 8 {
                0 => FrameType::I,
                4 => FrameType::P,
                _ => FrameType::B,
            },
            substream: (i % inp.spec.config.substreams as u64) as u16,
        })
        .collect();
    let mut stats = RecoveryStats::default();
    for _ in 0..200 {
        stats.observe_retx(rng.chance(0.7));
    }
    let per_list = states.len() as u64;

    let decider = RecoveryDecider::new(cfg.clone());
    let mut one_each = true;
    let ns = ns_per_unit(inp.budget, || {
        one_each &= black_box(decider.decide(&states, &stats)).len() == states.len();
        per_list
    });
    ops.check(
        one_each,
        "recovery: decide must return one decision per frame",
    );
    out.push(Metric::new("data.recovery.decide_ns_per_frame", ns, "ns"));

    let mut racing = RacingPolicy::new(cfg);
    let sink = TraceSink::disabled();
    let suppliers = [1u64, 2, 3];
    let mut t = 0u64;
    let mut one_each = true;
    let ns = ns_per_unit(inp.budget, || {
        t += 33;
        let now = SimTime::from_millis(t);
        racing.note_attempt_outcome(now, suppliers[(t % 3) as usize], !t.is_multiple_of(5));
        let plans = racing.plan(&states, &stats, &suppliers, &sink, now, 7);
        one_each &= plans.len() == states.len() && plans.iter().all(|p| p.fanout >= 1);
        black_box(plans);
        per_list
    });
    ops.check(
        one_each,
        "recovery: the racing policy must plan every frame",
    );
    out.push(Metric::new(
        "data.recovery.racing_plan_ns_per_frame",
        ns,
        "ns",
    ));
}

// ---------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------

/// `sim.event.push_pop_ns`: the hold model at the depth a world of this
/// workload carries (one pending tick per node and per viewer) — pop
/// the earliest event, schedule one a random while later.
fn event_queue(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let mut rng = inp.rng(7);
    let depth = inp.workload.nodes + inp.workload.viewers;
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime::from_micros(rng.below(5_000_000)), i as u32);
    }
    let ns = ns_per_unit(inp.budget, || {
        for _ in 0..1024 {
            let (at, payload) = q.pop().expect("the hold model never drains");
            q.schedule(
                at + SimDuration::from_micros(1 + rng.below(5_000_000)),
                payload,
            );
        }
        1024
    });
    ops.check(
        q.len() == depth,
        "event queue: the hold model must keep its depth",
    );
    out.push(Metric::new("sim.event.push_pop_ns", ns, "ns"));
}

/// The complete trace stream of a small stormy world, captured through
/// `World::attach_trace_sink`: the storm workload at half its length
/// and half its population (less, if the workload being traced is
/// smaller still), obs off so the caller's sink is the only consumer.
fn captured_records(inp: &Inputs) -> (Vec<TraceRecord>, SimTime) {
    let mut small = *workloads::by_name("storm").expect("storm is a workload");
    small.nodes = (small.nodes / 2).min(inp.workload.nodes);
    small.viewers = (small.viewers / 2).min(inp.workload.viewers);
    small.sim_secs /= 2;
    let mut spec = small.spec(inp.spec.seed, 0);
    spec.config.obs_window_ms = 0;
    spec.config.slo_enabled = false;
    let end = SimTime::ZERO + spec.scenario.duration;
    let sink = TraceSink::unbounded();
    let mut world = spec.build();
    world.attach_trace_sink(sink.clone());
    world.run();
    (sink.snapshot(), end)
}

fn obs_and_slo(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let (records, end) = captured_records(inp);
    ops.check(
        records.len() >= 100,
        &format!(
            "obs: the capture world must emit a trace stream ({} records)",
            records.len()
        ),
    );
    let window = SimDuration::from_millis(1000);

    let ns = ns_per_unit(inp.budget, || {
        let mut reg = MetricRegistry::new(window);
        reg.ingest_all(black_box(&records));
        black_box(reg);
        records.len() as u64
    });
    out.push(Metric::new("sim.obs.ingest_ns_per_record", ns, "ns"));

    let mut filled = MetricRegistry::new(window);
    filled.ingest_all(&records);
    let windows = filled.window_of(end) + 1;
    // Sealing advances the registry's watermark, so every call gets a
    // fresh copy.
    let sealed = filled.clone().seal_until(windows);
    ops.check(
        sealed.len() as u64 == windows,
        "obs: seal_until must return every window, empty ones included",
    );
    let ns = ns_per_consuming_call(
        inp.budget,
        || filled.clone(),
        |mut reg| {
            black_box(reg.seal_until(windows));
        },
    );
    out.push(Metric::new(
        "sim.obs.seal_us_per_window",
        ns / 1e3 / windows as f64,
        "us",
    ));

    let mut parses = true;
    let mut bytes = 0usize;
    let ns_per_byte = ns_per_unit(inp.budget, || {
        let text = filled.to_jsonl();
        bytes = text.len();
        black_box(&text);
        text.len() as u64
    });
    for line in filled.to_jsonl().lines() {
        parses &= Json::parse(line).is_ok();
    }
    ops.check(
        parses && bytes > 0,
        "obs: every line of to_jsonl must parse as JSON",
    );
    out.push(Metric::new(
        "sim.obs.export_mb_s",
        1e3 / ns_per_byte,
        "MB/s",
    ));

    let ns = ns_per_unit(inp.budget, || {
        let mut engine = SloEngine::with_default_rules();
        for sw in &sealed {
            engine.observe(sw);
        }
        black_box(engine.finish());
        sealed.len() as u64
    });
    out.push(Metric::new("sim.slo.observe_ns_per_window", ns, "ns"));
}

// ---------------------------------------------------------------------
// core.fleet
// ---------------------------------------------------------------------

/// A fixed four-world mini fleet (seeds `seed..seed+4`): wall time on
/// one pool worker over wall time on two, and the fold of eight reports.
fn fleet(inp: &Inputs, ops: &mut Ops, out: &mut Vec<Metric>) {
    let mut scenario = rlive_workload::scenario::Scenario::evening_peak().scaled(0.1);
    scenario.duration = SimDuration::from_secs(30);
    scenario.streams = 2;
    let mut config = SystemConfig::for_mode(DeliveryMode::RLive);
    config.world_jobs = 1;
    config.multi_source_after = SimDuration::from_secs(5);
    config.popularity_threshold = 1;
    let seeds: Vec<u64> = (0..4).map(|d| inp.spec.seed + d).collect();
    let mini = || {
        Fleet::seeded(
            "benchmark-mini",
            &scenario,
            &config,
            &GroupPolicy::uniform(DeliveryMode::RLive),
            &seeds,
        )
    };
    let timed = |jobs: usize| {
        let t0 = Instant::now();
        let report = mini().run(jobs);
        (t0.elapsed().as_secs_f64(), report)
    };
    let (one_s, report) = timed(1);
    let (two_s, report2) = timed(2);
    ops.check(
        format!("{report:?}") == format!("{report2:?}"),
        "fleet: the folded report must not depend on the worker count",
    );
    out.push(Metric::new(
        "core.fleet.speedup_jobs2",
        one_s / two_s,
        "ratio",
    ));

    let eight: Vec<_> = report
        .worlds
        .iter()
        .chain(&report2.worlds)
        .cloned()
        .collect();
    let ns = ns_per_consuming_call(
        inp.budget,
        || eight.clone(),
        |reports| {
            black_box(FleetReport::fold(reports));
        },
    );
    out.push(Metric::new("core.fleet.fold_ms", ns / 1e6, "ms"));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive reference agrees with the real buffer on many lossy
    /// schedules — so a disagreement in a benchmark run is news.
    #[test]
    fn naive_reference_matches_the_real_buffer_on_many_seeds() {
        let w = workloads::by_name("dataplane").unwrap().smoke();
        let mut skipped = 0;
        let mut late = 0;
        for seed in 0..60 {
            let spec = w.spec(seed, 0);
            let inp = Inputs::new(&w, &spec, 0.5);
            let fx = stream_fixture(&inp);
            let schedule = lossy_schedule(&fx.packets, &mut inp.rng(5));
            assert!(
                schedule.len() > fx.packets.len(),
                "duplicates outnumber losses"
            );
            let (real, skips) = drive_reorder(&schedule);
            let naive = naive_reorder(&fx.frames, &schedule, &skips);
            assert_eq!(real, naive, "seed {seed}");
            assert!(real.released.windows(2).all(|p| p[0] < p[1]), "seed {seed}");
            skipped += real.skipped;
            late += (real.released.len() < fx.frames.len()) as u32;
        }
        assert!(skipped > 0, "no schedule lost a packet for good");
        assert!(late > 0, "no schedule left frames unreleased");
    }

    #[test]
    fn a_wrong_reference_is_noticed() {
        let w = workloads::by_name("dataplane").unwrap().smoke();
        let spec = w.spec(3, 0);
        let inp = Inputs::new(&w, &spec, 0.5);
        let fx = stream_fixture(&inp);
        let schedule = lossy_schedule(&fx.packets, &mut inp.rng(5));
        let (real, mut skips) = drive_reorder(&schedule);
        // A reference told to give up on one more frame must disagree.
        let quiet = skips.iter().position(|s| !s).unwrap();
        skips[quiet + 50] = true;
        assert_ne!(real, naive_reorder(&fx.frames, &schedule, &skips));
    }

    #[test]
    fn ns_per_unit_runs_at_least_once_and_divides_by_units() {
        let mut calls = 0;
        let ns = ns_per_unit(Duration::ZERO, || {
            calls += 1;
            1_000_000
        });
        assert_eq!(calls, 1);
        assert!(ns < 1_000.0, "{ns}");
    }
}
