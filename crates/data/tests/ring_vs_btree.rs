//! Differential tests: the `SeqRing`-backed reorder/playback path vs a
//! test-only reference built on the `BTreeMap` layout it replaced.
//!
//! The reference below is the data plane's *old* storage scheme —
//! sequence-keyed `BTreeMap`s plus a per-dts substream side table —
//! re-implemented verbatim. Both implementations consume identical
//! packet schedules (loss, duplication, arbitrary reordering) and must
//! produce identical release orders and identical stall accounting;
//! a second property pins `SeqRing` against `BTreeMap` directly under
//! random operation sequences with keys near the `u64` wrap boundary.

use proptest::prelude::*;
use rlive_data::reorder::{PlaybackBuffer, ReorderBuffer};
use rlive_data::ring::SeqRing;
use rlive_data::sequencing::{GlobalChain, LinkStatus};
use rlive_media::footprint::ChainGenerator;
use rlive_media::frame::FrameHeader;
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::{packetize, DataPacket, PACKET_PAYLOAD};
use rlive_media::substream::substream_of;
use rlive_sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Reference implementation: the old BTreeMap-based reorder buffer
// ---------------------------------------------------------------------

/// Per-frame assembly state, as the old layout kept it (a set of packet
/// indices; here a `BTreeMap<u32, ()>` stands in for the `HashSet` —
/// same membership semantics, deterministic).
struct RefAssembly {
    header: FrameHeader,
    expected: u32,
    received: BTreeMap<u32, ()>,
    max_seen: u32,
}

/// The old reorder layout: four sequence-keyed `BTreeMap`s around the
/// (shared, unchanged) `GlobalChain`.
struct RefReorder {
    assembling: BTreeMap<u64, RefAssembly>,
    substream_of: BTreeMap<u64, u16>,
    complete: BTreeMap<u64, FrameHeader>,
    chain: GlobalChain,
    duplicates: u64,
    packets: u64,
    released_watermark: Option<u64>,
}

impl RefReorder {
    fn new() -> Self {
        RefReorder {
            assembling: BTreeMap::new(),
            substream_of: BTreeMap::new(),
            complete: BTreeMap::new(),
            chain: GlobalChain::new(),
            duplicates: 0,
            packets: 0,
            released_watermark: None,
        }
    }

    fn ingest(&mut self, pkt: &DataPacket) -> Vec<u64> {
        self.packets += 1;
        let dts = pkt.frame.dts_ms;
        if self.released_watermark.map(|w| dts <= w).unwrap_or(false) {
            self.duplicates += 1;
            return Vec::new();
        }
        self.chain.ingest_header(pkt.frame);
        self.chain.ingest_chain(&pkt.chain);
        self.substream_of.insert(dts, pkt.substream);
        let asm = self.assembling.entry(dts).or_insert_with(|| RefAssembly {
            header: pkt.frame,
            expected: pkt.packet_count,
            received: BTreeMap::new(),
            max_seen: 0,
        });
        if asm.received.insert(pkt.packet_index, ()).is_some() {
            self.duplicates += 1;
        }
        asm.max_seen = asm.max_seen.max(pkt.packet_index);
        if asm.received.len() as u32 >= asm.expected {
            let header = asm.header;
            self.assembling.remove(&dts);
            self.complete.insert(dts, header);
        }
        self.release()
    }

    fn release(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((fp, status)) = self.chain.head() {
            if status != LinkStatus::Linked || !self.complete.contains_key(&fp.dts_ms) {
                break;
            }
            self.complete.remove(&fp.dts_ms);
            self.chain.pop_linked_head();
            self.substream_of.remove(&fp.dts_ms);
            self.released_watermark = Some(fp.dts_ms);
            out.push(fp.dts_ms);
        }
        out
    }

    fn blocked_complete(&self) -> usize {
        self.complete.len()
    }

    fn assembling_count(&self) -> usize {
        self.assembling.len()
    }
}

/// The old playback layout: a `BTreeMap<u64, FrameHeader>` drained by
/// range scans, with the same stall bookkeeping.
struct RefPlayback {
    frames: BTreeMap<u64, FrameHeader>,
    playhead_dts: Option<u64>,
    rebuffer_events: u64,
    rebuffer_duration: SimDuration,
    stalled_since: Option<SimTime>,
}

impl RefPlayback {
    fn new() -> Self {
        RefPlayback {
            frames: BTreeMap::new(),
            playhead_dts: None,
            rebuffer_events: 0,
            rebuffer_duration: SimDuration::ZERO,
            stalled_since: None,
        }
    }

    fn push(&mut self, header: FrameHeader) {
        if self
            .playhead_dts
            .map(|p| header.dts_ms <= p)
            .unwrap_or(false)
        {
            return;
        }
        self.frames.insert(header.dts_ms, header);
    }

    fn tick(&mut self, now: SimTime) -> Option<u64> {
        let next = match self.playhead_dts {
            None => self.frames.keys().next().copied(),
            Some(last) => self.frames.range(last + 1..).next().map(|(&k, _)| k),
        };
        match next {
            Some(dts) => {
                if let Some(since) = self.stalled_since.take() {
                    self.rebuffer_duration += now.saturating_since(since);
                }
                self.frames.remove(&dts);
                let stale: Vec<u64> = self.frames.range(..dts).map(|(&k, _)| k).collect();
                for k in stale {
                    self.frames.remove(&k);
                }
                self.playhead_dts = Some(dts);
                Some(dts)
            }
            None => {
                if self.stalled_since.is_none() {
                    self.stalled_since = Some(now);
                    self.rebuffer_events += 1;
                }
                None
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packet schedule generation
// ---------------------------------------------------------------------

/// Builds a stream's packets (flattened) with canonical chains.
fn stream_packets(n: usize, seed: u64) -> Vec<DataPacket> {
    let mut gen = GopGenerator::new(9, GopConfig::default(), SimRng::new(seed));
    let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
    gen.take_frames(n)
        .into_iter()
        .flat_map(|f| {
            let chain = cg.observe(&f.header);
            let ss = substream_of(&f.header, 4).0;
            packetize(&f, ss, &chain, 0)
        })
        .collect()
}

/// Applies loss, duplication, and reordering to a packet schedule. The
/// first frame's first packet is kept in front so both implementations
/// anchor the session at the same join point.
fn perturb(
    packets: Vec<DataPacket>,
    loss_mask: u64,
    dup_mask: u64,
    shuffle_seed: u64,
) -> Vec<DataPacket> {
    let mut out = Vec::new();
    for (i, p) in packets.into_iter().enumerate() {
        if i > 0 && (loss_mask >> (i % 64)) & 1 == 1 {
            continue; // lost
        }
        if (dup_mask >> (i % 64)) & 1 == 1 {
            out.push(p.clone()); // duplicated
        }
        out.push(p);
    }
    // Deterministic Fisher–Yates over everything after the anchor.
    let mut rng = SimRng::new(shuffle_seed);
    for i in (2..out.len()).rev() {
        let j = 1 + (rng.below(i as u64) as usize);
        out.swap(i, j);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identical packet schedules (with loss, duplication, reordering)
    /// must produce identical release orders, identical occupancy
    /// counters, and identical stall accounting downstream.
    #[test]
    fn ring_reorder_matches_btree_reference(
        seed in 0u64..200,
        loss_mask in any::<u64>(),
        dup_mask in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        let schedule = perturb(stream_packets(20, seed), loss_mask, dup_mask, shuffle_seed);

        let mut ring_rb = ReorderBuffer::new();
        let mut ref_rb = RefReorder::new();
        let interval = SimDuration::from_millis(33);
        let mut ring_pb = PlaybackBuffer::new(interval, SimDuration::from_millis(400));
        let mut ref_pb = RefPlayback::new();
        ring_pb.start();

        let mut now_ms = 0u64;
        for (i, pkt) in schedule.iter().enumerate() {
            let now = SimTime::from_millis(now_ms);
            let ring_released: Vec<u64> = ring_rb
                .ingest(now, pkt)
                .iter()
                .map(|r| r.header.dts_ms)
                .collect();
            let ref_released = ref_rb.ingest(pkt);
            prop_assert_eq!(&ring_released, &ref_released, "release order diverged at packet {}", i);
            for r in ring_rb.drain_ready(now) {
                // drain_ready after ingest must be a no-op for both.
                prop_assert!(false, "unexpected late release {}", r.header.dts_ms);
            }
            for dts in ring_released {
                let header = *schedule.iter().find(|p| p.frame.dts_ms == dts).map(|p| &p.frame).expect("released frame was scheduled");
                ring_pb.push(header);
                ref_pb.push(header);
            }
            // Tick playback every few packets so stalls interleave with
            // arrivals.
            if i % 3 == 2 {
                now_ms += 33;
                let t = SimTime::from_millis(now_ms);
                let ring_tick = ring_pb.tick(t).map(|h| h.dts_ms);
                let ref_tick = ref_pb.tick(t);
                prop_assert_eq!(ring_tick, ref_tick, "playback diverged at packet {}", i);
            }
            now_ms += 1;
        }

        prop_assert_eq!(ring_rb.blocked_complete(), ref_rb.blocked_complete());
        prop_assert_eq!(ring_rb.assembling_count(), ref_rb.assembling_count());
        prop_assert_eq!(ring_rb.duplicate_count(), ref_rb.duplicates);
        prop_assert_eq!(ring_rb.packet_count(), ref_rb.packets);
        prop_assert_eq!(ring_pb.rebuffer_events(), ref_pb.rebuffer_events);
        prop_assert_eq!(ring_pb.rebuffer_duration(), ref_pb.rebuffer_duration);
        prop_assert_eq!(ring_pb.playhead(), ref_pb.playhead_dts);
        prop_assert_eq!(ring_pb.len(), ref_pb.frames.len());
    }

    /// `SeqRing` must agree with `BTreeMap` on every operation outcome
    /// and on iteration order, for arbitrary key sets — including keys
    /// straddling the `u64` wrap boundary (both sides order by plain
    /// `u64`, so near-MAX keys sort after near-zero keys identically).
    #[test]
    fn seqring_matches_btreemap_ops(
        ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<u32>()), 1..200),
        near_max in any::<bool>(),
    ) {
        let mut ring: SeqRing<u32> = SeqRing::new();
        let mut map: BTreeMap<u64, u32> = BTreeMap::new();
        for (op, raw_key, val) in ops {
            // Half the runs press keys up against u64::MAX to exercise
            // wrap-adjacent indexing.
            let key = if near_max { u64::MAX.wrapping_sub(raw_key % 512) } else { raw_key % 512 };
            match op {
                0 => {
                    prop_assert_eq!(ring.insert(key, val), map.insert(key, val));
                }
                1 => {
                    prop_assert_eq!(ring.remove(key), map.remove(&key));
                }
                2 => {
                    prop_assert_eq!(ring.get(key), map.get(&key));
                    prop_assert_eq!(ring.contains_key(key), map.contains_key(&key));
                }
                3 => {
                    prop_assert_eq!(
                        ring.next_after(key),
                        map.range(key.saturating_add(1)..).next().map(|(&k, _)| k)
                    );
                    // saturating_add(1) differs from the ring only at
                    // key == u64::MAX, where both yield None.
                    if key == u64::MAX {
                        prop_assert_eq!(ring.next_after(key), None);
                    }
                }
                4 => {
                    // Visit the prefix below `key` in order, bump every
                    // value and keep the odd ones.
                    let mut visited = Vec::new();
                    ring.retain_below(key, |v| {
                        visited.push(*v);
                        *v = v.wrapping_add(1);
                        *v % 2 == 1
                    });
                    let prefix: Vec<u32> = map.range(..key).map(|(_, &v)| v).collect();
                    prop_assert_eq!(visited, prefix);
                    map.iter_mut().filter(|(&k, _)| k < key).for_each(|(_, v)| *v = v.wrapping_add(1));
                    map.retain(|&k, v| k >= key || *v % 2 == 1);
                }
                _ => {
                    let evicted = ring.evict_below(key);
                    let before = map.len();
                    map.retain(|&k, _| k >= key);
                    prop_assert_eq!(evicted, before - map.len());
                }
            }
            prop_assert_eq!(ring.len(), map.len());
            prop_assert_eq!(ring.first_key(), map.keys().next().copied());
            prop_assert_eq!(ring.last_key(), map.keys().next_back().copied());
        }
        let ring_entries: Vec<(u64, u32)> = ring.iter().map(|(k, v)| (k, *v)).collect();
        let map_entries: Vec<(u64, u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(ring_entries, map_entries, "iteration order must be identical");
    }
}

/// Before the bound the ring doubles as it would on its own; the growth
/// that would overshoot the bound stops at it.
#[test]
fn reserve_within_doubles_up_to_the_bound() {
    let mut ring: SeqRing<u64> = SeqRing::new();
    let mut capacities = Vec::new();
    for k in 0..37u64 {
        ring.reserve_within(37);
        ring.insert(k, k);
        if capacities.last() != Some(&ring.capacity()) {
            capacities.push(ring.capacity());
        }
    }
    assert_eq!(capacities, vec![4, 8, 16, 32, 37]);
}
