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
//! Two more cover what the ring's interpolated lookup and the playback
//! buffer's pop-the-front path lean on: key sets shaped to hit both the
//! interpolation guess and its bisection fallback, and playback driven
//! by pushes (late frames included), ticks and catch-up drops.

use proptest::prelude::*;
use rlive_data::reorder::{PlaybackBuffer, ReorderBuffer};
use rlive_data::ring::SeqRing;
use rlive_data::sequencing::{GlobalChain, LinkStatus};
use rlive_media::footprint::ChainGenerator;
use rlive_media::frame::{FrameHeader, FrameType};
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

    /// The old catch-up step: the next key after the playhead leaves
    /// unpresented and becomes the playhead.
    fn drop_oldest(&mut self) -> Option<u64> {
        let next = match self.playhead_dts {
            None => self.frames.keys().next().copied(),
            Some(last) => self.frames.range(last + 1..).next().map(|(&k, _)| k),
        }?;
        self.frames.remove(&next);
        self.playhead_dts = Some(next);
        Some(next)
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

/// A key set of one skewed shape, ascending: 0 the 30 fps dts cadence
/// `round(i * 33.3)` from frame `start`; 1 runs of eight keys, the runs
/// 2^40 apart; 2 keys next to `u64::MAX` above two keys next to zero,
/// so the span overflows the interpolation and bisection answers; 3 a
/// ring of zero, one or two keys.
fn skewed_keys(shape: u8, n: u64, start: u64) -> Vec<u64> {
    match shape {
        0 => (start..start + n)
            .map(|i| (i as f64 * 33.3).round() as u64)
            .collect(),
        1 => (0..n)
            .map(|i| ((start % 4 + i / 8) << 40) + i % 8 * 3)
            .collect(),
        2 => [start % 2, 2]
            .into_iter()
            .chain((0..n).rev().map(|i| u64::MAX - (start % 8) - i * 7))
            .collect(),
        _ => (0..n % 3).map(|i| start + i * 1_000).collect(),
    }
}

/// `get`, `contains_key` and `next_after` at `key` agree.
fn reads_agree(ring: &SeqRing<u64>, map: &BTreeMap<u64, u64>, key: u64) -> bool {
    let next = key
        .checked_add(1)
        .and_then(|k| map.range(k..).next().map(|(&k, _)| k));
    ring.get(key) == map.get(&key)
        && ring.contains_key(key) == map.contains_key(&key)
        && ring.next_after(key) == next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `SeqRing` agrees with `BTreeMap` on key sets that stress the
    /// interpolated lookup: every read at each key, its neighbours and
    /// both ends of `u64` first, then random inserts, removes, reads,
    /// `retain_below` and `evict_below` at keys picked the same way.
    #[test]
    fn seqring_matches_btreemap_on_skewed_keys(
        shape in 0u8..4,
        n in 0u64..200,
        start in 0u64..100_000,
        ops in proptest::collection::vec((0u8..6, any::<u64>(), 0u64..3), 0..120),
    ) {
        let keys = skewed_keys(shape, n, start);
        let mut ring: SeqRing<u64> = SeqRing::new();
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in &keys {
            prop_assert_eq!(ring.insert(k, k), map.insert(k, k));
        }
        let near = |k: u64| [k.wrapping_sub(1), k, k.wrapping_add(1)];
        for key in keys.iter().flat_map(|&k| near(k)).chain([0, u64::MAX]) {
            prop_assert!(reads_agree(&ring, &map, key), "read at {} of {:?}", key, keys);
        }
        for (op, pick, delta) in ops {
            let base = keys.get(pick as usize % keys.len().max(1)).copied().unwrap_or(pick);
            let key = base.wrapping_add(delta).wrapping_sub(1);
            match op {
                0 => prop_assert_eq!(ring.insert(key, pick), map.insert(key, pick)),
                1 => prop_assert_eq!(ring.remove(key), map.remove(&key)),
                2 => {
                    // Keep every visited value that is even.
                    let mut visited = Vec::new();
                    ring.retain_below(key, |v| {
                        visited.push(*v);
                        *v % 2 == 0
                    });
                    let below: Vec<u64> = map.range(..key).map(|(_, &v)| v).collect();
                    prop_assert_eq!(visited, below);
                    map.retain(|&k, v| k >= key || *v % 2 == 0);
                }
                3 => {
                    let before = map.len();
                    map.retain(|&k, _| k >= key);
                    prop_assert_eq!(ring.evict_below(key), before - map.len());
                }
                _ => prop_assert!(reads_agree(&ring, &map, key), "read at {}", key),
            }
            prop_assert_eq!(ring.len(), map.len());
            prop_assert_eq!(ring.first_key(), map.keys().next().copied());
            prop_assert_eq!(ring.last_key(), map.keys().next_back().copied());
        }
        let ring_entries: Vec<(u64, u64)> = ring.iter().map(|(k, v)| (k, *v)).collect();
        let map_entries: Vec<(u64, u64)> = map.into_iter().collect();
        prop_assert_eq!(ring_entries, map_entries);
    }

    /// `PlaybackBuffer` presents, drops and stalls as the old
    /// `BTreeMap` layout did under pushes near the playhead (late and
    /// repeated frames included), ticks and catch-up drops.
    #[test]
    fn playback_matches_btree_reference_with_drops(
        ops in proptest::collection::vec((0u8..4, 0u64..12), 1..300),
    ) {
        let interval = SimDuration::from_millis(33);
        let mut ring_pb = PlaybackBuffer::new(interval, SimDuration::from_millis(400));
        let mut ref_pb = RefPlayback::new();
        ring_pb.start();
        let mut now_ms = 0;
        for (i, (op, raw)) in ops.into_iter().enumerate() {
            match op {
                0 | 1 => {
                    // Frames from four behind the playhead to seven ahead.
                    let frame = (ref_pb.playhead_dts.unwrap_or(0) / 33 + raw).saturating_sub(4);
                    let header = FrameHeader {
                        stream_id: 1,
                        dts_ms: frame * 33,
                        frame_type: FrameType::P,
                        size: 1_000,
                    };
                    ring_pb.push(header);
                    ref_pb.push(header);
                }
                2 => {
                    now_ms += 33 * (1 + raw % 3);
                    let t = SimTime::from_millis(now_ms);
                    prop_assert_eq!(ring_pb.tick(t).map(|h| h.dts_ms), ref_pb.tick(t), "tick {}", i);
                }
                _ => prop_assert_eq!(
                    ring_pb.drop_oldest().map(|h| h.dts_ms),
                    ref_pb.drop_oldest(),
                    "drop {}",
                    i
                ),
            }
            prop_assert_eq!(ring_pb.len(), ref_pb.frames.len());
            prop_assert_eq!(ring_pb.playhead(), ref_pb.playhead_dts);
        }
        prop_assert_eq!(ring_pb.rebuffer_events(), ref_pb.rebuffer_events);
        prop_assert_eq!(ring_pb.rebuffer_duration(), ref_pb.rebuffer_duration);
    }
}
