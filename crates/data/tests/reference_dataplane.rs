//! Reference-model differential for the O(1), allocation-free data
//! plane: `mod reference` at the bottom is the parent commit's
//! `GlobalChain` and `ReorderBuffer`, kept verbatim (import paths aside).
//! Both sides consume identical schedules — loss, duplication,
//! reordering, late retransmissions, whole-frame recoveries, slices with
//! and without chains, and deadline head skips — and after every step
//! must agree on release order, `missing_chain_frames`,
//! `incomplete_frames`, `mismatched_count`, `duplicate_count` and
//! `packet_count`. A second property drives the two `GlobalChain`s
//! directly with out-of-order headers, chains, pops and forced pops.
//!
//! What changed underneath and must not show: announcements at or below
//! the release watermark are no longer recorded and passed ones are
//! popped; a pooled chain wholly at or below the consumed head is
//! answered `Deferred` in O(1) while the chain is non-empty; released
//! frames are lent from one buffer; a slice is a `PacketSet`.

use proptest::prelude::*;
use rlive_data::reorder::{PacketSet, ReorderBuffer};
use rlive_data::sequencing::GlobalChain;
use rlive_media::footprint::{ChainGenerator, LocalChain};
use rlive_media::frame::FrameHeader;
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::{packetize, DataPacket, PACKET_PAYLOAD};
use rlive_media::substream::substream_of;
use rlive_sim::{SimDuration, SimRng, SimTime};

/// One frame of the stream: header, canonical chain, packets.
struct Frame {
    header: FrameHeader,
    chain: LocalChain,
    packets: Vec<DataPacket>,
}

fn stream(n: usize, seed: u64) -> Vec<Frame> {
    let mut gen = GopGenerator::new(9, GopConfig::default(), SimRng::new(seed));
    let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
    gen.take_frames(n)
        .into_iter()
        .map(|f| {
            let chain = cg.observe(&f.header);
            let packets = packetize(&f, substream_of(&f.header, 4).0, &chain, 0);
            Frame {
                header: f.header,
                chain,
                packets,
            }
        })
        .collect()
}

/// One input to both buffers.
#[derive(Debug, Clone)]
enum Step {
    /// Per-packet ingest of `(frame, packet)`.
    Packet(usize, usize),
    /// One slice of a frame; `true` when it carries the chain.
    Slice(usize, Vec<u32>, bool),
    /// A whole frame recovered from a dedicated node.
    Whole(usize),
    /// The player gives up on the blocked head.
    Skip,
    /// The clock jumps ahead (ms).
    Wait(u64),
}

/// A seeded schedule over `frames`: each frame arrives per packet or as
/// one slice; some frames are lost whole (chains still announce them);
/// lost packets mostly come back late as retransmissions, some are
/// duplicated, everything is jittered, and whole-frame recoveries, head
/// skips and clock jumps are sprinkled in. A flush of skips ends it.
fn schedule(frames: &[Frame], loss: f64, rng: &mut SimRng) -> Vec<Step> {
    let mut keyed: Vec<(u64, usize, Step)> = Vec::new();
    let mut push = |at: u64, step: Step| {
        let n = keyed.len();
        keyed.push((at, n, step));
    };
    for (f, frame) in frames.iter().enumerate() {
        let base = f as u64 * 8;
        let slice = rng.chance(0.3);
        let dropped = rng.chance(0.08);
        let mut kept = Vec::new();
        for p in 0..frame.packets.len() {
            let at = base + p as u64;
            if dropped || rng.chance(loss) {
                if rng.chance(0.8) {
                    push(at + 40 + rng.below(200), Step::Packet(f, p));
                }
                continue;
            }
            if slice {
                kept.push(p as u32);
            } else {
                push(at + rng.below(12), Step::Packet(f, p));
            }
            if rng.chance(0.05) {
                push(at + 1 + rng.below(30), Step::Packet(f, p));
            }
        }
        if slice {
            push(base + rng.below(12), Step::Slice(f, kept, rng.chance(0.8)));
        }
        if rng.chance(if dropped { 0.5 } else { 0.04 }) {
            push(base + 20 + rng.below(150), Step::Whole(f));
        }
        if rng.chance(0.08) {
            push(base + rng.below(40), Step::Skip);
        }
        if rng.chance(0.03) {
            push(base + rng.below(40), Step::Wait(50 + rng.below(400)));
        }
    }
    keyed.sort_by_key(|&(at, n, _)| (at, n));
    let mut steps: Vec<Step> = keyed.into_iter().map(|(_, _, step)| step).collect();
    // The player gives up on whatever is still blocked, frame by frame.
    for _ in frames {
        steps.extend([Step::Wait(100), Step::Skip]);
    }
    steps
}

/// Runs `steps` through the new buffer and the reference, comparing
/// everything observable after every step.
fn differential(frames: &[Frame], steps: &[Step]) -> Result<(), TestCaseError> {
    let mut new = ReorderBuffer::new();
    let mut old = reference::ReorderBuffer::new();
    let timeout = SimDuration::from_millis(60);
    let mut now_ms = 0;
    let dts = |released: &[rlive_data::reorder::ReadyFrame]| {
        released.iter().map(|r| r.header.dts_ms).collect::<Vec<_>>()
    };
    for (i, step) in steps.iter().enumerate() {
        now_ms += 1;
        let now = SimTime::from_millis(now_ms);
        let (a, b) = match step {
            Step::Packet(f, p) => {
                let pkt = &frames[*f].packets[*p];
                (dts(new.ingest(now, pkt)), dts(&old.ingest(now, pkt)))
            }
            Step::Slice(f, idx, with_chain) => {
                let fr = &frames[*f];
                let set: PacketSet = idx.iter().copied().collect();
                let (ss, total) = (fr.packets[0].substream, fr.packets[0].packet_count);
                let chain = with_chain.then_some(&fr.chain);
                (
                    dts(new.ingest_slice(now, fr.header, ss, &set, total, chain)),
                    dts(&old.ingest_slice(now, fr.header, ss, idx, total, chain)),
                )
            }
            Step::Whole(f) => (
                dts(new.ingest_whole_frame(now, frames[*f].header)),
                dts(&old.ingest_whole_frame(now, frames[*f].header)),
            ),
            Step::Skip => (
                dts(new.skip_blocked_head(now)),
                dts(&old.skip_blocked_head(now)),
            ),
            Step::Wait(ms) => {
                now_ms += ms;
                (Vec::new(), Vec::new())
            }
        };
        prop_assert_eq!(a, b, "release order at step {} ({:?})", i, step);
        prop_assert_eq!(
            new.missing_chain_frames(now, timeout).collect::<Vec<_>>(),
            old.missing_chain_frames(now, timeout),
            "missing_chain_frames at step {}",
            i
        );
        // The parent listed missing indices; the new buffer hands out
        // their set, whose count the recovery pass reads.
        let mut incomplete = Vec::new();
        for f in new.incomplete_frames(now, timeout) {
            let missing: Vec<u32> = (0..f.expected).filter(|&i| f.missing.contains(i)).collect();
            prop_assert_eq!(f.missing.len() as usize, missing.len());
            incomplete.push(reference::IncompleteFrame {
                header: f.header,
                substream: f.substream,
                missing,
                expected: f.expected,
                out_of_order_gap: f.out_of_order_gap,
                first_arrival: f.first_arrival,
            });
        }
        prop_assert_eq!(
            incomplete,
            old.incomplete_frames(now, timeout),
            "incomplete_frames at step {}",
            i
        );
        prop_assert_eq!(
            new.chain().mismatched_count(),
            old.chain().mismatched_count(),
            "mismatched_count at step {}",
            i
        );
        prop_assert_eq!(new.duplicate_count(), old.duplicate_count());
        prop_assert_eq!(new.packet_count(), old.packet_count());
        prop_assert_eq!(new.skipped_count(), old.skipped_count());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn reorder_matches_parent_reference(
        seed in 0u64..1_000,
        schedule_seed in any::<u64>(),
        loss in 0.0f64..0.35,
    ) {
        let frames = stream(48, seed);
        let steps = schedule(&frames, loss, &mut SimRng::new(schedule_seed));
        differential(&frames, &steps)?;
    }

    /// Headers, chains, pops and forced pops in any order: late chains
    /// wholly below the consumed head reach the pool and must leave it
    /// exactly when the parent's scan would have let them.
    #[test]
    fn global_chain_matches_parent_reference(
        seed in 0u64..1_000,
        ops in prop::collection::vec((0u8..6, 0usize..16), 1..120),
    ) {
        let frames = stream(16, seed);
        let mut new = GlobalChain::new();
        let mut old = reference::GlobalChain::new();
        for (i, &(kind, f)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    new.ingest_header(frames[f].header);
                    old.ingest_header(frames[f].header);
                }
                2 | 3 => prop_assert_eq!(
                    new.ingest_chain(&frames[f].chain),
                    old.ingest_chain(&frames[f].chain),
                    "ingest_chain({}) at op {}", f, i
                ),
                4 => prop_assert_eq!(new.pop_linked_head(), old.pop_linked_head()),
                _ => prop_assert_eq!(new.force_pop_head(), old.force_pop_head()),
            }
            prop_assert_eq!(new.dts_sequence(), old.dts_sequence(), "op {}", i);
            prop_assert_eq!(new.head(), old.head());
            prop_assert_eq!(new.head_header(), old.head_header());
            prop_assert_eq!(new.mismatched_count(), old.mismatched_count(), "op {}", i);
        }
    }
}

/// The parent commit's `GlobalChain` and `ReorderBuffer`, verbatim
/// except for the three methods this change deletes (none of them
/// announces, merges or releases), plus the `IncompleteFrame` shape the
/// parent's `incomplete_frames` returned.
#[allow(dead_code, clippy::clone_on_copy)]
mod reference {
    use rlive_data::reorder::ReadyFrame;
    use rlive_data::ring::SeqRing;
    use rlive_data::sequencing::{LinkStatus, MatchResult};
    use rlive_media::crc::Crc32;
    use rlive_media::footprint::{Footprint, LocalChain, CRC_DEPTH};
    use rlive_media::frame::FrameHeader;
    use rlive_media::packet::DataPacket;
    use rlive_sim::trace::{TraceEvent, TraceSink};
    use rlive_sim::{SimDuration, SimTime};
    use std::collections::VecDeque;

    /// Loss indication for the recovery engine: a frame with missing
    /// packets, annotated with arrival context.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct IncompleteFrame {
        /// The frame header.
        pub header: FrameHeader,
        /// Substream the frame belongs to.
        pub substream: u16,
        /// Missing packet indices.
        pub missing: Vec<u32>,
        /// Expected total packets.
        pub expected: u32,
        /// Whether packets after a gap arrived (out-of-order signal that
        /// justifies fast retransmission rather than timeout, §5.3).
        pub out_of_order_gap: bool,
        /// First packet arrival time (for timeout-based retransmission).
        pub first_arrival: SimTime,
    }

    #[derive(Debug, Clone)]
    struct Entry {
        footprint: Footprint,
        status: LinkStatus,
    }

    /// The client's global frame chain plus supporting state.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlive_data::sequencing::{GlobalChain, MatchResult};
    /// use rlive_media::footprint::ChainGenerator;
    /// use rlive_media::gop::{GopConfig, GopGenerator};
    /// use rlive_media::packet::PACKET_PAYLOAD;
    /// use rlive_sim::SimRng;
    ///
    /// let mut gen = GopGenerator::new(1, GopConfig::default(), SimRng::new(1));
    /// let mut relay = ChainGenerator::new(PACKET_PAYLOAD);
    /// let mut global = GlobalChain::new();
    /// for frame in gen.take_frames(8) {
    ///     let chain = relay.observe(&frame.header);
    ///     global.ingest_header(frame.header);
    ///     assert_eq!(global.ingest_chain(&chain), MatchResult::Matched);
    /// }
    /// assert_eq!(global.len(), 8);
    /// ```
    #[derive(Debug)]
    pub struct GlobalChain {
        entries: VecDeque<Entry>,
        /// Frame headers received so far, ring-indexed by dts — the "data
        /// pool" used for CRC validation.
        headers: SeqRing<FrameHeader>,
        /// Local chains that could not attach yet.
        mismatched: Vec<LocalChain>,
        /// Bound on the mismatch pool to survive pathological input.
        max_mismatched: usize,
        /// Frames already handed to the player (dts); kept so duplicate
        /// chains re-deliver nothing.
        consumed_until: Option<u64>,
        /// Headers of the most recently consumed frames, kept as CRC context
        /// for validating successors after the chain head is popped.
        tail_context: VecDeque<FrameHeader>,
        /// dts of the first frame whose data this client ever received.
        /// Chains reference up to δ−1 older frames that a mid-stream joiner
        /// will never receive; entries below the floor are skipped so the
        /// chain head cannot deadlock on unobtainable frames.
        join_floor: Option<u64>,
    }

    impl Default for GlobalChain {
        fn default() -> Self {
            Self::new()
        }
    }

    impl GlobalChain {
        /// Creates an empty global chain.
        pub fn new() -> Self {
            GlobalChain {
                entries: VecDeque::new(),
                headers: SeqRing::new(),
                mismatched: Vec::new(),
                max_mismatched: 64,
                consumed_until: None,
                tail_context: VecDeque::with_capacity(CRC_DEPTH + 1),
                join_floor: None,
            }
        }

        /// Records a received frame header (from any packet) into the data
        /// pool, then revalidates any `UNLINKED` entries that were waiting
        /// for it.
        pub fn ingest_header(&mut self, header: FrameHeader) {
            if self.join_floor.is_none() {
                self.join_floor = Some(header.dts_ms);
            }
            self.headers.insert(header.dts_ms, header);
            self.revalidate();
        }

        /// Number of entries currently in the global chain.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether the chain is empty.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Number of pooled, not-yet-matched chains.
        pub fn mismatched_count(&self) -> usize {
            self.mismatched.len()
        }

        /// The dts sequence of the chain, for inspection.
        pub fn dts_sequence(&self) -> Vec<u64> {
            self.entries.iter().map(|e| e.footprint.dts_ms).collect()
        }

        /// The status of the entry for `dts`, if present.
        pub fn status_of(&self, dts: u64) -> Option<LinkStatus> {
            self.entries
                .iter()
                .find(|e| e.footprint.dts_ms == dts)
                .map(|e| e.status)
        }

        fn last_footprint(&self) -> Option<Footprint> {
            self.entries.back().map(|e| e.footprint)
        }

        /// Validates `footprint` at position `idx` of the chain by
        /// recomputing its CRC from the headers of it and its (up to)
        /// `CRC_DEPTH` predecessors. `None` means "cannot validate yet"
        /// (headers missing); `Some(bool)` is the verdict.
        fn validate_at(&self, idx: usize) -> Option<bool> {
            let fp = &self.entries[idx].footprint;
            let header = self.headers.get(fp.dts_ms)?;
            let start = idx.saturating_sub(CRC_DEPTH);
            let mut prior: Vec<FrameHeader> = Vec::new();
            // When the chain holds fewer than CRC_DEPTH predecessors, fill
            // from the tail context (headers of recently consumed frames).
            let need_from_tail = CRC_DEPTH - (idx - start);
            if need_from_tail > 0 {
                let tl = self.tail_context.len();
                for h in self
                    .tail_context
                    .iter()
                    .skip(tl.saturating_sub(need_from_tail))
                {
                    prior.push(*h);
                }
            }
            for e in self.entries.iter().skip(start).take(idx - start) {
                prior.push(*self.headers.get(e.footprint.dts_ms)?);
            }
            if prior.len() < CRC_DEPTH {
                // Mid-stream join (or true stream head): the relay's CRC
                // context cannot be reconstructed, so the first CRC_DEPTH
                // entries are accepted on header presence alone. Everything
                // after them gets full validation.
                return Some(true);
            }
            let mut crc = Crc32::new();
            for p in &prior {
                crc.update(&p.to_bytes());
            }
            crc.update(&header.to_bytes());
            Some(crc.finish() == fp.crc)
        }

        /// Attempts Algorithm 1 on a single local chain. Does not touch the
        /// mismatch pool.
        fn try_match(&mut self, lchain: &LocalChain) -> MatchResult {
            if lchain.is_empty() {
                return MatchResult::Matched;
            }
            // Bootstrap: adopt the first chain wholesale.
            if self.entries.is_empty() {
                for fp in lchain.footprints() {
                    if self.consumed_until.map(|c| fp.dts_ms <= c).unwrap_or(false) {
                        continue;
                    }
                    // Skip frames from before this client joined.
                    if self.join_floor.map(|f| fp.dts_ms < f).unwrap_or(false) {
                        continue;
                    }
                    self.entries.push_back(Entry {
                        footprint: *fp,
                        status: LinkStatus::Unlinked,
                    });
                }
                self.revalidate();
                return MatchResult::Matched;
            }

            let terminal = self.last_footprint().expect("chain non-empty");
            // Lines 2–10: scan lchain; once the terminal frame of gChain is
            // found, append the following frames as UNLINKED.
            let mut find_cont = false;
            let mut appended = 0usize;
            for fp in lchain.footprints() {
                if find_cont {
                    self.entries.push_back(Entry {
                        footprint: *fp,
                        status: LinkStatus::Unlinked,
                    });
                    appended += 1;
                } else if *fp == terminal {
                    find_cont = true;
                }
            }
            if !find_cont {
                // Also accept chains fully contained in gChain (no-ops):
                // every footprint already present means nothing to do.
                let all_known = lchain
                    .footprints()
                    .iter()
                    .all(|fp| self.entries.iter().any(|e| e.footprint == *fp));
                if all_known {
                    return MatchResult::Matched;
                }
                return MatchResult::Deferred;
            }
            let _ = appended;
            // Lines 14–23: walk the new tail, validating CRCs against the
            // data pool. A definite mismatch evicts all UNLINKED frames.
            if self.revalidate() {
                MatchResult::Matched
            } else {
                MatchResult::Rejected
            }
        }

        /// Revalidates `UNLINKED` entries in order. Returns `false` if a
        /// definite CRC mismatch forced eviction of the unlinked tail.
        fn revalidate(&mut self) -> bool {
            let mut idx = 0;
            while idx < self.entries.len() {
                if self.entries[idx].status == LinkStatus::Linked {
                    idx += 1;
                    continue;
                }
                match self.validate_at(idx) {
                    Some(true) => {
                        self.entries[idx].status = LinkStatus::Linked;
                        idx += 1;
                    }
                    Some(false) => {
                        // Push out the unlinked frames from gChain.
                        self.entries.retain(|e| e.status == LinkStatus::Linked);
                        return false;
                    }
                    // Headers not yet received: stop; later ingest retries.
                    None => break,
                }
            }
            true
        }

        /// Offers a local chain to the global chain, managing the mismatch
        /// pool: deferred chains are pooled, and every successful merge
        /// retries pooled chains until a fixed point.
        pub fn ingest_chain(&mut self, lchain: &LocalChain) -> MatchResult {
            let result = self.try_match(lchain);
            match result {
                MatchResult::Matched => {
                    self.drain_mismatched();
                }
                MatchResult::Deferred => {
                    if self.mismatched.len() < self.max_mismatched
                        && !self.mismatched.contains(lchain)
                    {
                        self.mismatched.push(lchain.clone());
                    }
                }
                MatchResult::Rejected => {}
            }
            result
        }

        fn drain_mismatched(&mut self) {
            loop {
                let mut progressed = false;
                let pending = std::mem::take(&mut self.mismatched);
                for chain in pending {
                    match self.try_match(&chain) {
                        MatchResult::Matched => progressed = true,
                        MatchResult::Deferred => self.mismatched.push(chain),
                        MatchResult::Rejected => {}
                    }
                }
                if !progressed {
                    break;
                }
            }
        }

        /// Pops the head of the chain if it is `LINKED`, handing it to the
        /// playout path. Returns the footprint so the caller can check frame
        /// completeness (`cnt`).
        pub fn pop_linked_head(&mut self) -> Option<Footprint> {
            match self.entries.front() {
                Some(e) if e.status == LinkStatus::Linked => {
                    let fp = e.footprint;
                    self.entries.pop_front();
                    self.consumed_until = Some(fp.dts_ms);
                    if let Some(h) = self.headers.get(fp.dts_ms) {
                        self.tail_context.push_back(*h);
                        while self.tail_context.len() > CRC_DEPTH {
                            self.tail_context.pop_front();
                        }
                    }
                    // Headers of consumed frames are no longer needed for
                    // validation ordering but keep a bounded window for
                    // CRC context of successors.
                    self.gc_headers();
                    Some(fp)
                }
                _ => None,
            }
        }

        /// Force-pops the head entry regardless of status — the playout
        /// deadline passed and the player is skipping the frame. The entry
        /// is treated as consumed so late recoveries are deduplicated.
        pub fn force_pop_head(&mut self) -> Option<Footprint> {
            let e = self.entries.pop_front()?;
            let fp = e.footprint;
            self.consumed_until = Some(fp.dts_ms);
            if let Some(h) = self.headers.get(fp.dts_ms) {
                self.tail_context.push_back(*h);
                while self.tail_context.len() > CRC_DEPTH {
                    self.tail_context.pop_front();
                }
            } else {
                // Without the header the CRC context breaks; clear it so
                // successors fall back to unverifiable-accept.
                self.tail_context.clear();
            }
            // Successors may have been waiting on the removed entry's
            // validation; re-run so already-received frames can link now.
            self.revalidate();
            Some(fp)
        }

        /// The frame header of the chain head, if its header was received.
        pub fn head_header(&self) -> Option<FrameHeader> {
            let fp = self.entries.front()?.footprint;
            self.headers.get(fp.dts_ms).copied()
        }

        /// Reads (without popping) the head footprint and status.
        pub fn head(&self) -> Option<(Footprint, LinkStatus)> {
            self.entries.front().map(|e| (e.footprint, e.status))
        }

        fn gc_headers(&mut self) {
            // Keep headers for everything still in the chain plus a small
            // margin of recently consumed frames (CRC context).
            if self.headers.len() < 1024 {
                return;
            }
            let live: std::collections::HashSet<u64> =
                self.entries.iter().map(|e| e.footprint.dts_ms).collect();
            let floor = self.consumed_until.unwrap_or(0).saturating_sub(10_000);
            self.headers
                .retain(|dts, _| live.contains(&dts) || dts >= floor);
        }
    }

    /// Packet-index words kept inline before spilling to the heap: 4 × 64 =
    /// 256 packets covers every frame a real encoder ladder emits (an
    /// I-frame tops out around 100 packets), so steady state never spills.
    const INLINE_PACKET_WORDS: usize = 4;

    /// Presence set over packet indices of one frame: an inline bitset with
    /// a heap spill only for pathological frames beyond
    /// [`INLINE_PACKET_WORDS`]` * 64` packets. Replaces the old per-frame
    /// `HashSet<u32>` (one heap allocation per frame plus rehashing) with
    /// zero allocation in the common case.
    #[derive(Debug, Default, Clone)]
    struct PacketSet {
        inline: [u64; INLINE_PACKET_WORDS],
        spill: Vec<u64>,
        count: u32,
    }

    impl PacketSet {
        /// Inserts `idx`; returns whether it was newly present (the
        /// `HashSet::insert` contract).
        fn insert(&mut self, idx: u32) -> bool {
            let (word, bit) = (idx as usize / 64, idx as usize % 64);
            let slot = if word < INLINE_PACKET_WORDS {
                &mut self.inline[word]
            } else {
                let spill_word = word - INLINE_PACKET_WORDS;
                if self.spill.len() <= spill_word {
                    self.spill.resize(spill_word + 1, 0);
                }
                &mut self.spill[spill_word]
            };
            let mask = 1u64 << bit;
            if *slot & mask != 0 {
                return false;
            }
            *slot |= mask;
            self.count += 1;
            true
        }

        fn contains(&self, idx: u32) -> bool {
            let (word, bit) = (idx as usize / 64, idx as usize % 64);
            let slot = if word < INLINE_PACKET_WORDS {
                self.inline[word]
            } else {
                self.spill
                    .get(word - INLINE_PACKET_WORDS)
                    .copied()
                    .unwrap_or(0)
            };
            slot & (1u64 << bit) != 0
        }

        fn len(&self) -> u32 {
            self.count
        }
    }

    /// Per-frame packet arrival state.
    #[derive(Debug)]
    struct FrameAssembly {
        header: FrameHeader,
        expected: u32,
        received: PacketSet,
        first_arrival: SimTime,
        /// Highest packet index seen; used for gap-based fast retransmit.
        max_seen: u32,
        /// Substream the frame arrived on (last packet wins, as with the
        /// old side table).
        substream: u16,
    }

    impl FrameAssembly {
        fn missing(&self) -> Vec<u32> {
            (0..self.expected)
                .filter(|&i| !self.received.contains(i))
                .collect()
        }

        fn complete(&self) -> bool {
            self.received.len() >= self.expected
        }
    }

    /// A frame that finished reassembly, ready for the playback buffer.
    /// The client-side reorder buffer across all substreams of one stream.
    #[derive(Debug)]
    pub struct ReorderBuffer {
        /// In-flight frame assemblies, ring-indexed by dts (the substream
        /// of each frame lives inside [`FrameAssembly`]; the old per-dts
        /// side table is gone).
        assembling: SeqRing<FrameAssembly>,
        /// The global chain being built from embedded local chains.
        chain: GlobalChain,
        /// Frames fully received but not yet released in chain order.
        complete: SeqRing<ReadyFrame>,
        /// Duplicate packets observed (for overhead accounting).
        duplicates: u64,
        packets: u64,
        /// dts of the newest frame already released to playback; packets at
        /// or below it are duplicates.
        released_watermark: Option<u64>,
        /// When the release head first became blocked (present but not
        /// releasable), for deadline-based skipping.
        blocked_since: Option<SimTime>,
        /// Frames deliberately skipped past their deadline.
        skipped: u64,
        /// Frames announced by embedded chains: dts -> (first seen, packet
        /// count from the footprint). Entries with no data at all are
        /// invisible to `incomplete_frames` (nothing ever assembled), so
        /// this map is what lets the recovery engine find wholly-lost
        /// frames.
        chain_announced: SeqRing<(SimTime, u32)>,
        /// Structured trace sink (disabled by default) and the session the
        /// buffer belongs to, for deadline-skip observability.
        trace: TraceSink,
        trace_session: u64,
    }

    impl Default for ReorderBuffer {
        fn default() -> Self {
            Self::new()
        }
    }

    impl ReorderBuffer {
        /// Creates an empty reorder buffer.
        pub fn new() -> Self {
            ReorderBuffer {
                assembling: SeqRing::new(),
                chain: GlobalChain::new(),
                complete: SeqRing::new(),
                duplicates: 0,
                packets: 0,
                released_watermark: None,
                blocked_since: None,
                skipped: 0,
                chain_announced: SeqRing::new(),
                trace: TraceSink::disabled(),
                trace_session: 0,
            }
        }

        /// Attaches a structured trace sink; deadline skips are emitted as
        /// [`TraceEvent::ReorderHeadSkip`] attributed to `session`.
        pub fn set_trace_sink(&mut self, session: u64, sink: TraceSink) {
            self.trace = sink;
            self.trace_session = session;
        }

        /// Access to the underlying global chain (for inspection).
        pub fn chain(&self) -> &GlobalChain {
            &self.chain
        }

        /// Ingests one data packet at `now`; returns frames that became
        /// playable (complete and in linked chain order).
        pub fn ingest(&mut self, now: SimTime, pkt: &DataPacket) -> Vec<ReadyFrame> {
            self.packets += 1;
            let dts = pkt.frame.dts_ms;
            if self.released_watermark.map(|w| dts <= w).unwrap_or(false) {
                self.duplicates += 1;
                return Vec::new();
            }
            self.chain.ingest_header(pkt.frame);
            for fp in pkt.chain.footprints() {
                self.chain_announced
                    .get_or_insert_with(fp.dts_ms, || (now, fp.cnt));
            }
            self.chain.ingest_chain(&pkt.chain);

            let asm = self.assembling.get_or_insert_with(dts, || FrameAssembly {
                header: pkt.frame,
                expected: pkt.packet_count,
                received: PacketSet::default(),
                first_arrival: now,
                max_seen: 0,
                substream: pkt.substream,
            });
            asm.substream = pkt.substream;
            if !asm.received.insert(pkt.packet_index) {
                self.duplicates += 1;
            }
            asm.max_seen = asm.max_seen.max(pkt.packet_index);
            if asm.complete() {
                let header = asm.header;
                self.assembling.remove(dts);
                self.complete.insert(
                    dts,
                    ReadyFrame {
                        header,
                        completed_at: now,
                    },
                );
            }
            self.release(now)
        }

        /// Batch form of [`ReorderBuffer::ingest`] used by the simulator:
        /// ingests every received packet index of one frame in a single
        /// call, processing the chain once. Semantically identical to
        /// per-packet ingestion of the same indices.
        pub fn ingest_slice(
            &mut self,
            now: SimTime,
            header: FrameHeader,
            substream: u16,
            received: &[u32],
            total: u32,
            chain: Option<&rlive_media::footprint::LocalChain>,
        ) -> Vec<ReadyFrame> {
            self.packets += received.len() as u64;
            let dts = header.dts_ms;
            if self.released_watermark.map(|w| dts <= w).unwrap_or(false) {
                self.duplicates += received.len() as u64;
                return Vec::new();
            }
            self.chain.ingest_header(header);
            if let Some(c) = chain {
                for fp in c.footprints() {
                    self.chain_announced
                        .get_or_insert_with(fp.dts_ms, || (now, fp.cnt));
                }
                self.chain.ingest_chain(c);
            }
            let asm = self.assembling.get_or_insert_with(dts, || FrameAssembly {
                header,
                expected: total,
                received: PacketSet::default(),
                first_arrival: now,
                max_seen: 0,
                substream,
            });
            asm.substream = substream;
            for &idx in received {
                if !asm.received.insert(idx) {
                    self.duplicates += 1;
                }
                asm.max_seen = asm.max_seen.max(idx);
            }
            if asm.complete() {
                self.assembling.remove(dts);
                self.complete.insert(
                    dts,
                    ReadyFrame {
                        header,
                        completed_at: now,
                    },
                );
            }
            self.release(now)
        }

        /// Ingests a local chain without any data (centralised-sequencing
        /// baseline: sequence metadata travels separately from payloads).
        pub fn ingest_chain_only(&mut self, chain: &rlive_media::footprint::LocalChain) {
            self.chain.ingest_chain(chain);
        }

        /// Releases frames that became orderable after out-of-band chain or
        /// header arrival (used with [`ReorderBuffer::ingest_chain_only`]).
        pub fn drain_ready(&mut self, now: SimTime) -> Vec<ReadyFrame> {
            self.release(now)
        }

        /// Marks a frame as recovered in full from a dedicated node (frame
        /// recovery or full-stream fallback delivers whole frames).
        pub fn ingest_whole_frame(&mut self, now: SimTime, header: FrameHeader) -> Vec<ReadyFrame> {
            if self
                .released_watermark
                .map(|w| header.dts_ms <= w)
                .unwrap_or(false)
            {
                return Vec::new();
            }
            self.chain.ingest_header(header);
            self.assembling.remove(header.dts_ms);
            self.complete.insert(
                header.dts_ms,
                ReadyFrame {
                    header,
                    completed_at: now,
                },
            );
            self.release(now)
        }

        /// Releases complete frames in global-chain order.
        fn release(&mut self, now: SimTime) -> Vec<ReadyFrame> {
            // Stage-profiled (wall clock, stderr-only reporting): this is
            // the reorder drain every ingest/skip path funnels through.
            let _span = rlive_sim::obs::time_stage(rlive_sim::obs::Stage::ReorderDrain);
            let mut out = Vec::new();
            loop {
                let Some((fp, status)) = self.chain.head() else {
                    self.blocked_since = None;
                    break;
                };
                // Only release when the head is linked AND its data complete.
                let releasable =
                    status == LinkStatus::Linked && self.complete.contains_key(fp.dts_ms);
                if !releasable {
                    // Remember when the head got stuck, for deadline skips.
                    if self.blocked_since.is_none() {
                        self.blocked_since = Some(now);
                    }
                    break;
                }
                let ready = self.complete.remove(fp.dts_ms).expect("checked");
                self.chain.pop_linked_head();
                self.chain_announced.remove(fp.dts_ms);
                // A late duplicate can re-create a ghost assembly for a
                // frame that already completed; releasing the frame wipes
                // its substream attribution (the ghost itself only dies at
                // `expire_before`), so recovery sees substream 0 for it —
                // the exact lifecycle the old `substream_of` side table
                // had, which the golden outputs pin.
                if let Some(ghost) = self.assembling.get_mut(fp.dts_ms) {
                    ghost.substream = 0;
                }
                self.released_watermark = Some(fp.dts_ms);
                self.blocked_since = None;
                out.push(ready);
            }
            out
        }

        /// How long the release head has been blocked, if it is.
        pub fn head_blocked_since(&self) -> Option<SimTime> {
            self.blocked_since
        }

        /// The frame type of the blocked head, when its header is known.
        /// B-frames are droppable without corrupting decode; anything else
        /// forces the player to wait or jump to the next random-access
        /// point.
        pub fn head_frame_type(&self) -> Option<rlive_media::frame::FrameType> {
            self.chain.head_header().map(|h| h.frame_type)
        }

        /// Skips the blocked head frame past its deadline: the frame is
        /// abandoned (visual glitch) so playback can continue. Returns
        /// frames that became releasable after the skip.
        pub fn skip_blocked_head(&mut self, now: SimTime) -> Vec<ReadyFrame> {
            let Some((fp, _)) = self.chain.head() else {
                return Vec::new();
            };
            self.chain.force_pop_head();
            self.assembling.remove(fp.dts_ms);
            self.complete.remove(fp.dts_ms);
            self.chain_announced.remove(fp.dts_ms);
            self.released_watermark = Some(fp.dts_ms);
            self.blocked_since = None;
            self.skipped += 1;
            let released = self.release(now);
            self.trace.emit(
                now,
                Some(self.trace_session),
                TraceEvent::ReorderHeadSkip {
                    dts_ms: fp.dts_ms,
                    released: released.len() as u32,
                },
            );
            released
        }

        /// Frames skipped past their deadline so far.
        pub fn skipped_count(&self) -> u64 {
            self.skipped
        }

        /// Frames with missing packets, for the recovery engine. A frame is
        /// reported once packets beyond a gap have arrived (out-of-order
        /// fast path) or once `timeout` has elapsed since its first packet.
        pub fn incomplete_frames(
            &self,
            now: SimTime,
            timeout: SimDuration,
        ) -> Vec<IncompleteFrame> {
            self.assembling
                .values()
                .filter_map(|asm| {
                    let missing = asm.missing();
                    if missing.is_empty() {
                        return None;
                    }
                    let gap = missing.iter().any(|&m| m < asm.max_seen);
                    let timed_out = now.saturating_since(asm.first_arrival) >= timeout;
                    if gap || timed_out {
                        Some(IncompleteFrame {
                            header: asm.header,
                            substream: asm.substream,
                            missing,
                            expected: asm.expected,
                            out_of_order_gap: gap,
                            first_arrival: asm.first_arrival,
                        })
                    } else {
                        None
                    }
                })
                .collect()
        }

        /// Frames that embedded chains have announced but for which no data
        /// has arrived at all within `timeout` — e.g. the publishing relay
        /// died. Returns `(dts, packet_count)` pairs; the caller recovers
        /// them as whole frames (the CDN supports dts-indexed recovery, §6).
        pub fn missing_chain_frames(&self, now: SimTime, timeout: SimDuration) -> Vec<(u64, u32)> {
            self.chain_announced
                .iter()
                .filter(|&(dts, &(seen, _))| {
                    now.saturating_since(seen) >= timeout
                        && !self.assembling.contains_key(dts)
                        && !self.complete.contains_key(dts)
                        && self.released_watermark.map(|w| dts > w).unwrap_or(true)
                })
                .map(|(dts, &(_, cnt))| (dts, cnt))
                .collect()
        }

        /// Frames sitting complete but blocked on chain order.
        pub fn blocked_complete(&self) -> usize {
            self.complete.len()
        }

        /// The dts values of complete frames that cannot release because no
        /// ordering information covers them — the failure mode of the
        /// centralised sequencing design when the metadata channel lags or
        /// loses entries (§7.3.2). Returns up to `limit` frames that have
        /// been complete for at least `age`.
        pub fn unorderable_complete(
            &self,
            now: SimTime,
            age: SimDuration,
            limit: usize,
        ) -> Vec<u64> {
            self.complete
                .iter()
                .filter(|&(dts, r)| {
                    now.saturating_since(r.completed_at) >= age
                        && self.chain.status_of(dts).is_none()
                })
                .map(|(dts, _)| dts)
                .take(limit)
                .collect()
        }

        /// Frames still assembling.
        pub fn assembling_count(&self) -> usize {
            self.assembling.len()
        }

        /// Duplicate packets observed.
        pub fn duplicate_count(&self) -> u64 {
            self.duplicates
        }

        /// Total packets ingested.
        pub fn packet_count(&self) -> u64 {
            self.packets
        }
    }
}
