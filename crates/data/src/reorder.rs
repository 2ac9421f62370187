//! Packet reorder buffer and client playback buffer.
//!
//! The reorder buffer tracks per-frame packet arrival across substreams,
//! detects completeness (all `cnt` packets present) and gaps (for fast
//! retransmission), and feeds headers/chains into the
//! [`crate::sequencing::GlobalChain`]. Complete, linked frames are moved
//! into the [`PlaybackBuffer`], which models the player: frames drain at
//! the presentation rate, occupancy below the fallback threshold
//! triggers CDN full-stream fallback (§7.4), and an empty buffer is a
//! rebuffering event.

use crate::ring::SeqRing;
use crate::sequencing::GlobalChain;
use rlive_media::footprint::LocalChain;
use rlive_media::frame::FrameHeader;
use rlive_media::packet::DataPacket;
use rlive_sim::trace::{TraceEvent, TraceSink};
use rlive_sim::{SimDuration, SimTime};

/// Packet-index words kept inline before spilling to the heap: 4 × 64 =
/// 256 packets covers every frame a real encoder ladder emits (an
/// I-frame tops out around 100 packets), so steady state never spills.
const INLINE_PACKET_WORDS: usize = 4;

/// Presence set over packet indices of one frame: an inline bitset with
/// a heap spill only for pathological frames beyond
/// `INLINE_PACKET_WORDS * 64` = 256 packets. It is both the per-frame
/// assembly state and the payload of one delivered slice, so a slice is
/// merged into its frame by a word-wise OR with zero allocation in the
/// common case.
#[derive(Debug, Default, Clone)]
pub struct PacketSet {
    inline: [u64; INLINE_PACKET_WORDS],
    spill: Vec<u64>,
    count: u32,
}

impl FromIterator<u32> for PacketSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut set = PacketSet::default();
        for idx in iter {
            set.insert(idx);
        }
        set
    }
}

impl PacketSet {
    /// Inserts `idx`; returns whether it was newly present (the
    /// `HashSet::insert` contract).
    pub fn insert(&mut self, idx: u32) -> bool {
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

    /// Whether `idx` is present.
    pub fn contains(&self, idx: u32) -> bool {
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

    /// Number of indices present.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// Whether no index is present.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.inline.iter().chain(&self.spill).copied()
    }

    /// The indices below `n` that are absent, a word at a time (spill
    /// words only up to the last non-zero one, as insertion leaves them).
    fn complement_below(&self, n: u32) -> PacketSet {
        let mut out = PacketSet::default();
        let words = self.words().chain(std::iter::repeat(0));
        for (w, word) in words.take(n.div_ceil(64) as usize).enumerate() {
            let width = (n - 64 * w as u32).min(64);
            let absent = !word & (u64::MAX >> (64 - width));
            out.count += absent.count_ones();
            if w < INLINE_PACKET_WORDS {
                out.inline[w] = absent;
            } else if absent != 0 {
                out.spill.resize(w - INLINE_PACKET_WORDS + 1, 0);
                out.spill[w - INLINE_PACKET_WORDS] = absent;
            }
        }
        out
    }

    /// The lowest index present.
    fn min_index(&self) -> Option<u32> {
        let (word, bits) = self.words().enumerate().find(|&(_, w)| w != 0)?;
        Some((word * 64 + bits.trailing_zeros() as usize) as u32)
    }

    /// The highest index present.
    fn max_index(&self) -> Option<u32> {
        let (word, bits) = self.words().enumerate().filter(|&(_, w)| w != 0).last()?;
        Some((word * 64 + 63 - bits.leading_zeros() as usize) as u32)
    }

    /// Adds every index of `other`; returns how many were already
    /// present (the duplicates per-index insertion would have counted).
    fn union_with(&mut self, other: &PacketSet) -> u32 {
        if self.spill.len() < other.spill.len() {
            self.spill.resize(other.spill.len(), 0);
        }
        let mut overlap = 0;
        let mine = self.inline.iter_mut().chain(self.spill.iter_mut());
        for (word, theirs) in mine.zip(other.words()) {
            overlap += (*word & theirs).count_ones();
            *word |= theirs;
        }
        self.count += other.count - overlap;
        overlap
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
    fn complete(&self) -> bool {
        self.received.len() >= self.expected
    }
}

/// A frame that finished reassembly, ready for the playback buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyFrame {
    /// The frame header.
    pub header: FrameHeader,
    /// When the last packet arrived.
    pub completed_at: SimTime,
}

/// Loss indication for the recovery engine: a frame with missing
/// packets, annotated with arrival context.
#[derive(Debug, Clone)]
pub struct IncompleteFrame {
    /// The frame header.
    pub header: FrameHeader,
    /// Substream the frame belongs to.
    pub substream: u16,
    /// Missing packet indices.
    pub missing: PacketSet,
    /// Expected total packets.
    pub expected: u32,
    /// Whether packets after a gap arrived (out-of-order signal that
    /// justifies fast retransmission rather than timeout, §5.3).
    pub out_of_order_gap: bool,
    /// First packet arrival time (for timeout-based retransmission).
    pub first_arrival: SimTime,
}

/// The client-side reorder buffer across all substreams of one stream.
#[derive(Debug)]
pub struct ReorderBuffer {
    /// In-flight frame assemblies, ring-indexed by dts (the substream
    /// of each frame lives inside [`FrameAssembly`]; the old per-dts
    /// side table is gone).
    assembling: SeqRing<FrameAssembly>,
    /// The global chain built from embedded local chains. Its frame
    /// table also records which frames are complete but not released,
    /// and which embedded chains announced: the announcements are how
    /// recovery finds wholly-lost frames (nothing ever assembled), and
    /// are kept only above `released_watermark`.
    chain: GlobalChain,
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
    /// Frames released by the last releasing call, lent out as a slice
    /// so steady-state release allocates nothing.
    released: Vec<ReadyFrame>,
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
            duplicates: 0,
            packets: 0,
            released_watermark: None,
            blocked_since: None,
            skipped: 0,
            released: Vec::new(),
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

    /// Whether `dts` is at or below the newest released frame.
    fn is_released(&self, dts: u64) -> bool {
        self.released_watermark.is_some_and(|w| dts <= w)
    }

    /// Records a chain's footprints as announced, then merges it.
    fn ingest_chain(&mut self, now: SimTime, chain: &LocalChain) {
        for fp in chain.footprints() {
            // Already-released frames can never be reported missing.
            if !self.is_released(fp.dts_ms) {
                self.chain.announce(fp.dts_ms, now, fp.cnt);
            }
        }
        self.chain.ingest_chain(chain);
    }

    /// Ingests one data packet at `now`; returns frames that became
    /// playable (complete and in linked chain order).
    pub fn ingest(&mut self, now: SimTime, pkt: &DataPacket) -> &[ReadyFrame] {
        let received = std::iter::once(pkt.packet_index).collect();
        let (header, ss, total) = (pkt.frame, pkt.substream, pkt.packet_count);
        self.ingest_slice(now, header, ss, &received, total, Some(&pkt.chain))
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
        received: &PacketSet,
        total: u32,
        chain: Option<&LocalChain>,
    ) -> &[ReadyFrame] {
        self.packets += u64::from(received.len());
        let dts = header.dts_ms;
        if self.is_released(dts) {
            self.duplicates += u64::from(received.len());
            return &[];
        }
        self.chain.ingest_header(header);
        if let Some(c) = chain {
            self.ingest_chain(now, c);
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
        self.duplicates += u64::from(asm.received.union_with(received));
        if let Some(max) = received.max_index() {
            asm.max_seen = asm.max_seen.max(max);
        }
        if asm.complete() {
            self.assembling.remove(dts);
            self.chain.complete(dts, now);
        }
        self.release(now)
    }

    /// Ingests a local chain without any data (centralised-sequencing
    /// baseline: sequence metadata travels separately from payloads).
    pub fn ingest_chain_only(&mut self, chain: &LocalChain) {
        self.chain.ingest_chain(chain);
    }

    /// Releases frames that became orderable after out-of-band chain or
    /// header arrival (used with [`ReorderBuffer::ingest_chain_only`]).
    pub fn drain_ready(&mut self, now: SimTime) -> &[ReadyFrame] {
        self.release(now)
    }

    /// Marks a frame as recovered in full from a dedicated node (frame
    /// recovery or full-stream fallback delivers whole frames).
    pub fn ingest_whole_frame(&mut self, now: SimTime, header: FrameHeader) -> &[ReadyFrame] {
        if self.is_released(header.dts_ms) {
            return &[];
        }
        self.chain.ingest_header(header);
        self.assembling.remove(header.dts_ms);
        self.chain.complete(header.dts_ms, now);
        self.release(now)
    }

    /// Moves the release watermark up to `dts` and pops every
    /// announcement it passed (they can never be reported missing).
    fn advance_watermark(&mut self, dts: u64) {
        debug_assert!(
            self.released_watermark.is_none_or(|w| dts >= w),
            "release watermark must never decrease"
        );
        self.released_watermark = Some(dts);
        self.chain.clear_announced_through(dts);
    }

    /// Releases complete frames in global-chain order into the owned
    /// release buffer.
    fn release(&mut self, now: SimTime) -> &[ReadyFrame] {
        // Stage-profiled (wall clock, stderr-only reporting): this is
        // the reorder drain every ingest/skip path funnels through.
        let _span = rlive_sim::obs::time_stage(rlive_sim::obs::Stage::ReorderDrain);
        self.released.clear();
        loop {
            let Some((fp, status)) = self.chain.head() else {
                self.blocked_since = None;
                break;
            };
            // Only release when the head is linked AND its data complete.
            let releasable = status == crate::sequencing::LinkStatus::Linked
                && self.chain.record(fp.dts_ms).is_some_and(|r| r.completed);
            if !releasable {
                // Remember when the head got stuck, for deadline skips.
                if self.blocked_since.is_none() {
                    self.blocked_since = Some(now);
                }
                break;
            }
            let ready = ReadyFrame {
                header: self
                    .chain
                    .head_header()
                    .expect("a linked head has its header"),
                completed_at: self.chain.take_completed(fp.dts_ms).expect("checked"),
            };
            self.chain.pop_linked_head();
            // A late duplicate can re-create a ghost assembly for a
            // frame that already completed; releasing the frame wipes
            // its substream attribution (the ghost itself is never
            // removed), so recovery sees substream 0 for it — the exact
            // lifecycle the old `substream_of` side table had, which
            // the golden outputs pin.
            if let Some(ghost) = self.assembling.get_mut(fp.dts_ms) {
                ghost.substream = 0;
            }
            self.advance_watermark(fp.dts_ms);
            self.blocked_since = None;
            self.released.push(ready);
        }
        &self.released
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
    pub fn skip_blocked_head(&mut self, now: SimTime) -> &[ReadyFrame] {
        let Some((fp, _)) = self.chain.head() else {
            return &[];
        };
        self.chain.force_pop_head();
        self.assembling.remove(fp.dts_ms);
        self.chain.take_completed(fp.dts_ms);
        self.advance_watermark(fp.dts_ms);
        self.blocked_since = None;
        self.skipped += 1;
        let released = self.release(now).len() as u32;
        self.trace.emit(
            now,
            Some(self.trace_session),
            TraceEvent::ReorderHeadSkip {
                dts_ms: fp.dts_ms,
                released,
            },
        );
        &self.released
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
    ) -> impl Iterator<Item = IncompleteFrame> + '_ {
        self.assembling.values().filter_map(move |asm| {
            let missing = asm.received.complement_below(asm.expected);
            if missing.is_empty() {
                return None;
            }
            let gap = missing.min_index().is_some_and(|m| m < asm.max_seen);
            let timed_out = now.saturating_since(asm.first_arrival) >= timeout;
            (gap || timed_out).then_some(IncompleteFrame {
                header: asm.header,
                substream: asm.substream,
                missing,
                expected: asm.expected,
                out_of_order_gap: gap,
                first_arrival: asm.first_arrival,
            })
        })
    }

    /// Frames that embedded chains have announced but for which no data
    /// has arrived at all within `timeout` — e.g. the publishing relay
    /// died. Yields `(dts, packet_count)` pairs; the caller recovers
    /// them as whole frames (the CDN supports dts-indexed recovery, §6).
    pub fn missing_chain_frames(
        &self,
        now: SimTime,
        timeout: SimDuration,
    ) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.chain
            .records()
            .filter(move |&(dts, r)| {
                r.announced
                    && now.saturating_since(r.announced_at) >= timeout
                    && !self.assembling.contains_key(dts)
                    && !r.completed
                    && self.released_watermark.map(|w| dts > w).unwrap_or(true)
            })
            .map(|(dts, r)| (dts, r.announced_cnt))
    }

    /// Frames sitting complete but blocked on chain order.
    pub fn blocked_complete(&self) -> usize {
        self.chain.completed_count()
    }

    /// The dts values of complete frames that cannot release because no
    /// ordering information covers them — the failure mode of the
    /// centralised sequencing design when the metadata channel lags or
    /// loses entries (§7.3.2). Yields up to `limit` frames that have
    /// been complete for at least `age`.
    pub fn unorderable_complete(
        &self,
        now: SimTime,
        age: SimDuration,
        limit: usize,
    ) -> impl Iterator<Item = u64> + '_ {
        self.chain
            .records()
            .filter(move |&(dts, r)| {
                r.completed
                    && now.saturating_since(r.completed_at) >= age
                    && self.chain.status_of(dts).is_none()
            })
            .map(|(dts, _)| dts)
            .take(limit)
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

/// The player-side buffer of decoded-order frames.
#[derive(Debug)]
pub struct PlaybackBuffer {
    /// Buffered frames, ring-indexed by dts.
    frames: SeqRing<FrameHeader>,
    /// Next dts expected by the decoder.
    playhead_dts: Option<u64>,
    /// Occupancy threshold below which the client falls back to CDN
    /// full-stream pull.
    fallback_threshold: SimDuration,
    /// Frame interval, to convert frame count to buffered duration.
    frame_interval: SimDuration,
    /// Rebuffering statistics.
    rebuffer_events: u64,
    rebuffer_duration: SimDuration,
    stalled_since: Option<SimTime>,
    started: bool,
}

impl PlaybackBuffer {
    /// Creates a buffer for a stream with the given frame interval.
    pub fn new(frame_interval: SimDuration, fallback_threshold: SimDuration) -> Self {
        PlaybackBuffer {
            frames: SeqRing::new(),
            playhead_dts: None,
            fallback_threshold,
            frame_interval,
            rebuffer_events: 0,
            rebuffer_duration: SimDuration::ZERO,
            stalled_since: None,
            started: false,
        }
    }

    /// Inserts a frame delivered in decode order. Frames at or behind
    /// the playhead arrive too late to present and are dropped.
    pub fn push(&mut self, header: FrameHeader) {
        if self
            .playhead_dts
            .map(|p| header.dts_ms <= p)
            .unwrap_or(false)
        {
            return;
        }
        self.frames.insert(header.dts_ms, header);
    }

    /// Buffered playable duration from the playhead.
    pub fn occupancy(&self) -> SimDuration {
        self.frame_interval.saturating_mul(self.frames.len() as u64)
    }

    /// Whether occupancy has fallen below the fallback threshold.
    pub fn below_fallback_threshold(&self) -> bool {
        self.started && self.occupancy() < self.fallback_threshold
    }

    /// The fallback threshold.
    pub fn fallback_threshold(&self) -> SimDuration {
        self.fallback_threshold
    }

    /// Marks playback as started (initial buffer filled).
    pub fn start(&mut self) {
        self.started = true;
    }

    /// Whether playback has started.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Advances playback by one frame tick at `now`. Returns the frame
    /// consumed, or `None` on a stall (rebuffering).
    pub fn tick(&mut self, now: SimTime) -> Option<FrameHeader> {
        if !self.started {
            return None;
        }
        let Some(header) = self.drop_oldest() else {
            self.rebuffer_events += u64::from(self.stalled_since.is_none());
            self.stalled_since.get_or_insert(now);
            return None;
        };
        if let Some(since) = self.stalled_since.take() {
            self.rebuffer_duration += now.saturating_since(since);
        }
        Some(header)
    }

    /// Catch-up: drops the oldest buffered frame without presenting it
    /// (fast-play when the buffer is over-full, pulling end-to-end
    /// latency back down). Returns the dropped frame. `push` keeps every
    /// buffered frame above the playhead, so the next frame is the front.
    pub fn drop_oldest(&mut self) -> Option<FrameHeader> {
        let (dts, header) = self.frames.pop_first()?;
        debug_assert!(self.playhead_dts.is_none_or(|p| dts > p));
        self.playhead_dts = Some(dts);
        Some(header)
    }

    /// Number of rebuffering events so far.
    pub fn rebuffer_events(&self) -> u64 {
        self.rebuffer_events
    }

    /// Total stalled duration so far.
    pub fn rebuffer_duration(&self) -> SimDuration {
        self.rebuffer_duration
    }

    /// The dts at the playhead, if playback has consumed anything.
    pub fn playhead(&self) -> Option<u64> {
        self.playhead_dts
    }

    /// Number of buffered frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the buffer holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlive_media::footprint::ChainGenerator;
    use rlive_media::frame::Frame;
    use rlive_media::gop::{GopConfig, GopGenerator};
    use rlive_media::packet::{packetize, DataPacket, PACKET_PAYLOAD};
    use rlive_media::substream::substream_of;
    use rlive_sim::SimRng;

    fn make_packets(n: usize) -> Vec<Vec<DataPacket>> {
        let mut g = GopGenerator::new(5, GopConfig::default(), SimRng::new(21));
        let frames: Vec<Frame> = g.take_frames(n);
        let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
        frames
            .iter()
            .map(|f| {
                let chain = cg.observe(&f.header);
                let ss = substream_of(&f.header, 4).0;
                packetize(f, ss, &chain, 1)
            })
            .collect()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn in_order_delivery_releases_everything() {
        let pkts = make_packets(10);
        let mut rb = ReorderBuffer::new();
        let mut released: Vec<ReadyFrame> = Vec::new();
        for (i, frame_pkts) in pkts.iter().enumerate() {
            for p in frame_pkts {
                released.extend(rb.ingest(t(i as u64 * 33), p));
            }
        }
        assert_eq!(released.len(), 10);
        // Released in dts order.
        for w in released.windows(2) {
            assert!(w[0].header.dts_ms < w[1].header.dts_ms);
        }
        assert_eq!(rb.assembling_count(), 0);
        assert_eq!(rb.blocked_complete(), 0);
    }

    #[test]
    fn out_of_order_frames_block_until_gap_fills() {
        let pkts = make_packets(3);
        let mut rb = ReorderBuffer::new();
        // Frame 0 complete.
        let mut released: Vec<ReadyFrame> = Vec::new();
        for p in &pkts[0] {
            released.extend(rb.ingest(t(0), p));
        }
        assert_eq!(released.len(), 1);
        // Frame 2 arrives before frame 1: blocked.
        let mut r2: Vec<ReadyFrame> = Vec::new();
        for p in &pkts[2] {
            r2.extend(rb.ingest(t(70), p));
        }
        assert!(r2.is_empty(), "frame 2 must wait for frame 1");
        assert_eq!(rb.blocked_complete(), 1);
        // Frame 1 arrives: both release in order.
        let mut r1: Vec<ReadyFrame> = Vec::new();
        for p in &pkts[1] {
            r1.extend(rb.ingest(t(100), p));
        }
        assert_eq!(r1.len(), 2);
        assert!(r1[0].header.dts_ms < r1[1].header.dts_ms);
    }

    #[test]
    fn missing_packet_blocks_frame_and_reports_incomplete() {
        let pkts = make_packets(1);
        let frame_pkts = &pkts[0];
        assert!(frame_pkts.len() >= 2, "need a multi-packet frame");
        let mut rb = ReorderBuffer::new();
        // Deliver all but packet 0 (a gap, since higher indices arrive).
        for p in &frame_pkts[1..] {
            assert!(rb.ingest(t(1), p).is_empty());
        }
        let incomplete: Vec<_> = rb
            .incomplete_frames(t(2), SimDuration::from_millis(100))
            .collect();
        assert_eq!(incomplete.len(), 1);
        assert!(incomplete[0].missing.contains(0) && incomplete[0].missing.len() == 1);
        assert!(incomplete[0].out_of_order_gap);
        // Retransmission completes the frame.
        let released = rb.ingest(t(5), &frame_pkts[0]);
        assert_eq!(released.len(), 1);
    }

    #[test]
    fn tail_loss_detected_by_timeout_only() {
        let pkts = make_packets(1);
        let frame_pkts = &pkts[0];
        let mut rb = ReorderBuffer::new();
        // Deliver all but the last packet: no gap (missing index is the
        // highest), so only the timeout path reports it.
        let n = frame_pkts.len();
        for p in &frame_pkts[..n - 1] {
            rb.ingest(t(1), p);
        }
        let early = rb.incomplete_frames(t(5), SimDuration::from_millis(100));
        assert_eq!(early.count(), 0, "no gap and no timeout yet");
        let late: Vec<_> = rb
            .incomplete_frames(t(200), SimDuration::from_millis(100))
            .collect();
        assert_eq!(late.len(), 1);
        assert!(!late[0].out_of_order_gap);
    }

    #[test]
    fn duplicates_counted_not_doubled() {
        let pkts = make_packets(1);
        let mut rb = ReorderBuffer::new();
        for p in &pkts[0] {
            rb.ingest(t(0), p);
        }
        let before = rb.packet_count();
        rb.ingest(t(1), &pkts[0][0]);
        assert_eq!(rb.duplicate_count(), 1);
        assert_eq!(rb.packet_count(), before + 1);
    }

    #[test]
    fn whole_frame_recovery_path() {
        let pkts = make_packets(3);
        let mut rb = ReorderBuffer::new();
        for p in &pkts[0] {
            rb.ingest(t(0), p);
        }
        // Frame 1 lost entirely; frame 2 arrives.
        for p in &pkts[2] {
            rb.ingest(t(70), p);
        }
        // Dedicated node returns the whole frame 1.
        let released = rb.ingest_whole_frame(t(90), pkts[1][0].frame);
        assert_eq!(released.len(), 2);
    }

    #[test]
    fn chain_announced_stays_bounded_in_order() {
        // 20 min at 30 fps; each chain re-announces 3 released frames.
        // Only the frame in flight may be held (tighter than CHAIN_LEN,
        // so announcing the watermark frame itself fails here too).
        let mut g = GopGenerator::new(5, GopConfig::default(), SimRng::new(21));
        let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
        let mut rb = ReorderBuffer::new();
        let mut released = 0;
        for i in 0..36_000u64 {
            let f = g.next_frame();
            let chain = cg.observe(&f.header);
            for p in packetize(&f, 0, &chain, 1) {
                released += rb.ingest(t(i * 33), &p).len();
                let announced = rb.chain.records().filter(|(_, r)| r.announced);
                assert!(announced.count() <= 1, "frame {i}");
            }
        }
        assert_eq!(released, 36_000);
    }

    #[test]
    fn playback_buffer_counts_rebuffers() {
        let interval = SimDuration::from_millis(33);
        let mut pb = PlaybackBuffer::new(interval, SimDuration::from_millis(400));
        let pkts = make_packets(3);
        pb.push(pkts[0][0].frame);
        pb.push(pkts[1][0].frame);
        pb.start();
        assert!(pb.tick(t(0)).is_some());
        assert!(pb.tick(t(33)).is_some());
        // Buffer empty: stall begins.
        assert!(pb.tick(t(66)).is_none());
        assert_eq!(pb.rebuffer_events(), 1);
        // Still stalled; no double-count.
        assert!(pb.tick(t(99)).is_none());
        assert_eq!(pb.rebuffer_events(), 1);
        // Data arrives; stall ends and duration accrues.
        pb.push(pkts[2][0].frame);
        assert!(pb.tick(t(150)).is_some());
        assert_eq!(pb.rebuffer_duration(), SimDuration::from_millis(84));
    }

    #[test]
    fn fallback_threshold_trips() {
        let interval = SimDuration::from_millis(33);
        let mut pb = PlaybackBuffer::new(interval, SimDuration::from_millis(400));
        let pkts = make_packets(20);
        for fp in pkts.iter().take(15) {
            pb.push(fp[0].frame);
        }
        pb.start();
        // 15 frames * 33ms = 495ms > 400ms.
        assert!(!pb.below_fallback_threshold());
        for i in 0..4 {
            pb.tick(t(i * 33));
        }
        // 11 frames * 33ms = 363ms < 400ms.
        assert!(pb.below_fallback_threshold());
    }

    #[test]
    fn late_frames_dropped_at_playhead() {
        let interval = SimDuration::from_millis(33);
        let mut pb = PlaybackBuffer::new(interval, SimDuration::from_millis(400));
        let pkts = make_packets(3);
        pb.push(pkts[2][0].frame);
        pb.start();
        assert_eq!(
            pb.tick(t(0)).map(|h| h.dts_ms),
            Some(pkts[2][0].frame.dts_ms)
        );
        // An older frame arriving now is behind the playhead; a tick
        // prunes it instead of playing it.
        pb.push(pkts[0][0].frame);
        assert!(pb.tick(t(33)).is_none());
        assert!(pb.is_empty());
    }

    #[test]
    fn no_ticks_before_start() {
        let mut pb =
            PlaybackBuffer::new(SimDuration::from_millis(33), SimDuration::from_millis(400));
        let pkts = make_packets(1);
        pb.push(pkts[0][0].frame);
        assert!(pb.tick(t(0)).is_none());
        assert_eq!(pb.rebuffer_events(), 0);
    }
}
