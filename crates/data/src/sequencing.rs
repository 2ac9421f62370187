//! Distributed frame sequencing: the client-side global chain and the
//! chain-matching algorithm (§5.2, Algorithm 1 of the paper).
//!
//! Every relay embeds a *local chain* — the footprints of the last δ
//! frames of the stream — in each data packet. The client merges these
//! local chains into a single *global chain* that defines playout order:
//!
//! 1. a local chain attaches only if it contains the terminal frame of
//!    the global chain (continuity check); unmatched tail frames are
//!    appended with `UNLINKED` status;
//! 2. each appended frame is then CRC-validated against the frame
//!    headers the client has actually received (the data pool); frames
//!    that validate become `LINKED`;
//! 3. any validation failure evicts all `UNLINKED` frames, preserving
//!    chain integrity;
//! 4. chains that cannot attach yet (their predecessors are still in
//!    flight) wait in a `misMatchChains` pool and are retried after
//!    every successful merge.

use crate::ring::SeqRing;
use rlive_media::crc::Crc32;
use rlive_media::footprint::{Footprint, LocalChain, CRC_DEPTH};
use rlive_media::frame::{FrameHeader, FrameType};
use rlive_sim::SimTime;
use std::collections::VecDeque;

/// Link status of a global-chain entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkStatus {
    /// Appended from a local chain but not yet CRC-validated.
    Unlinked,
    /// Validated against received frame headers.
    Linked,
}

/// Outcome of offering one local chain to the global chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchResult {
    /// The chain extended (or was already contained in) the global chain.
    Matched,
    /// The chain does not connect yet; it was pooled for retry.
    Deferred,
    /// The chain conflicted with validated history and was rejected.
    Rejected,
}

/// One frame in the chain's dts-keyed table: its received header (the
/// data pool; the stream id is stored once per chain) and the reorder
/// buffer's chain announcement and completion. A record leaves the
/// table when its last field clears.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FrameRecord {
    /// First time an embedded chain announced the frame.
    pub(crate) announced_at: SimTime,
    /// When the frame last finished reassembly.
    pub(crate) completed_at: SimTime,
    size: u32,
    /// Packet count from the announcing footprint.
    pub(crate) announced_cnt: u32,
    /// The received header's frame type; `None` while no header is held.
    frame_type: Option<FrameType>,
    pub(crate) announced: bool,
    pub(crate) completed: bool,
}

// Every session holds a slot per frame in flight, so the slot is the
// unit of per-session sequencing state.
const _: () = assert!(std::mem::size_of::<(u64, FrameRecord)>() <= 40);

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
    entries: VecDeque<Footprint>,
    /// Leading entries that are `LINKED`: validation links entries in
    /// chain order, so the rest are `UNLINKED`.
    linked: usize,
    /// The frame table: its headers (received, not yet consumed) are
    /// the "data pool" used for CRC validation.
    frames: SeqRing<FrameRecord>,
    /// Stream of every header in the pool, taken from the first one.
    stream_id: u64,
    /// Records holding a completion.
    completed: usize,
    /// Local chains that could not attach yet.
    mismatched: Vec<LocalChain>,
    /// Newest head dts over `mismatched` (0 when empty): the pool is all
    /// dead once `consumed_until` reaches it.
    mismatched_newest: u64,
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
            linked: 0,
            frames: SeqRing::new(),
            stream_id: 0,
            completed: 0,
            mismatched: Vec::new(),
            mismatched_newest: 0,
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
            self.stream_id = header.stream_id;
        }
        debug_assert_eq!(header.stream_id, self.stream_id, "one stream per chain");
        let record = self
            .frames
            .get_or_insert_with(header.dts_ms, FrameRecord::default);
        record.frame_type = Some(header.frame_type);
        record.size = header.size;
        self.revalidate();
    }

    /// The received header at `dts`, if the pool holds it.
    fn header(&self, dts: u64) -> Option<FrameHeader> {
        let record = self.frames.get(dts)?;
        Some(FrameHeader {
            stream_id: self.stream_id,
            dts_ms: dts,
            frame_type: record.frame_type?,
            size: record.size,
        })
    }

    /// Clears one field, through `clear`, on every record at or below
    /// `dts`, dropping the records left empty.
    fn clear_through(&mut self, dts: u64, clear: impl Fn(&mut FrameRecord)) {
        self.frames.retain_below(dts.saturating_add(1), |r| {
            clear(r);
            r.frame_type.is_some() || r.announced || r.completed
        });
    }

    /// The frame table in ascending dts.
    pub(crate) fn records(&self) -> impl Iterator<Item = (u64, &FrameRecord)> + '_ {
        self.frames.iter()
    }

    pub(crate) fn record(&self, dts: u64) -> Option<&FrameRecord> {
        self.frames.get(dts)
    }

    /// Records a chain announcement of `dts`; the first one seen wins.
    pub(crate) fn announce(&mut self, dts: u64, now: SimTime, cnt: u32) {
        let record = self.frames.get_or_insert_with(dts, FrameRecord::default);
        if !record.announced {
            (record.announced, record.announced_at, record.announced_cnt) = (true, now, cnt);
        }
    }

    /// Drops every announcement at or below `dts`.
    pub(crate) fn clear_announced_through(&mut self, dts: u64) {
        self.clear_through(dts, |r| r.announced = false);
    }

    /// Marks `dts` complete at `now`; the last completion wins. Every
    /// completion follows the ingest of the frame's header.
    pub(crate) fn complete(&mut self, dts: u64, now: SimTime) {
        let record = self.frames.get_or_insert_with(dts, FrameRecord::default);
        let first = !record.completed;
        (record.completed, record.completed_at) = (true, now);
        self.completed += usize::from(first);
    }

    /// Clears the completion at `dts`, returning when it completed. An
    /// emptied record goes with the next clear through its dts.
    pub(crate) fn take_completed(&mut self, dts: u64) -> Option<SimTime> {
        let record = self.frames.get_mut(dts).filter(|r| r.completed)?;
        record.completed = false;
        self.completed -= 1;
        Some(record.completed_at)
    }

    /// Number of records holding a completion.
    pub(crate) fn completed_count(&self) -> usize {
        self.completed
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
        self.entries.iter().map(|fp| fp.dts_ms).collect()
    }

    /// The status of the entry for `dts`, if present.
    pub fn status_of(&self, dts: u64) -> Option<LinkStatus> {
        let i = self.entries.iter().position(|fp| fp.dts_ms == dts)?;
        Some(if i < self.linked {
            LinkStatus::Linked
        } else {
            LinkStatus::Unlinked
        })
    }

    /// Validates `footprint` at position `idx` of the chain by
    /// recomputing its CRC from the headers of it and its (up to)
    /// `CRC_DEPTH` predecessors. `None` means "cannot validate yet"
    /// (headers missing); `Some(bool)` is the verdict.
    fn validate_at(&self, idx: usize) -> Option<bool> {
        let fp = &self.entries[idx];
        let header = self.header(fp.dts_ms)?;
        let start = idx.saturating_sub(CRC_DEPTH);
        let mut prior = [header; CRC_DEPTH];
        let mut n = 0;
        // When the chain holds fewer than CRC_DEPTH predecessors, fill
        // from the tail context (headers of recently consumed frames).
        let need_from_tail = CRC_DEPTH - (idx - start);
        let tl = self.tail_context.len();
        for h in self.tail_context.range(tl.saturating_sub(need_from_tail)..) {
            prior[n] = *h;
            n += 1;
        }
        for e in self.entries.range(start..idx) {
            prior[n] = self.header(e.dts_ms)?;
            n += 1;
        }
        if n < CRC_DEPTH {
            // Mid-stream join (or true stream head): the relay's CRC
            // context cannot be reconstructed, so the first CRC_DEPTH
            // entries are accepted on header presence alone. Everything
            // after them gets full validation.
            return Some(true);
        }
        let mut crc = Crc32::new();
        for p in &prior[..n] {
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
        let fps = lchain.footprints();
        // Bootstrap: adopt the first chain wholesale.
        if self.entries.is_empty() {
            // Skip consumed frames and frames from before this client joined.
            let (consumed, floor) = (self.consumed_until, self.join_floor);
            self.entries.extend(fps.iter().filter(|fp| {
                consumed.is_none_or(|c| fp.dts_ms > c) && floor.is_none_or(|f| fp.dts_ms >= f)
            }));
            self.revalidate();
            return MatchResult::Matched;
        }

        // A "dead" chain (head at or below `consumed_until`) holds neither
        // the terminal nor only known entries — every entry lies above
        // it and chains run in dts order — so the scans below could only
        // answer Deferred. (With no entries the bootstrap matches it.)
        let head = lchain.head().expect("checked non-empty");
        if let Some(c) = self.consumed_until.filter(|&c| head.dts_ms <= c) {
            debug_assert!(self.entries.front().is_some_and(|e| e.dts_ms > c));
            return MatchResult::Deferred;
        }
        let terminal = *self.entries.back().expect("chain non-empty");
        // Lines 2–10: scan lchain; once the terminal frame of gChain is
        // found, append the following frames as UNLINKED.
        let Some(at) = fps.iter().position(|fp| *fp == terminal) else {
            // Also accept chains fully contained in gChain (no-ops):
            // every footprint already present means nothing to do.
            if fps.iter().all(|fp| self.entries.contains(fp)) {
                return MatchResult::Matched;
            }
            return MatchResult::Deferred;
        };
        self.entries.extend(&fps[at + 1..]);
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
        debug_assert!(self.linked <= self.entries.len());
        while self.linked < self.entries.len() {
            match self.validate_at(self.linked) {
                Some(true) => self.linked += 1,
                Some(false) => {
                    // Push out the unlinked frames from gChain.
                    self.entries.truncate(self.linked);
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
                if self.mismatched.len() < self.max_mismatched && !self.mismatched.contains(lchain)
                {
                    self.mismatched.push(*lchain);
                    let head = lchain.head().expect("deferred chains are non-empty");
                    self.mismatched_newest = self.mismatched_newest.max(head.dts_ms);
                }
            }
            MatchResult::Rejected => {}
        }
        result
    }

    /// Retries pooled chains until a round makes no progress, keeping
    /// the deferred ones in pool order.
    fn drain_mismatched(&mut self) {
        // All pooled chains dead: while entries remain each answers
        // Deferred in O(1) and keeps its slot, so a round changes
        // nothing. (With no entries the bootstrap still matches them.)
        let newest = self.mismatched_newest;
        if !self.entries.is_empty() && self.consumed_until.is_some_and(|c| newest <= c) {
            return;
        }
        // `try_match` never touches the pool, so it is retried in place.
        let mut pool = std::mem::take(&mut self.mismatched);
        let mut progressed = true;
        while progressed {
            progressed = false;
            pool.retain(|chain| match self.try_match(chain) {
                MatchResult::Matched => {
                    progressed = true;
                    false
                }
                MatchResult::Deferred => true,
                MatchResult::Rejected => false,
            });
        }
        let heads = pool.iter().filter_map(LocalChain::head);
        self.mismatched_newest = heads.map(|h| h.dts_ms).max().unwrap_or(0);
        self.mismatched = pool;
    }

    /// Pops the head of the chain if it is `LINKED`, handing it to the
    /// playout path. Returns the footprint so the caller can check frame
    /// completeness (`cnt`).
    pub fn pop_linked_head(&mut self) -> Option<Footprint> {
        if self.linked == 0 {
            return None;
        }
        self.consume_head()
    }

    /// Force-pops the head entry regardless of status — the playout
    /// deadline passed and the player is skipping the frame. The entry
    /// is treated as consumed so late recoveries are deduplicated.
    pub fn force_pop_head(&mut self) -> Option<Footprint> {
        let fp = self.consume_head()?;
        // Successors may have been waiting on the removed entry's
        // validation; re-run so already-received frames can link now.
        self.revalidate();
        Some(fp)
    }

    /// Pops the head entry, out of the linked prefix if it is linked,
    /// and marks it consumed: its header moves into the tail context,
    /// and every header at or below it leaves the data pool (a record
    /// that still holds an announcement or a completion stays). Exact
    /// because the pool is only read at the dts of a chain entry or of
    /// the frame being popped, and every entry lies above the consumed
    /// head (the bootstrap skips consumed frames; chains run in dts order).
    fn consume_head(&mut self) -> Option<Footprint> {
        let fp = self.entries.pop_front()?;
        self.linked = self.linked.saturating_sub(1);
        self.consumed_until = Some(fp.dts_ms);
        if let Some(h) = self.header(fp.dts_ms) {
            self.tail_context.push_back(h);
            while self.tail_context.len() > CRC_DEPTH {
                self.tail_context.pop_front();
            }
        } else {
            // Without the header the CRC context breaks; clear it so
            // successors fall back to unverifiable-accept. (A linked
            // head always has its header.)
            self.tail_context.clear();
        }
        debug_assert!(self.entries.iter().all(|e| e.dts_ms > fp.dts_ms));
        self.clear_through(fp.dts_ms, |record| record.frame_type = None);
        Some(fp)
    }

    /// The frame header of the chain head, if its header was received.
    pub fn head_header(&self) -> Option<FrameHeader> {
        self.header(self.entries.front()?.dts_ms)
    }

    /// Reads (without popping) the head footprint and status.
    pub fn head(&self) -> Option<(Footprint, LinkStatus)> {
        let fp = *self.entries.front()?;
        Some((fp, self.status_of(fp.dts_ms)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlive_media::footprint::{ChainGenerator, CHAIN_LEN};
    use rlive_media::gop::{GopConfig, GopGenerator};
    use rlive_media::packet::PACKET_PAYLOAD;
    use rlive_sim::SimRng;

    /// Produces (headers, per-frame local chains) for a synthetic stream.
    fn stream(n: usize) -> (Vec<FrameHeader>, Vec<LocalChain>) {
        let mut g = GopGenerator::new(3, GopConfig::default(), SimRng::new(11));
        let headers: Vec<FrameHeader> = g.take_frames(n).iter().map(|f| f.header).collect();
        let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
        let chains = headers.iter().map(|h| cg.observe(h)).collect();
        (headers, chains)
    }

    #[test]
    fn in_order_single_source_links_everything() {
        let (headers, chains) = stream(20);
        let mut gc = GlobalChain::new();
        for (h, c) in headers.iter().zip(&chains) {
            gc.ingest_header(*h);
            assert_eq!(gc.ingest_chain(c), MatchResult::Matched);
        }
        assert_eq!(gc.len(), 20);
        for h in &headers {
            assert_eq!(gc.status_of(h.dts_ms), Some(LinkStatus::Linked));
        }
    }

    #[test]
    fn chain_order_matches_stream_order() {
        let (headers, chains) = stream(30);
        let mut gc = GlobalChain::new();
        for (h, c) in headers.iter().zip(&chains) {
            gc.ingest_header(*h);
            gc.ingest_chain(c);
        }
        let expected: Vec<u64> = headers.iter().map(|h| h.dts_ms).collect();
        assert_eq!(gc.dts_sequence(), expected);
    }

    #[test]
    fn two_sources_interleaved() {
        // Frames alternate between two relays; each relay's chains cover
        // all frames (both observe the full header sequence), so the
        // client can merge either relay's chain stream.
        let (headers, chains) = stream(40);
        let mut gc = GlobalChain::new();
        for i in 0..40 {
            gc.ingest_header(headers[i]);
            // Only the relay serving this frame's substream delivers its
            // chain, but chains are identical across relays.
            gc.ingest_chain(&chains[i]);
        }
        assert_eq!(gc.len(), 40);
    }

    #[test]
    fn pop_linked_head_consumes_in_order() {
        let (headers, chains) = stream(12);
        let mut gc = GlobalChain::new();
        for (h, c) in headers.iter().zip(&chains) {
            gc.ingest_header(*h);
            gc.ingest_chain(c);
        }
        let mut popped = Vec::new();
        while let Some(fp) = gc.pop_linked_head() {
            popped.push(fp.dts_ms);
        }
        assert_eq!(popped, headers.iter().map(|h| h.dts_ms).collect::<Vec<_>>());
        assert!(gc.is_empty());
    }

    #[test]
    fn pop_stops_at_unlinked() {
        let (headers, chains) = stream(8);
        let mut gc = GlobalChain::new();
        // Headers only for the first two frames.
        gc.ingest_header(headers[0]);
        gc.ingest_header(headers[1]);
        gc.ingest_chain(&chains[3]);
        assert!(gc.pop_linked_head().is_some());
        assert!(gc.pop_linked_head().is_some());
        assert!(gc.pop_linked_head().is_none(), "f2 lacks a header");
    }

    #[test]
    fn duplicate_chains_are_idempotent() {
        let (headers, chains) = stream(10);
        let mut gc = GlobalChain::new();
        for (h, c) in headers.iter().zip(&chains) {
            gc.ingest_header(*h);
            gc.ingest_chain(c);
            gc.ingest_chain(c);
        }
        assert_eq!(gc.len(), 10);
    }

    #[test]
    fn header_pool_holds_only_unconsumed_frames() {
        let (headers, chains) = stream(2_000);
        let mut gc = GlobalChain::new();
        let mut peak = 0;
        for (h, c) in headers.iter().zip(&chains) {
            gc.ingest_header(*h);
            gc.ingest_chain(c);
            while gc.pop_linked_head().is_some() {}
            peak = peak.max(gc.frames.len());
        }
        assert!(peak <= CHAIN_LEN, "header pool peaked at {peak}");
    }

    #[test]
    fn mismatch_pool_bounded() {
        let (_, chains) = stream(600);
        let mut gc = GlobalChain::new();
        gc.ingest_chain(&chains[0]);
        // Flood with far-future chains that never connect.
        for c in chains.iter().skip(100) {
            gc.ingest_chain(c);
        }
        assert!(gc.mismatched_count() <= 64);
    }
}
