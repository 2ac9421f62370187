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
use rlive_media::frame::FrameHeader;
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
    /// Frame headers received and not yet consumed, ring-indexed by dts
    /// — the "data pool" used for CRC validation.
    headers: SeqRing<FrameHeader>,
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
            headers: SeqRing::new(),
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

    /// Validates `footprint` at position `idx` of the chain by
    /// recomputing its CRC from the headers of it and its (up to)
    /// `CRC_DEPTH` predecessors. `None` means "cannot validate yet"
    /// (headers missing); `Some(bool)` is the verdict.
    fn validate_at(&self, idx: usize) -> Option<bool> {
        let fp = &self.entries[idx].footprint;
        let header = self.headers.get(fp.dts_ms)?;
        let start = idx.saturating_sub(CRC_DEPTH);
        let mut prior = [*header; CRC_DEPTH];
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
            prior[n] = *self.headers.get(e.footprint.dts_ms)?;
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

        // A "dead" chain (head at or below `consumed_until`) holds neither
        // the terminal nor only known entries — every entry lies above
        // it and chains run in dts order — so the scans below could only
        // answer Deferred. (With no entries the bootstrap matches it.)
        let head = lchain.head().expect("checked non-empty");
        if let Some(c) = self.consumed_until.filter(|&c| head.dts_ms <= c) {
            debug_assert!(self.entries.front().is_some_and(|e| e.footprint.dts_ms > c));
            return MatchResult::Deferred;
        }
        let terminal = self.entries.back().expect("chain non-empty").footprint;
        // Lines 2–10: scan lchain; once the terminal frame of gChain is
        // found, append the following frames as UNLINKED.
        let mut find_cont = false;
        for fp in lchain.footprints() {
            if find_cont {
                self.entries.push_back(Entry {
                    footprint: *fp,
                    status: LinkStatus::Unlinked,
                });
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
        match self.entries.front() {
            Some(e) if e.status == LinkStatus::Linked => {
                let fp = e.footprint;
                self.entries.pop_front();
                self.consume(fp);
                Some(fp)
            }
            _ => None,
        }
    }

    /// Force-pops the head entry regardless of status — the playout
    /// deadline passed and the player is skipping the frame. The entry
    /// is treated as consumed so late recoveries are deduplicated.
    pub fn force_pop_head(&mut self) -> Option<Footprint> {
        let fp = self.entries.pop_front()?.footprint;
        self.consume(fp);
        // Successors may have been waiting on the removed entry's
        // validation; re-run so already-received frames can link now.
        self.revalidate();
        Some(fp)
    }

    /// Marks the just-popped `fp` consumed: its header moves into the
    /// tail context, and every header at or below it leaves the data
    /// pool. Exact because the pool is only read at the dts of a chain
    /// entry or of the frame being popped, and every entry lies above
    /// the consumed head (the bootstrap skips consumed frames; chains
    /// run in dts order).
    fn consume(&mut self, fp: Footprint) {
        self.consumed_until = Some(fp.dts_ms);
        if let Some(h) = self.headers.get(fp.dts_ms) {
            self.tail_context.push_back(*h);
            while self.tail_context.len() > CRC_DEPTH {
                self.tail_context.pop_front();
            }
        } else {
            // Without the header the CRC context breaks; clear it so
            // successors fall back to unverifiable-accept. (A linked
            // head always has its header.)
            self.tail_context.clear();
        }
        debug_assert!(self.entries.iter().all(|e| e.footprint.dts_ms > fp.dts_ms));
        self.headers.evict_below(fp.dts_ms + 1);
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
    fn lost_chain_recovered_by_next_overlapping_chain() {
        // The Fig 7(b) scenario: one local chain is lost entirely, but
        // the next chain overlaps the global chain's terminal frame and
        // extends it across the gap (δ=4 tolerates short gaps).
        let (headers, chains) = stream(10);
        let mut gc = GlobalChain::new();
        for h in &headers {
            gc.ingest_header(*h);
        }
        gc.ingest_chain(&chains[3]); // gChain = f0..f3
                                     // chains[4] lost; chains[5] covers f2..f5 and overlaps f3.
        assert_eq!(gc.ingest_chain(&chains[5]), MatchResult::Matched);
        assert_eq!(gc.len(), 6);
        assert_eq!(gc.status_of(headers[5].dts_ms), Some(LinkStatus::Linked));
    }

    #[test]
    fn disconnected_chain_deferred_then_merged() {
        let (headers, chains) = stream(16);
        let mut gc = GlobalChain::new();
        for h in &headers {
            gc.ingest_header(*h);
        }
        gc.ingest_chain(&chains[3]); // f0..f3
                                     // A chain far ahead cannot connect: f8..f11.
        assert_eq!(gc.ingest_chain(&chains[11]), MatchResult::Deferred);
        assert_eq!(gc.mismatched_count(), 1);
        // The bridging chain f5..f8 also cannot connect (terminal f3 not
        // inside), deferred too.
        assert_eq!(gc.ingest_chain(&chains[8]), MatchResult::Deferred);
        // f3..f6 arrives: connects, then drains the pool transitively.
        assert_eq!(gc.ingest_chain(&chains[6]), MatchResult::Matched);
        assert_eq!(gc.len(), 12, "chain: {:?}", gc.dts_sequence());
        assert_eq!(gc.mismatched_count(), 0);
    }

    #[test]
    fn corrupted_footprint_rejected_and_unlinked_evicted() {
        let (headers, chains) = stream(8);
        let mut gc = GlobalChain::new();
        for h in &headers {
            gc.ingest_header(*h);
        }
        gc.ingest_chain(&chains[3]);
        let good_len = gc.len();
        // Forge a chain whose appended tail has a wrong CRC.
        let mut footprints = chains[5].footprints().to_vec();
        let last = footprints.last_mut().expect("non-empty");
        last.crc ^= 0xDEAD_BEEF;
        let forged = LocalChain::new(footprints);
        assert_eq!(gc.ingest_chain(&forged), MatchResult::Rejected);
        // All linked frames survive; the corrupt tail is gone.
        assert_eq!(gc.len(), good_len + 1, "only the valid f4 entry stays");
        assert_eq!(gc.status_of(headers[5].dts_ms), None);
        // The genuine chain can still attach afterwards.
        assert_eq!(gc.ingest_chain(&chains[5]), MatchResult::Matched);
        assert_eq!(gc.status_of(headers[5].dts_ms), Some(LinkStatus::Linked));
    }

    #[test]
    fn validation_waits_for_headers() {
        let (headers, chains) = stream(6);
        let mut gc = GlobalChain::new();
        // Chains arrive before any headers (data packets lost): entries
        // stay UNLINKED.
        gc.ingest_chain(&chains[3]);
        assert_eq!(gc.status_of(headers[0].dts_ms), Some(LinkStatus::Unlinked));
        // Headers trickle in; entries link progressively.
        for h in &headers[..4] {
            gc.ingest_header(*h);
        }
        for h in &headers[..4] {
            assert_eq!(gc.status_of(h.dts_ms), Some(LinkStatus::Linked));
        }
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
            peak = peak.max(gc.headers.len());
        }
        assert!(peak <= CHAIN_LEN, "header pool peaked at {peak}");
    }

    #[test]
    fn dead_pool_waits_while_entries_remain_and_drains_through_bootstrap() {
        let (headers, chains) = stream(8);
        let mut gc = GlobalChain::new();
        for (h, c) in headers.iter().zip(&chains) {
            gc.ingest_header(*h);
            gc.ingest_chain(c);
        }
        for _ in 0..6 {
            gc.pop_linked_head().expect("f0..f5 are linked");
        }
        // f2..f5 is wholly consumed while f6, f7 remain: dead, pooled.
        assert_eq!(gc.ingest_chain(&chains[5]), MatchResult::Deferred);
        assert_eq!(gc.mismatched_count(), 1);
        // A merge with entries present leaves the dead chain in place.
        assert_eq!(gc.ingest_chain(&chains[7]), MatchResult::Matched);
        assert_eq!(gc.mismatched_count(), 1);
        while gc.pop_linked_head().is_some() {}
        assert!(gc.is_empty());
        // With no entries a consumed chain bootstraps to nothing and
        // matches, and the drain sends the pooled one the same way.
        assert_eq!(gc.ingest_chain(&chains[6]), MatchResult::Matched);
        assert!(gc.is_empty());
        assert_eq!(gc.mismatched_count(), 0);
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
