//! Global-chain behaviours through the public API: a lost local chain
//! bridged by the next overlapping one, disconnected chains pooled and
//! drained, a forged footprint rejected with the unlinked tail, entries
//! that wait for their headers, and a pool of dead chains.

use rlive_data::sequencing::{GlobalChain, LinkStatus, MatchResult};
use rlive_media::footprint::{ChainGenerator, LocalChain};
use rlive_media::frame::FrameHeader;
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
