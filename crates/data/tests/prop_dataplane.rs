//! Property-based tests of the data plane: in-order release under
//! arbitrary delivery interleavings, chain-merge consistency, and
//! recovery-decision sanity.

use proptest::prelude::*;
use rlive_data::recovery::{FrameState, RecoveryConfig, RecoveryDecider, RecoveryStats};
use rlive_data::reorder::{PacketSet, ReadyFrame, ReorderBuffer};
use rlive_data::sequencing::{GlobalChain, MatchResult};
use rlive_media::footprint::{ChainGenerator, LocalChain};
use rlive_media::frame::{FrameHeader, FrameType};
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::{packetize, DataPacket, PACKET_PAYLOAD};
use rlive_media::substream::substream_of;
use rlive_sim::{SimDuration, SimRng, SimTime};

/// Builds a stream's packets (per frame) with canonical chains.
fn stream_packets(n: usize, seed: u64) -> Vec<Vec<DataPacket>> {
    let mut gen = GopGenerator::new(9, GopConfig::default(), SimRng::new(seed));
    let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
    gen.take_frames(n)
        .into_iter()
        .map(|f| {
            let chain = cg.observe(&f.header);
            let ss = substream_of(&f.header, 4).0;
            packetize(&f, ss, &chain, 0)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With the session anchored at the first frame (the subscription
    /// start), arbitrary reordering of every subsequent packet still
    /// releases every frame exactly once, in source order. (Frames from
    /// *before* the anchor are late-joiner artifacts and are dropped by
    /// design: Algorithm 1 only extends the global chain forward.)
    #[test]
    fn reorder_releases_all_in_order(seed in 0u64..500, shuffle_seed in any::<u64>()) {
        let per_frame = stream_packets(25, seed);
        let mut rb = ReorderBuffer::new();
        let mut released: Vec<ReadyFrame> = Vec::new();
        // Anchor: the first packet of frame 0 arrives first.
        released.extend(rb.ingest(SimTime::ZERO, &per_frame[0][0]));
        let mut deliveries: Vec<&DataPacket> = per_frame
            .iter()
            .flatten()
            .skip(1)
            .collect();
        let mut rng = SimRng::new(shuffle_seed);
        rng.shuffle(&mut deliveries);
        for (i, p) in deliveries.iter().enumerate() {
            released.extend(rb.ingest(SimTime::from_millis(1 + i as u64), p));
        }
        prop_assert_eq!(released.len(), 25, "all frames must release");
        let dts: Vec<u64> = released.iter().map(|r| r.header.dts_ms).collect();
        let expected: Vec<u64> = per_frame.iter().map(|ps| ps[0].frame.dts_ms).collect();
        prop_assert_eq!(dts, expected);
        prop_assert_eq!(rb.skipped_count(), 0);
    }

    /// Duplicated deliveries change nothing but the duplicate counter.
    #[test]
    fn reorder_duplicates_idempotent(seed in 0u64..500, dup_seed in any::<u64>()) {
        let per_frame = stream_packets(12, seed);
        let mut rb = ReorderBuffer::new();
        let mut released = 0;
        let mut rng = SimRng::new(dup_seed);
        for (i, ps) in per_frame.iter().enumerate() {
            for p in ps {
                released += rb.ingest(SimTime::from_millis(i as u64 * 33), p).len();
                if rng.chance(0.5) {
                    released += rb.ingest(SimTime::from_millis(i as u64 * 33), p).len();
                }
            }
        }
        prop_assert_eq!(released, 12);
    }

    /// Any subset of chains merged in any order yields a dts sequence
    /// that is strictly increasing and a subsequence of the source order.
    #[test]
    fn chain_merge_consistency(
        seed in 0u64..200,
        subset_seed in any::<u64>(),
        keep in 0.3f64..1.0,
    ) {
        let mut gen = GopGenerator::new(3, GopConfig::default(), SimRng::new(seed));
        let frames = gen.take_frames(40);
        let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
        let chains: Vec<LocalChain> = frames.iter().map(|f| cg.observe(&f.header)).collect();
        let mut rng = SimRng::new(subset_seed);
        let mut gc = GlobalChain::new();
        for f in &frames {
            gc.ingest_header(f.header);
        }
        for c in &chains {
            if rng.chance(keep) {
                let _ = gc.ingest_chain(c);
            }
        }
        let seq = gc.dts_sequence();
        for w in seq.windows(2) {
            prop_assert!(w[0] < w[1], "chain out of order: {seq:?}");
        }
        // Every entry corresponds to a real frame.
        let source: std::collections::HashSet<u64> =
            frames.iter().map(|f| f.header.dts_ms).collect();
        for d in &seq {
            prop_assert!(source.contains(d));
        }
    }

    /// A corrupted footprint is never incorporated as LINKED.
    #[test]
    fn corrupted_chains_never_link(seed in 0u64..200, flip in any::<u32>()) {
        let mut gen = GopGenerator::new(3, GopConfig::default(), SimRng::new(seed));
        let frames = gen.take_frames(10);
        let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
        let chains: Vec<LocalChain> = frames.iter().map(|f| cg.observe(&f.header)).collect();
        let mut gc = GlobalChain::new();
        for f in &frames {
            gc.ingest_header(f.header);
        }
        gc.ingest_chain(&chains[4]);
        let mut forged = chains[7].footprints().to_vec();
        let last = forged.last_mut().unwrap();
        let flip = if flip == 0 { 1 } else { flip };
        last.crc ^= flip;
        let dts = last.dts_ms;
        match gc.ingest_chain(&LocalChain::new(forged)) {
            MatchResult::Rejected => {
                prop_assert!(gc.status_of(dts).is_none(), "forged entry survived");
            }
            MatchResult::Deferred => {}
            MatchResult::Matched => {
                // Matched can only happen if the forged tail was evicted
                // and nothing remains of it.
                prop_assert!(
                    gc.status_of(dts) != Some(rlive_data::sequencing::LinkStatus::Linked)
                );
            }
        }
    }

    /// The missing set and the out-of-order gap flag that
    /// `incomplete_frames` reports, computed a word at a time, agree
    /// with a per-index scan over any received set: a dense run (from
    /// index 0 half the time) plus picks, half of them just past the
    /// run's end, merged from one to three slices, sets that spill past
    /// 256 packets included.
    #[test]
    fn incomplete_frames_match_a_per_index_scan(
        expected in 1u32..700,
        slices in prop::collection::vec(
            (prop::collection::vec(any::<u32>(), 0..40), any::<u32>(), 0u32..300),
            1..4,
        ),
    ) {
        let header = FrameHeader { stream_id: 1, dts_ms: 0, frame_type: FrameType::P, size: 1 };
        let mut rb = ReorderBuffer::new();
        let mut received = vec![false; expected as usize];
        for (picks, run_start, run_len) in &slices {
            let start = if run_start % 2 == 0 { 0 } else { run_start % expected };
            let end = (start + run_len).min(expected);
            let pick = |&p: &u32| if p % 2 == 0 { p % expected } else { (end + p % 5) % expected };
            let set: PacketSet = picks.iter().map(pick).chain(start..end).collect();
            for i in 0..expected {
                if set.contains(i) {
                    received[i as usize] = true;
                }
            }
            let _ = rb.ingest_slice(SimTime::ZERO, header, 0, &set, expected, None);
            if received.iter().all(|&r| r) {
                // Complete: a later slice would start a fresh assembly.
                break;
            }
        }
        let missing: Vec<u32> = (0..expected).filter(|&i| !received[i as usize]).collect();
        let max_seen = (0..expected).filter(|&i| received[i as usize]).max().unwrap_or(0);
        let gap = (0..max_seen).any(|m| !received[m as usize]);
        let reported: Vec<_> = rb.incomplete_frames(SimTime::ZERO, SimDuration::ZERO).collect();
        if missing.is_empty() {
            prop_assert!(reported.is_empty(), "a complete frame was reported");
            return Ok(());
        }
        prop_assert_eq!(reported.len(), 1);
        let frame = &reported[0];
        prop_assert_eq!(frame.missing.len() as usize, missing.len());
        let listed: Vec<u32> = (0..expected + 128).filter(|&i| frame.missing.contains(i)).collect();
        prop_assert_eq!(listed, missing);
        prop_assert_eq!(frame.out_of_order_gap, gap);
    }

    /// Recovery decisions: loss is non-negative, the chosen action's
    /// loss is minimal among evaluated actions for single frames, and
    /// shrinking the deadline never makes best-effort MORE attractive
    /// relative to dedicated.
    #[test]
    fn recovery_decision_sanity(
        deadline_ms in 0u64..3_000,
        missing in 1u32..20,
        size in 1_000u32..100_000,
    ) {
        let decider = RecoveryDecider::new(RecoveryConfig::default());
        let stats = RecoveryStats::default();
        let f = FrameState {
            dts_ms: 1,
            deadline: SimDuration::from_millis(deadline_ms),
            size,
            missing_packets: missing,
            frame_type: FrameType::P,
            substream: 0,
        };
        let d = &decider.decide(std::slice::from_ref(&f), &stats)[0];
        prop_assert!(d.loss >= 0.0);
        prop_assert!((0.0..=1.0).contains(&d.failure_probability));
        for a in rlive_data::recovery::RecoveryAction::ALL {
            prop_assert!(decider.loss(a, &f, &stats) + 1e-9 >= d.loss);
        }
    }

    /// Failure probability is monotone non-increasing in the deadline
    /// for every action.
    #[test]
    fn failure_probability_monotone(missing in 1u32..10) {
        let decider = RecoveryDecider::new(RecoveryConfig::default());
        let stats = RecoveryStats::default();
        for action in rlive_data::recovery::RecoveryAction::ALL {
            let mut last = f64::INFINITY;
            for ms in (0..3_000).step_by(100) {
                let f = FrameState {
                    dts_ms: 1,
                    deadline: SimDuration::from_millis(ms),
                    size: 10_000,
                    missing_packets: missing,
                    frame_type: FrameType::P,
                    substream: 0,
                };
                let p = decider.failure_probability(action, &f, &stats);
                prop_assert!(p <= last + 1e-9, "{action:?} not monotone at {ms}");
                last = p;
            }
        }
    }
}

/// The gap flag's edge, past the inline words: a hole right below the
/// highest index received is a gap; a missing tail is not.
#[test]
fn gap_flag_sees_a_hole_right_below_the_highest_index() {
    let header = FrameHeader {
        stream_id: 1,
        dts_ms: 0,
        frame_type: FrameType::I,
        size: 1,
    };
    let report = |received: PacketSet| {
        let mut rb = ReorderBuffer::new();
        let _ = rb.ingest_slice(SimTime::ZERO, header, 0, &received, 300, None);
        let frame = rb
            .incomplete_frames(SimTime::ZERO, SimDuration::ZERO)
            .next();
        let frame = frame.expect("the frame is incomplete");
        let missing: Vec<u32> = (0..400).filter(|&i| frame.missing.contains(i)).collect();
        (missing, frame.out_of_order_gap)
    };
    let (missing, gap) = report((0..=260).filter(|&i| i != 259).collect());
    assert_eq!(
        missing,
        [259].into_iter().chain(261..300).collect::<Vec<_>>()
    );
    assert!(gap, "packet 260 arrived after the hole at 259");
    let (missing, gap) = report((0..259).collect());
    assert_eq!(missing, (259..300).collect::<Vec<_>>());
    assert!(!gap);
}
