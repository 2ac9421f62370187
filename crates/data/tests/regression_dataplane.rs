//! Deterministic regression pins for the data plane.
//!
//! `prop_dataplane.proptest-regressions` records the shrunk inputs of
//! historical property-test failures, but that file only replays under
//! the full proptest harness. Each entry is therefore *also* pinned here
//! as a plain unit test with the exact shrunk values, so the case keeps
//! running even if the regressions file is deleted or the property-test
//! harness changes how it seeds cases.

use rlive_data::reorder::{ReadyFrame, ReorderBuffer};
use rlive_media::footprint::ChainGenerator;
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::{packetize, DataPacket, PACKET_PAYLOAD};
use rlive_media::substream::substream_of;
use rlive_sim::{SimRng, SimTime};

/// Builds a stream's packets (per frame) with canonical chains, exactly
/// as `prop_dataplane.rs` does.
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

/// Replays one `reorder_releases_all_in_order` interleaving and asserts
/// the release-all-in-order invariant.
fn check_reorder_case(seed: u64, shuffle_seed: u64) {
    let per_frame = stream_packets(25, seed);
    let mut rb = ReorderBuffer::new();
    let mut released: Vec<ReadyFrame> = Vec::new();
    // Anchor: the first packet of frame 0 arrives first.
    released.extend(rb.ingest(SimTime::ZERO, &per_frame[0][0]));
    let mut deliveries: Vec<&DataPacket> = per_frame.iter().flatten().skip(1).collect();
    let mut rng = SimRng::new(shuffle_seed);
    rng.shuffle(&mut deliveries);
    for (i, p) in deliveries.iter().enumerate() {
        released.extend(rb.ingest(SimTime::from_millis(1 + i as u64), p));
    }
    assert_eq!(
        released.len(),
        25,
        "all frames must release (seed {seed}, shuffle_seed {shuffle_seed})"
    );
    let dts: Vec<u64> = released.iter().map(|r| r.header.dts_ms).collect();
    let expected: Vec<u64> = per_frame.iter().map(|ps| ps[0].frame.dts_ms).collect();
    assert_eq!(dts, expected, "frames must release in source order");
    assert_eq!(rb.skipped_count(), 0, "no frame may be skipped");
}

/// The persisted proptest regression
/// (`cc 984f2783…` in `prop_dataplane.proptest-regressions`):
/// `seed = 76, shuffle_seed = 11882945296177`.
#[test]
fn reorder_regression_seed76() {
    check_reorder_case(76, 11882945296177);
}

/// Neighbouring interleavings of the regression's stream, so a fix that
/// only special-cases the exact shuffle cannot sneak through.
#[test]
fn reorder_regression_seed76_neighbourhood() {
    for delta in 0..16u64 {
        check_reorder_case(76, 11882945296177 ^ delta);
    }
}
