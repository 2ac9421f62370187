//! Cross-crate data-plane integration: media generation → relay-side
//! chaining/packetisation → client-side reordering and recovery
//! decisions, exercised together the way the world wires them.

use rlive_data::recovery::{
    FrameState, RecoveryAction, RecoveryConfig, RecoveryDecider, RecoveryStats,
};
use rlive_data::reorder::{PacketSet, ReadyFrame, ReorderBuffer};
use rlive_data::sequencing::GlobalChain;
use rlive_media::footprint::ChainGenerator;
use rlive_media::frame::Frame;
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::{packetize, DataPacket, PACKET_PAYLOAD};
use rlive_media::substream::substream_of;
use rlive_sim::{SimDuration, SimRng, SimTime};

const K: u16 = 4;

/// Builds a stream's frames with per-frame packets, exactly as relays
/// would push them.
fn build_stream(n: usize, seed: u64) -> Vec<(Frame, Vec<DataPacket>)> {
    let mut gen = GopGenerator::new(5, GopConfig::default(), SimRng::new(seed));
    let mut chains = ChainGenerator::new(PACKET_PAYLOAD);
    gen.take_frames(n)
        .into_iter()
        .map(|f| {
            let chain = chains.observe(&f.header);
            let ss = substream_of(&f.header, K).0;
            let pkts = packetize(&f, ss, &chain, ss as u32);
            (f, pkts)
        })
        .collect()
}

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

#[test]
fn multi_source_stream_reassembles_in_order() {
    let stream = build_stream(120, 1);
    let mut rb = ReorderBuffer::new();
    let mut released: Vec<ReadyFrame> = Vec::new();
    // Substreams arrive with different skews, as four relays would push.
    let mut deliveries: Vec<(u64, &DataPacket)> = Vec::new();
    for (i, (f, pkts)) in stream.iter().enumerate() {
        let ss = substream_of(&f.header, K).0 as u64;
        for p in pkts {
            deliveries.push((i as u64 * 33 + ss * 7 + p.packet_index as u64, p));
        }
    }
    deliveries.sort_by_key(|(at, p)| (*at, p.frame.dts_ms, p.packet_index));
    for (at, p) in deliveries {
        released.extend(rb.ingest(t(at), p));
    }
    assert_eq!(released.len(), 120);
    for (r, (f, _)) in released.iter().zip(&stream) {
        assert_eq!(r.header.dts_ms, f.header.dts_ms);
    }
    assert_eq!(rb.skipped_count(), 0);
}

#[test]
fn lost_substream_detected_and_recoverable_via_decider() {
    let stream = build_stream(60, 2);
    let mut rb = ReorderBuffer::new();
    // Drop every packet of substream 2 (its relay died); deliver rest.
    let dead_ss = 2u16;
    let mut recovered = 0;
    for (i, (f, pkts)) in stream.iter().enumerate() {
        let ss = substream_of(&f.header, K).0;
        if ss == dead_ss {
            continue;
        }
        for p in pkts {
            recovered += rb.ingest(t(i as u64 * 33), p).len();
        }
    }
    // Chains from surviving relays announce the missing frames.
    let now = t(60 * 33 + 500);
    let missing: Vec<_> = rb
        .missing_chain_frames(now, SimDuration::from_millis(120))
        .collect();
    assert!(!missing.is_empty(), "dead substream's frames must surface");
    for (dts, _) in &missing {
        let f = stream
            .iter()
            .find(|(f, _)| f.header.dts_ms == *dts)
            .expect("announced frame exists");
        assert_eq!(substream_of(&f.0.header, K).0, dead_ss);
    }

    // The decider escalates a substream-wide burst to a switch.
    let decider = RecoveryDecider::new(RecoveryConfig::default());
    let stats = RecoveryStats::default();
    let states: Vec<FrameState> = missing
        .iter()
        .map(|&(dts, cnt)| FrameState {
            dts_ms: dts,
            deadline: SimDuration::from_millis(400),
            size: cnt * 1000,
            missing_packets: cnt,
            frame_type: rlive_media::frame::FrameType::P,
            substream: dead_ss,
        })
        .collect();
    let decisions = decider.decide(&states, &stats);
    assert!(
        decisions
            .iter()
            .all(|d| d.action == RecoveryAction::SwitchSubstream),
        "{decisions:?}"
    );

    // Recovered frames (whole-frame dedicated retrievals) unblock the
    // stream in order. Frames of the dead substream from *before* the
    // session anchor (the first frame whose data arrived) are excluded
    // by the join floor, so the expected count starts at the anchor.
    let anchor_idx = stream
        .iter()
        .position(|(f, _)| substream_of(&f.header, K).0 != dead_ss)
        .expect("some substream survives");
    // A dead frame is *announced* (enters the global chain) only if an
    // alive frame within the chain length δ−1 = 3 after it delivered a
    // chain covering it. Frames inside longer dead runs have data but no
    // order info and correctly stay unreleased (a live session keeps
    // announcing; this finite test stream ends).
    let alive = |i: usize| substream_of(&stream[i].0.header, K).0 != dead_ss;
    let announced = |i: usize| (i..stream.len().min(i + 4)).any(alive);
    let expected = (anchor_idx..stream.len())
        .filter(|&i| alive(i) || announced(i))
        .count();
    for (f, _) in &stream {
        if substream_of(&f.header, K).0 == dead_ss {
            recovered += rb.ingest_whole_frame(now, f.header).len();
        } else {
            recovered += rb.drain_ready(now).len();
        }
    }
    assert_eq!(recovered, expected);
}

#[test]
fn packet_loss_recovery_round_trip() {
    let stream = build_stream(30, 3);
    let mut rb = ReorderBuffer::new();
    let mut dropped: Vec<&DataPacket> = Vec::new();
    let mut rng = SimRng::new(77);
    for (i, (_, pkts)) in stream.iter().enumerate() {
        for p in pkts {
            if rng.chance(0.08) {
                dropped.push(p);
            } else {
                rb.ingest(t(i as u64 * 33), p);
            }
        }
    }
    assert!(!dropped.is_empty(), "loss process must drop something");
    let now = t(2_000);
    let incomplete: Vec<_> = rb
        .incomplete_frames(now, SimDuration::from_millis(100))
        .collect();
    // Every incomplete frame corresponds to dropped packets.
    for f in &incomplete {
        for m in (0..f.expected).filter(|&m| f.missing.contains(m)) {
            assert!(
                dropped
                    .iter()
                    .any(|p| p.frame.dts_ms == f.header.dts_ms && p.packet_index == m),
                "missing packet {m} of dts {} was not dropped",
                f.header.dts_ms
            );
        }
    }
    // Retransmit everything; the stream completes fully in order, with
    // the join floor excluding only frames wholly lost before the first
    // successful delivery.
    let anchor_dts = rb.chain().dts_sequence().first().copied().unwrap_or(0);
    let mut released = 0;
    for p in &dropped {
        released += rb.ingest(now, p).len();
    }
    released += rb.drain_ready(now).len();
    // Everything still assembling or blocked must be empty now.
    assert_eq!(rb.assembling_count(), 0, "incomplete frames remain");
    assert_eq!(rb.blocked_complete(), 0, "blocked frames remain");
    let _ = (released, anchor_dts);
}

#[test]
fn deadline_skip_bounds_stall() {
    let stream = build_stream(40, 4);
    let mut rb = ReorderBuffer::new();
    // Frame 10 lost entirely; everything else arrives.
    for (i, (f, pkts)) in stream.iter().enumerate() {
        if i == 10 {
            continue;
        }
        let _ = f;
        for p in pkts {
            rb.ingest(t(i as u64 * 33), p);
        }
    }
    assert!(rb.blocked_complete() > 0, "frames pile behind the hole");
    assert!(rb.head_blocked_since().is_some());
    let released = rb.skip_blocked_head(t(5_000));
    assert!(
        released.len() >= 25,
        "skip must unblock the pile, got {}",
        released.len()
    );
    assert_eq!(rb.skipped_count(), 1);
}

#[test]
fn centralized_style_chain_delivery_works_out_of_band() {
    // Chains stripped from packets (central sequencing): frames complete
    // but cannot release until chains arrive out of band.
    let stream = build_stream(20, 5);
    let mut rb = ReorderBuffer::new();
    for (i, (f, pkts)) in stream.iter().enumerate() {
        for p in pkts {
            let received: PacketSet = [p.packet_index].into_iter().collect();
            rb.ingest_slice(
                t(i as u64 * 33),
                f.header,
                p.substream,
                &received,
                p.packet_count,
                None, // no embedded chain
            );
        }
    }
    assert_eq!(rb.drain_ready(t(700)).len(), 0, "no order info yet");
    // The "super node" ships chains later.
    let mut chains = ChainGenerator::new(PACKET_PAYLOAD);
    let mut released = 0;
    for (f, _) in &stream {
        let chain = chains.observe(&f.header);
        rb.ingest_chain_only(&chain);
        released += rb.drain_ready(t(900)).len();
    }
    assert_eq!(released, 20);
}

#[test]
fn global_chain_and_reorder_agree_on_order() {
    // The reorder buffer's internal chain must match a standalone
    // GlobalChain fed the same inputs.
    let stream = build_stream(25, 6);
    let mut rb = ReorderBuffer::new();
    let mut gc = GlobalChain::new();
    for (i, (f, pkts)) in stream.iter().enumerate() {
        gc.ingest_header(f.header);
        for p in pkts {
            gc.ingest_chain(&p.chain);
            rb.ingest(t(i as u64 * 33), p);
        }
    }
    // Everything released by rb must have been poppable from gc in the
    // same order.
    let mut gc_order = Vec::new();
    while let Some(fp) = gc.pop_linked_head() {
        gc_order.push(fp.dts_ms);
    }
    assert_eq!(
        gc_order,
        stream
            .iter()
            .map(|(f, _)| f.header.dts_ms)
            .collect::<Vec<_>>()
    );
}
