//! The live-stream source actor and the central sequencing super node.

use crate::actors::ActorCtx;
use crate::events::Event;
use rlive_data::ring::SeqRing;
use rlive_media::footprint::{ChainGenerator, LocalChain};
use rlive_media::frame::FrameHeader;
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::PACKET_PAYLOAD;
use rlive_sim::{SimDuration, SimRng, SimTime};

/// How many recent frames a stream source keeps addressable for
/// prefill, relay backhaul and recovery.
const RECENT_WINDOW: usize = 600;

/// One live stream: its GoP generator, sequencing-chain generator and
/// the sliding record of recent frames.
pub(crate) struct StreamState {
    generator: GopGenerator,
    chains: ChainGenerator,
    /// Recent frames: dts -> (header, canonical chain), in a sequence-
    /// indexed ring (dts is monotone, so every insert is a tail push
    /// and every eviction a head pop — no per-frame allocation), grown
    /// to at most the window plus the frame that overflows it.
    recent: SeqRing<(FrameHeader, LocalChain)>,
    /// Active viewers (popularity gate).
    pub viewers: usize,
    /// The sim time at which dts = 0 was produced.
    pub epoch: SimTime,
}

impl StreamState {
    /// Builds the source of stream `id`, forking its RNG from `rng`.
    pub fn new(id: u64, rng: SimRng) -> Self {
        StreamState {
            generator: GopGenerator::new(id, GopConfig::default(), rng),
            chains: ChainGenerator::new(PACKET_PAYLOAD),
            recent: SeqRing::new(),
            viewers: 0,
            epoch: SimTime::ZERO,
        }
    }

    /// Produces the next frame, records it, and returns it with its
    /// canonical sequencing chain.
    pub fn next_frame(&mut self) -> (FrameHeader, LocalChain) {
        let frame = self.generator.next_frame();
        let chain = self.chains.observe(&frame.header);
        self.remember(frame.header, chain);
        (frame.header, chain)
    }

    fn remember(&mut self, header: FrameHeader, chain: LocalChain) {
        self.recent.reserve_within(RECENT_WINDOW + 1);
        self.recent.insert(header.dts_ms, (header, chain));
        while self.recent.len() > RECENT_WINDOW {
            self.recent.pop_first();
        }
    }

    /// Looks up a recent frame by timestamp.
    pub fn recent_frame(&self, dts: u64) -> Option<&(FrameHeader, LocalChain)> {
        self.recent.get(dts)
    }

    /// Timestamps of the retained frames, oldest first.
    pub fn recent_dts(&self) -> impl Iterator<Item = u64> + '_ {
        self.recent.keys()
    }
}

/// Centralised sequencing super-node state: chain delivery latency and
/// outage windows (§7.3.2).
pub(crate) struct SuperNode {
    down_until: SimTime,
}

impl SuperNode {
    /// A healthy super node.
    pub fn new() -> Self {
        SuperNode {
            down_until: SimTime::ZERO,
        }
    }

    /// Schedules the separate chain delivery of one frame to one
    /// client — late by the load-dependent sequencing latency, or not
    /// at all while the super node is in an outage window.
    pub fn schedule_chain(
        &mut self,
        ctx: &mut ActorCtx<'_>,
        cid: u64,
        stream: u32,
        dts: u64,
        streams: usize,
    ) {
        // Super-node outages: occasionally the sequencing service stalls
        // for seconds (§7.3.2: super-node failures delayed sequence
        // recovery significantly).
        if ctx.now < self.down_until {
            return;
        }
        if ctx.rng.chance(0.0005) {
            self.down_until = ctx.now + SimDuration::from_millis(2_000 + ctx.rng.below(4_000));
            return;
        }
        // Load-dependent latency: scales with concurrent streams.
        let base = 15.0 + 2.0 * streams as f64;
        let latency = SimDuration::from_secs_f64((base + ctx.rng.exponential(20.0)) / 1000.0);
        ctx.queue.schedule(
            ctx.now + latency,
            Event::ChainDelivery {
                client: cid,
                stream,
                dts,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_produces_monotonic_frames_and_caps_recent_window() {
        let mut s = StreamState::new(0, SimRng::new(42));
        let mut last = None;
        for _ in 0..(RECENT_WINDOW + 50) {
            let (header, chain) = s.next_frame();
            assert!(!chain.is_empty());
            if let Some(prev) = last {
                assert!(header.dts_ms > prev, "dts must advance");
            }
            last = Some(header.dts_ms);
        }
        assert_eq!(s.recent_dts().count(), RECENT_WINDOW);
        // The newest frame is retained and addressable; the oldest fell
        // out of the window.
        assert!(s.recent_frame(last.unwrap()).is_some());
        let oldest = s.recent_dts().next().unwrap();
        assert!(s.recent_frame(oldest).is_some());
    }
}
