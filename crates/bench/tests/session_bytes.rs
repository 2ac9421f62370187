//! Live heap that one viewer session's data plane keeps: a
//! `ReorderBuffer` takes a 225-frame CDN prefill burst whose second
//! frame comes last, then 60 s of lossy slices over 4 substreams, while
//! the recovery pass asks its queries after every slice. Its rings grow
//! to their high-water marks and never shrink, so the bytes still live
//! after the run are what the session holds at its peak. Bytes, not
//! timings: they repeat exactly on any host.
//!
//! Its own test binary with a single test: the allocator below is
//! process-wide, so a second test on another thread would be counted
//! into the first.

mod live_alloc;

use live_alloc::{live_bytes, LiveAlloc};
use rlive_data::reorder::{PacketSet, ReorderBuffer};
use rlive_media::footprint::{ChainGenerator, LocalChain};
use rlive_media::frame::FrameHeader;
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::PACKET_PAYLOAD;
use rlive_media::substream::substream_of;
use rlive_sim::{SimDuration, SimRng, SimTime};

#[global_allocator]
static GLOBAL_ALLOC: LiveAlloc = LiveAlloc;

/// Frames in the prefill burst (a CDN prefill sends 75–225).
const BURST: usize = 225;
/// Seconds of live slices after the burst, at 30 fps.
const LIVE_SECS: usize = 60;
/// Bytes the buffer may keep: the measurement, 29 736, plus about 5 %.
/// It read 44 072 while the chain's header pool, the completed set and
/// the chain announcements were three rings, each with its own copy of
/// every dts key and grown to its own high-water mark.
const MAX_RETAINED: u64 = 31_200;

/// One delivery to the buffer.
enum Arrival {
    /// A slice of frame `.0`'s packets, with the frame's chain or not.
    Slice(usize, PacketSet, bool),
    /// Frame `.0` recovered whole from a dedicated node.
    Whole(usize),
}

#[test]
fn one_session_retains_at_most_its_bound() {
    let mut gop = GopGenerator::new(1, GopConfig::default(), SimRng::new(7));
    let mut chains = ChainGenerator::new(PACKET_PAYLOAD);
    let frames: Vec<(FrameHeader, LocalChain, u32)> = gop
        .take_frames(BURST + LIVE_SECS * 30)
        .into_iter()
        .map(|f| {
            let chain = chains.observe(&f.header);
            (f.header, chain, f.packet_count(PACKET_PAYLOAD))
        })
        .collect();
    let whole = |f: usize| -> PacketSet { (0..frames[f].2).collect() };

    // The burst lands one slice a millisecond, in order but for the
    // second frame, which comes last: everything behind it waits.
    let mut rng = SimRng::new(11);
    let mut arrivals: Vec<(u64, usize, Arrival)> = Vec::new();
    for (at, f) in [0].into_iter().chain(2..BURST).chain([1]).enumerate() {
        arrivals.push((at as u64, f, Arrival::Slice(f, whole(f), true)));
    }
    // Live frames every 33 ms; substream `s` lags 15·s ms behind, so
    // the substreams interleave out of order. One slice in ten loses
    // its first packet, retransmitted 120 ms later; one frame in fifty
    // is lost whole and recovered whole 200 ms later.
    for (f, &(header, _, total)) in frames.iter().enumerate().skip(BURST) {
        let ss = u64::from(substream_of(&header, 4).0);
        let at = BURST as u64 + (f - BURST) as u64 * 33 + 10 + 15 * ss;
        if rng.chance(0.02) {
            arrivals.push((at + 200, f, Arrival::Whole(f)));
        } else if total > 1 && rng.chance(0.1) {
            arrivals.push((at, f, Arrival::Slice(f, (1..total).collect(), true)));
            let retx: PacketSet = std::iter::once(0).collect();
            arrivals.push((at + 120, f, Arrival::Slice(f, retx, false)));
        } else {
            arrivals.push((at, f, Arrival::Slice(f, whole(f), true)));
        }
    }
    arrivals.sort_by_key(|&(at, f, _)| (at, f));

    let timeout = SimDuration::from_millis(60);
    let before = live_bytes();
    let mut rb = ReorderBuffer::new();
    let (mut released, mut reported) = (0, 0);
    for (at, _, arrival) in &arrivals {
        let now = SimTime::from_millis(*at);
        released += match arrival {
            Arrival::Slice(f, received, with_chain) => {
                let (header, chain, total) = &frames[*f];
                let chain = with_chain.then_some(chain);
                rb.ingest_slice(now, *header, 0, received, *total, chain)
                    .len()
            }
            Arrival::Whole(f) => rb.ingest_whole_frame(now, frames[*f].0).len(),
        };
        reported += rb.incomplete_frames(now, timeout).count();
        reported += rb.missing_chain_frames(now, timeout).count();
        reported += rb.unorderable_complete(now, timeout, 8).count();
    }
    let retained = live_bytes() - before;
    assert_eq!(released, frames.len(), "every frame released in order");
    assert!(reported > 0, "the queries saw the losses");
    println!("one session retains {retained} bytes");
    assert!(
        retained <= MAX_RETAINED,
        "one session retains {retained} bytes, above {MAX_RETAINED}"
    );
    drop(rb);
}
