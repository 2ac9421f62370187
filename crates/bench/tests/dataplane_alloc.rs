//! Allocation regression test for the client-side data plane: a small
//! world of the benchmark's `dataplane` shape must stay at or under 1.5
//! heap blocks per event, and a warmed-up `ReorderBuffer` fed an
//! in-order stream of slices must allocate nothing at all. Counts, not
//! timings: they hold on any host.
//!
//! Its own test binary with a single `#[test]`: the counting allocator
//! is process-wide, so a second test on another thread would be counted
//! into the first.

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::{GroupPolicy, World};
use rlive_bench::perf::{alloc_snapshot, CountingAlloc};
use rlive_data::reorder::{PacketSet, ReorderBuffer};
use rlive_media::footprint::ChainGenerator;
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::PACKET_PAYLOAD;
use rlive_sim::{SimDuration, SimRng, SimTime};
use rlive_workload::scenario::Scenario;

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// Heap blocks allocated by `f`.
fn blocks(f: impl FnOnce()) -> u64 {
    let (blocks0, _) = alloc_snapshot();
    f();
    alloc_snapshot().0 - blocks0
}

/// The benchmark's `dataplane` world at a quarter of its population and
/// length: 50 nodes, 75 viewers, 4 streams, 30 sim-s.
fn dataplane_world(seed: u64) -> World {
    let mut s = Scenario::evening_peak();
    s.duration = SimDuration::from_secs(30);
    s.peak_viewers = 75;
    s.streams = 4;
    s.population.count = 50;
    s.population.isps = 2;
    s.population.regions = 4;
    s.population.high_quality_fraction = 0.10;
    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.world_jobs = 1;
    cfg.cdn_edge_mbps = 300;
    cfg.multi_source_after = SimDuration::from_secs(5);
    cfg.popularity_threshold = 1;
    World::new(s, cfg, GroupPolicy::uniform(DeliveryMode::RLive), seed)
}

#[test]
fn data_plane_steady_state_does_not_churn_the_heap() {
    let world = dataplane_world(101);
    let mut events = 0;
    let run = blocks(|| events = world.run().event_counts.total());
    let per_event = run as f64 / events as f64;
    assert!(
        per_event <= 1.5,
        "{run} blocks over {events} events = {per_event:.3} per event"
    );

    // Three minutes of one stream at full quality, one slice per frame.
    let mut gop = GopGenerator::new(1, GopConfig::default(), SimRng::new(7));
    let mut chains = ChainGenerator::new(PACKET_PAYLOAD);
    let slices: Vec<_> = gop
        .take_frames(5_400)
        .into_iter()
        .map(|f| {
            let received: PacketSet = (0..f.packet_count(PACKET_PAYLOAD)).collect();
            (f.header, chains.observe(&f.header), received)
        })
        .collect();
    let mut rb = ReorderBuffer::new();
    let mut released = 0;
    let mut feed = |rb: &mut ReorderBuffer, from: usize, to: usize| {
        for (i, (header, chain, received)) in slices.iter().enumerate().take(to).skip(from) {
            let now = SimTime::from_millis(i as u64 * 33);
            let total = received.len();
            released += rb
                .ingest_slice(now, *header, 0, received, total, Some(chain))
                .len();
        }
    };
    // Warm-up sizes every ring and buffer, header GC included.
    feed(&mut rb, 0, 2_700);
    let steady = blocks(|| feed(&mut rb, 2_700, slices.len()));
    assert_eq!(steady, 0, "blocks over 2 700 in-order slices");
    assert_eq!(released, slices.len(), "every frame released in order");
}
