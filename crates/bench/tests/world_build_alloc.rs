//! Allocation regression test for world construction, on worlds of the
//! benchmark's `sched_*` shape.
//!
//! Blocks: each node must cost at most 0.05 heap blocks to build, and
//! no more at 30 000 nodes than at 10 000. Neither an idle relay nor its
//! registry entry owns a heap block: the scheduler reserves its
//! slot-indexed tables for the whole population up front, and the
//! registry keeps a substream list only for a node that forwards. What
//! remains is the growth of the registry's leaves, id-sorted slot
//! `Vec`s that double: a leaf of m nodes reallocates about log2(m)
//! times, so blocks per node fall as the leaves fill (0.031 at 10 000
//! nodes, 0.014 at 30 000).
//!
//! Bytes: everything the built world holds, over its node count, is
//! gated at the measurement plus about 1 %. It was 851.5 / 835.9 B per
//! node at 10 000 / 30 000 nodes while every relay carried its uplink,
//! quotas, adviser, subscriber table and node spec (640 B); a relay that
//! has never served keeps a 168-B core and builds the rest on first use,
//! which makes it 379.5 / 363.9 B. Counts, not timings: they hold on any
//! host.
//!
//! Its own test binary with a single `#[test]`: the counting allocator
//! is process-wide, so a second test on another thread would be counted
//! into the first.

mod live_alloc;

use live_alloc::{live_bytes, LiveAlloc};
use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::{GroupPolicy, World};
use rlive_bench::perf::alloc_snapshot;
use rlive_sim::SimDuration;
use rlive_workload::scenario::Scenario;

#[global_allocator]
static GLOBAL_ALLOC: LiveAlloc = LiveAlloc;

/// Heap blocks `World::new` allocates for a `sched_*`-shaped world of
/// `nodes` nodes, and the bytes the built world holds.
fn build(nodes: usize) -> (u64, u64) {
    let mut s = Scenario::evening_peak();
    s.duration = SimDuration::from_secs(1);
    s.peak_viewers = nodes * 3 / 2;
    s.streams = 8;
    s.population.count = nodes;
    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.world_jobs = 1;
    let policy = GroupPolicy::uniform(DeliveryMode::RLive);
    let (blocks0, live0) = (alloc_snapshot().0, live_bytes());
    let world = World::new(s, cfg, policy, 101);
    let built = (alloc_snapshot().0 - blocks0, live_bytes() - live0);
    drop(world);
    built
}

/// Blocks per node added above a 1 000-node world, which already holds
/// every fixed cost: streams, CDN edges, and one registry leaf per
/// (ISP, class, region); and live bytes per node of the whole world.
fn per_node(nodes: usize) -> (f64, f64) {
    const BASE: usize = 1_000;
    let (blocks, live) = build(nodes);
    let extra_blocks = blocks - build(BASE).0;
    (
        extra_blocks as f64 / (nodes - BASE) as f64,
        live as f64 / nodes as f64,
    )
}

#[test]
fn world_build_allocates_a_bounded_number_of_blocks_per_node() {
    let (small, small_live) = per_node(10_000);
    let (large, large_live) = per_node(30_000);
    println!(
        "world_build: {small:.4} / {large:.4} blocks and {small_live:.2} / {large_live:.2} \
         live bytes per node at 10 000 / 30 000 nodes"
    );
    assert!(small <= 0.05, "{small:.3} blocks per node at 10 000 nodes");
    assert!(large <= 0.05, "{large:.3} blocks per node at 30 000 nodes");
    assert!(
        large <= small + 0.01,
        "{small:.3} vs {large:.3} blocks per node at 10 000 and 30 000 nodes"
    );
    assert!(
        small_live <= 384.0,
        "{small_live:.1} live bytes per node at 10 000 nodes"
    );
    assert!(
        large_live <= 368.0,
        "{large_live:.1} live bytes per node at 30 000 nodes"
    );
}
