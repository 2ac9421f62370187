//! Allocation regression test for world construction: each node of a
//! world of the benchmark's `sched_*` shape must cost at most 0.05 heap
//! blocks to build, and no more at 30 000 nodes than at 10 000.
//! Neither an idle relay nor its registry entry owns a heap block: the
//! scheduler reserves its slot-indexed tables for the whole population
//! up front, and the registry keeps a substream list only for a node
//! that forwards. What remains is the growth of the registry's leaves,
//! id-sorted slot `Vec`s that double: a leaf of m nodes reallocates
//! about log2(m) times, so blocks per node fall as the leaves fill
//! (0.032 at 10 000 nodes, 0.014 at 30 000). Counts, not timings: they
//! hold on any host.
//!
//! Its own test binary with a single `#[test]`: the counting allocator
//! is process-wide, so a second test on another thread would be counted
//! into the first.

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::world::{GroupPolicy, World};
use rlive_bench::perf::{alloc_snapshot, CountingAlloc};
use rlive_sim::SimDuration;
use rlive_workload::scenario::Scenario;

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// Heap blocks `World::new` allocates for a `sched_*`-shaped world of
/// `nodes` nodes.
fn build_blocks(nodes: usize) -> u64 {
    let mut s = Scenario::evening_peak();
    s.duration = SimDuration::from_secs(1);
    s.peak_viewers = nodes * 3 / 2;
    s.streams = 8;
    s.population.count = nodes;
    let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
    cfg.world_jobs = 1;
    let policy = GroupPolicy::uniform(DeliveryMode::RLive);
    let (blocks0, _) = alloc_snapshot();
    let world = World::new(s, cfg, policy, 101);
    let blocks = alloc_snapshot().0 - blocks0;
    drop(world);
    blocks
}

/// Blocks per node added above a 1 000-node world, which already holds
/// every fixed cost: streams, CDN edges, and one registry leaf per
/// (ISP, class, region).
fn blocks_per_node(nodes: usize) -> f64 {
    const BASE: usize = 1_000;
    (build_blocks(nodes) - build_blocks(BASE)) as f64 / (nodes - BASE) as f64
}

#[test]
fn world_build_allocates_a_bounded_number_of_blocks_per_node() {
    let small = blocks_per_node(10_000);
    let large = blocks_per_node(30_000);
    assert!(small <= 0.05, "{small:.3} blocks per node at 10 000 nodes");
    assert!(large <= 0.05, "{large:.3} blocks per node at 30 000 nodes");
    assert!(
        large <= small + 0.01,
        "{small:.3} vs {large:.3} blocks per node at 10 000 and 30 000 nodes"
    );
}
