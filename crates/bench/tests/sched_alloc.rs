//! Scale regression test for the scheduler's read path: what one
//! `recommend` and one `stream_utilization` allocate, and how many ids
//! one retrieval hands the scorer, must not depend on how many nodes
//! are registered. Counts, not timings: they hold on any host.
//!
//! Its own test binary with a single `#[test]`: the counting allocator
//! is process-wide, so a second test on another thread would be counted
//! into the first.

use rlive_bench::perf::{alloc_snapshot, CountingAlloc};
use rlive_control::features::{
    ClientId, ClientInfo, ConnectionType, Heartbeat, NodeClass, NodeId, NodeStatus, StaticFeatures,
    StreamKey,
};
use rlive_control::registry::{AttrQuery, HashTreeRegistry};
use rlive_control::scheduler::{GlobalScheduler, SchedulerConfig};
use rlive_control::scoring::Platform;
use rlive_sim::nat::NatType;
use rlive_sim::{SimRng, SimTime};

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

const ISPS: u64 = 4;
const CALLS: u64 = 200;
const FORWARDERS: u64 = 32;

fn client(i: u64) -> ClientInfo {
    ClientInfo {
        id: ClientId(i),
        isp: (i % ISPS) as u16,
        region: (i % 16) as u16,
        bgp_prefix: (i % 128) as u32,
        geo: ((i % 40) as f64, 3.0),
        platform: Platform::Android,
    }
}

fn key(i: u64) -> StreamKey {
    StreamKey {
        stream_id: i % 8,
        substream: (i % 4) as u16,
    }
}

/// `(blocks, bytes)` allocated by `f`.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let (blocks0, bytes0) = alloc_snapshot();
    f();
    let (blocks1, bytes1) = alloc_snapshot();
    (blocks1 - blocks0, bytes1 - bytes0)
}

fn statics(i: u64) -> StaticFeatures {
    StaticFeatures {
        isp: (i % ISPS) as u16,
        region: (i % 16) as u16,
        bgp_prefix: (i % 128) as u32,
        geo: ((i % 40) as f64, (i / 40 % 40) as f64),
        class: if i.is_multiple_of(100) {
            NodeClass::HighQuality
        } else {
            NodeClass::Normal
        },
        conn_type: ConnectionType::Cable,
        nat: NatType::ALL[(i % 7) as usize],
    }
}

/// The largest pool `CALLS` retrievals of `want` ids return from a cold
/// registry of `n` nodes.
fn largest_pool(n: u64, want: usize) -> usize {
    let mut reg = HashTreeRegistry::new();
    for i in 0..n {
        let s = statics(i);
        reg.index_node(NodeId(i), s.isp, s.class, s.region, []);
    }
    let pools = (0..CALLS).map(|i| {
        let c = client(i);
        let query = AttrQuery {
            stream: key(i),
            isp: c.isp,
            class: NodeClass::HighQuality,
            region: c.region,
        };
        reg.retrieve(&query, want).0.len()
    });
    pools.max().expect("CALLS > 0")
}

/// Allocation of `CALLS` cold-registry recommendations and of one
/// `stream_utilization` over `FORWARDERS` forwarders, at `n` nodes.
fn measure(n: u64) -> ((u64, u64), (u64, u64)) {
    let mut sched = GlobalScheduler::new(SchedulerConfig::default(), SimRng::new(1));
    for i in 0..n {
        sched.register_node(NodeId(i), statics(i), NodeStatus::idle(50.0));
    }
    let now = SimTime::from_secs(1);
    // Warm-up: one call per ISP sizes the scratch buffers.
    for i in 0..ISPS {
        sched.recommend(now, &client(i), key(i));
    }
    let recommend = allocated(|| {
        for i in 0..CALLS {
            let rec = sched.recommend(now, &client(i), key(i));
            assert_eq!(rec.candidates.len(), sched.config().top_k);
        }
    });

    let hot = key(0);
    for i in 0..FORWARDERS {
        let mut status = NodeStatus::idle(50.0);
        status.forwarding.insert(hot);
        status.used_mbps = 12.5;
        sched.ingest_heartbeat(Heartbeat {
            node: NodeId(i),
            at: now,
            status,
        });
    }
    let utilization = allocated(|| {
        assert_eq!(sched.stream_utilization(now, hot), Some(0.25));
    });
    (recommend, utilization)
}

#[test]
fn read_path_allocation_does_not_grow_with_the_population() {
    let (recommend_2k, utilization_2k) = measure(2_000);
    let (blocks, _) = recommend_2k;
    assert!(blocks <= 3 * CALLS, "{blocks} blocks in {CALLS} recommends");
    let want = SchedulerConfig::default().top_k * 8;
    assert_eq!(largest_pool(2_000, want), want);
    for n in [10_000, 100_000] {
        let (recommend, utilization) = measure(n);
        assert_eq!(
            recommend, recommend_2k,
            "(blocks, bytes) per {CALLS} recommends at {n} nodes"
        );
        assert_eq!(utilization, utilization_2k, "stream_utilization at {n}");
        assert_eq!(largest_pool(n, want), want, "pool at {n} nodes");
    }
}
