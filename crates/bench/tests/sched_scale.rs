//! The scheduler at the paper's population of about 1 M best-effort
//! nodes: live heap per registered node, and what `CALLS` cold
//! `recommend`s and `CALLS` heartbeats that repeat a forwarder's status
//! allocate, at 10 000, 100 000 and 1 000 000 nodes of the shape
//! `sched_alloc.rs` registers. Bytes and counts are gated: they repeat
//! exactly on any host. Nanoseconds per `register_node` and
//! microseconds per cold `recommend` are printed as trend only.
//!
//! `#[ignore]`d because the 1 M case holds about 200 MB; `ci.sh` runs
//! it. Its own test binary with a single test: the allocator below is
//! process-wide, so a second test on another thread would be counted
//! into the first.

mod live_alloc;
mod sched_shape;

use live_alloc::{live_bytes, LiveAlloc};
use rlive_control::features::{NodeId, NodeStatus};
use rlive_control::scheduler::{GlobalScheduler, SchedulerConfig};
use rlive_sim::{SimRng, SimTime};
use sched_shape::{allocated, client, key, statics, ISPS};
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static GLOBAL_ALLOC: LiveAlloc = LiveAlloc;

const CALLS: u64 = 200;
/// Cold `recommend`s timed for the trend line: the fastest of
/// `BATCHES` batches, since noise on a shared host only slows one down.
const TIMED: u64 = 1_000;
const BATCHES: u64 = 5;

/// Population size and the live bytes per node it may hold at most:
/// the measurement rounded up to a whole byte. They fall with the
/// population because the fixed costs spread and the slot-indexed
/// tables double: at 10 000 nodes the node table is 1.6x its length.
const SIZES: [(u64, f64); 3] = [(10_000, 216.0), (100_000, 172.0), (1_000_000, 156.0)];

#[test]
#[ignore = "holds about 200 MB at 1 M nodes; ci.sh runs it"]
fn scheduler_state_and_read_path_at_one_million_nodes() {
    let mut counts = Vec::new();
    for (n, bound) in SIZES {
        let live0 = live_bytes();
        let started = Instant::now();
        let mut sched = GlobalScheduler::new(SchedulerConfig::default(), SimRng::new(1));
        for i in 0..n {
            sched.register_node(NodeId(i), statics(i), NodeStatus::idle(50.0));
        }
        let register_ns = started.elapsed().as_nanos() as f64 / n as f64;
        let per_node = (live_bytes() - live0) as f64 / n as f64;

        let now = SimTime::from_secs(1);
        // Warm-up: one call per ISP sizes the scratch buffers.
        for i in 0..ISPS {
            sched.recommend(now, &client(i), key(i));
        }
        let recommend = allocated(|| {
            for i in 0..CALLS {
                sched.recommend(now, &client(i), key(i));
            }
        });
        let batch = |b: u64, sched: &mut GlobalScheduler| {
            let started = Instant::now();
            for i in b * TIMED..(b + 1) * TIMED {
                black_box(sched.recommend(now, &client(i), key(i)));
            }
            started.elapsed().as_secs_f64() * 1e6 / TIMED as f64
        };
        let recommend_us = (0..BATCHES)
            .map(|b| batch(b, &mut sched))
            .fold(f64::INFINITY, f64::min);

        // `CALLS` nodes start forwarding, then report the same again.
        let statuses: Vec<NodeStatus> = (0..CALLS)
            .map(|i| {
                let mut status = NodeStatus::idle(50.0);
                status.forwarding.insert(key(i));
                status.used_mbps = 10.0;
                status
            })
            .collect();
        let ingest_all = |sched: &mut GlobalScheduler| {
            for (i, status) in (0..).zip(&statuses) {
                sched.ingest_status(NodeId(i), now, status);
            }
        };
        ingest_all(&mut sched);
        let heartbeats = allocated(|| ingest_all(&mut sched));

        println!(
            "sched_scale {n:>9} nodes: {per_node:.1} B/node live, \
             {register_ns:.0} ns/register_node, {recommend_us:.2} us/cold recommend (trend only)"
        );
        assert!(
            per_node <= bound,
            "{per_node:.1} live bytes per node at {n} nodes, bound {bound}"
        );
        counts.push((n, recommend, heartbeats));
    }
    let (_, recommend, heartbeats) = counts[0];
    for &(n, r, h) in &counts {
        assert_eq!(r, recommend, "(blocks, bytes) of {CALLS} recommends at {n}");
        assert_eq!(
            h, heartbeats,
            "(blocks, bytes) of {CALLS} heartbeats at {n}"
        );
    }
    assert_eq!(heartbeats, (0, 0), "a repeated heartbeat allocates");
}
