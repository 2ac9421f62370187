//! Criterion micro-benchmarks of the control-plane hot paths: tree-hash
//! registry retrieval, candidate scoring, full recommendations over a
//! large node set, and heartbeat ingestion.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rlive_control::features::{
    ClientId, ClientInfo, ConnectionType, Heartbeat, NodeClass, NodeId, NodeStatus, StaticFeatures,
    StreamKey,
};
use rlive_control::registry::{AttrQuery, HashTreeRegistry};
use rlive_control::scheduler::{GlobalScheduler, SchedulerConfig};
use rlive_control::scoring::{score, NatSuccessHistory, Platform, ScoreWeights};
use rlive_sim::nat::NatType;
use rlive_sim::{SimRng, SimTime};

const NODES: u64 = 10_000;

fn statics(i: u64) -> StaticFeatures {
    StaticFeatures {
        isp: (i % 4) as u16,
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

fn key(i: u64) -> StreamKey {
    StreamKey {
        stream_id: i % 50,
        substream: (i % 4) as u16,
    }
}

fn client() -> ClientInfo {
    ClientInfo {
        id: ClientId(1),
        isp: 1,
        region: 3,
        bgp_prefix: 7,
        geo: (3.0, 3.0),
        platform: Platform::Android,
    }
}

fn built_registry() -> HashTreeRegistry {
    let mut reg = HashTreeRegistry::new();
    for i in 0..NODES {
        let s = statics(i);
        reg.index_node(NodeId(i), s.isp, s.class, s.region, [key(i)]);
    }
    reg
}

fn built_scheduler() -> GlobalScheduler {
    let mut sched = GlobalScheduler::new(SchedulerConfig::default(), SimRng::new(1));
    for i in 0..NODES {
        let mut status = NodeStatus::idle(50.0);
        status.forwarding.insert(key(i));
        sched.register_node(NodeId(i), statics(i), status);
    }
    sched
}

fn bench_registry(c: &mut Criterion) {
    let mut reg = built_registry();
    let query = AttrQuery {
        stream: key(5),
        isp: 1,
        class: NodeClass::HighQuality,
        region: 3,
    };
    let mut group = c.benchmark_group("controlplane/registry");
    group.bench_function("retrieve_64_of_10k", |b| {
        b.iter(|| black_box(reg.retrieve(&query, 64)))
    });
    group.finish();

    let mut group = c.benchmark_group("controlplane/registry_update");
    group.throughput(Throughput::Elements(1));
    group.bench_function("reindex_node", |b| {
        let mut reg = built_registry();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % NODES;
            let s = statics(i);
            reg.index_node(NodeId(i), s.isp, s.class, s.region, [key(i + 1)]);
        })
    });
    group.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let weights = ScoreWeights::for_platform(Platform::Android);
    let hist = NatSuccessHistory::default();
    let cl = client();
    let s = statics(42);
    let status = NodeStatus::idle(50.0);
    let mut group = c.benchmark_group("controlplane/scoring");
    group.throughput(Throughput::Elements(1));
    group.bench_function("score_one_candidate", |b| {
        b.iter(|| black_box(score(&weights, &s, &status, &cl, &hist)))
    });
    group.finish();
}

fn bench_recommendation(c: &mut Criterion) {
    let mut sched = built_scheduler();
    let cl = client();
    let mut group = c.benchmark_group("controlplane/recommendation");
    group.bench_function("recommend_topk_over_10k_nodes", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(sched.recommend(SimTime::from_secs(t), &cl, key(5)))
        })
    });
    group.finish();
}

fn bench_heartbeats(c: &mut Criterion) {
    let mut sched = built_scheduler();
    let mut group = c.benchmark_group("controlplane/heartbeat");
    group.throughput(Throughput::Elements(1));
    group.bench_function("ingest", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % NODES;
            let mut status = NodeStatus::idle(50.0);
            status.forwarding.insert(key(i));
            status.used_mbps = (i % 40) as f64;
            sched.ingest_heartbeat(Heartbeat {
                node: NodeId(i),
                at: SimTime::from_secs(i),
                status,
            });
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_registry,
    bench_scoring,
    bench_recommendation,
    bench_heartbeats
);
criterion_main!(benches);
