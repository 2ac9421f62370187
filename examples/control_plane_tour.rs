//! A guided tour of the collaborative control plane (§4), without the
//! network simulator: registration, heartbeats, candidate
//! recommendation, client probing, RTT-based switching and the edge
//! adviser's two triggers.
//!
//! ```sh
//! cargo run --release --example control_plane_tour
//! ```

use rlive_control::adviser::{AdviserConfig, EdgeAdviser};
use rlive_control::client::{
    ClientController, ClientControllerConfig, ProbeOutcome, SwitchDecision,
};
use rlive_control::features::{
    ClientId, ClientInfo, ConnectionType, Heartbeat, NodeClass, NodeId, NodeStatus, StreamKey,
};
use rlive_control::scheduler::{GlobalScheduler, SchedulerConfig};
use rlive_control::scoring::Platform;
use rlive_control::StaticFeatures;
use rlive_sim::nat::TraversalModel;
use rlive_sim::{SimDuration, SimRng, SimTime};
use rlive_workload::nodes::{NodePopulation, PopulationConfig};

fn main() {
    let mut rng = SimRng::new(7);

    // 1. A population of best-effort nodes registers with the scheduler.
    let pop = NodePopulation::generate(
        &PopulationConfig {
            count: 400,
            isps: 2,
            regions: 4,
            ..PopulationConfig::default()
        },
        &mut rng,
    );
    let mut scheduler = GlobalScheduler::new(SchedulerConfig::default(), rng.fork(1));
    for spec in &pop.nodes {
        let statics = StaticFeatures {
            isp: spec.isp,
            region: spec.region,
            bgp_prefix: spec.bgp_prefix,
            geo: spec.geo,
            class: if spec.high_quality {
                NodeClass::HighQuality
            } else {
                NodeClass::Normal
            },
            conn_type: ConnectionType::Cable,
            nat: spec.nat,
        };
        scheduler.register_node(
            NodeId(spec.id),
            statics,
            NodeStatus::idle(spec.capacity_mbps),
        );
    }
    println!("registered {} best-effort nodes", scheduler.node_count());

    // 2. A few nodes start forwarding substream (7, 0) and heartbeat.
    let key = StreamKey {
        stream_id: 7,
        substream: 0,
    };
    for id in [3u64, 11, 42] {
        let mut status = NodeStatus::idle(pop.nodes[id as usize].capacity_mbps);
        status.forwarding.insert(key);
        status.used_mbps = 4.0;
        let hb = Heartbeat {
            node: NodeId(id),
            at: SimTime::from_secs(5),
            status,
        };
        let wire = hb.encode();
        println!("node {id} heartbeats ({} bytes on the wire)", wire.len());
        scheduler.ingest_heartbeat(Heartbeat::decode(&wire).expect("round trip"));
    }

    // 3. A client asks for candidates; the scheduler retrieves from the
    //    tree-hash registry, scores per-client and returns the top-K.
    let client = ClientInfo {
        id: ClientId(1),
        isp: 0,
        region: 1,
        bgp_prefix: 9,
        geo: (5.0, 5.0),
        platform: Platform::Android,
    };
    let rec = scheduler.recommend(SimTime::from_secs(6), &client, key);
    println!(
        "\nrecommendation: {} candidates in {} (match level {:?})",
        rec.candidates.len(),
        rec.service_time,
        rec.match_level
    );
    for c in rec.candidates.iter().take(5) {
        println!(
            "  node {:>4}  score {:.3}  forwarding: {}",
            c.node.0, c.score, c.already_forwarding
        );
    }

    // 4. The client probes the top three (application-level, through
    //    real NAT traversal odds) and picks the first responder.
    let mut controller = ClientController::new(ClientControllerConfig::default());
    let traversal = TraversalModel::default();
    let now = SimTime::from_secs(6);
    let mut probes = Vec::new();
    controller.probe_list(now, rec.candidates.iter().map(|c| c.node), &mut probes);
    let outcomes: Vec<ProbeOutcome> = probes
        .into_iter()
        .map(|n| {
            let spec = &pop.nodes[n.0 as usize];
            let ok = traversal.attempt(spec.nat, &mut rng);
            scheduler.observe_connection(now, n, ok);
            println!(
                "probe node {:>4} ({:?}): {}",
                n.0,
                spec.nat,
                if ok { "ok" } else { "failed" }
            );
            ProbeOutcome {
                node: n,
                rtt: ok.then(|| SimDuration::from_millis(spec.base_rtt_ms)),
            }
        })
        .collect();
    let publisher = controller.select_from_probes(now, &outcomes);
    println!("selected publisher: {publisher:?}");

    // 5. Later, QoS degrades; the switching rule needs a margin over
    //    t_change before it moves.
    if let Some(current) = publisher {
        let candidates = [
            (NodeId(200), SimDuration::from_millis(18)),
            (NodeId(201), SimDuration::from_millis(35)),
        ];
        for current_rtt in [40u64, 300] {
            let d = controller.assess_switch(
                SimTime::from_secs(30),
                current,
                SimDuration::from_millis(current_rtt),
                &candidates,
            );
            println!("current RTT {current_rtt} ms -> {d:?}");
            assert!(current_rtt != 300 || d == SwitchDecision::SwitchTo(NodeId(200)));
        }
    }

    // 6. The edge adviser fires its two triggers.
    let mut adviser = EdgeAdviser::new(NodeId(3), AdviserConfig::default());
    for _ in 0..6 {
        adviser.record_utilization(0.12);
    }
    for i in 0..19 {
        adviser.record_connection_qos(ClientId(i), 45.0 + i as f64);
    }
    adviser.record_connection_qos(ClientId(99), 600.0); // one broken link
    let stream_util = scheduler.stream_utilization(SimTime::from_secs(40), key);
    let suggestions = adviser.evaluate(SimTime::from_secs(40), key, stream_util);
    println!("\nadviser suggestions:");
    for s in &suggestions {
        println!("  {s:?}");
    }
    assert!(
        !suggestions.is_empty(),
        "underutilised node with one outlier connection must suggest"
    );
    println!("\ntour complete.");
}
