//! Cross-crate control-plane integration: workload-generated node
//! populations registered into the global scheduler, recommendation +
//! probing + switching flows, and adviser interplay.

use rlive_control::adviser::{AdviserConfig, EdgeAdviser, SwitchSuggestion};
use rlive_control::client::{
    ClientController, ClientControllerConfig, ProbeOutcome, SwitchDecision,
};
use rlive_control::features::{
    ClientId, ClientInfo, ConnectionType, Heartbeat, NodeClass, NodeId, NodeStatus, StaticFeatures,
    StreamKey,
};
use rlive_control::scheduler::{GlobalScheduler, SchedulerConfig};
use rlive_control::scoring::Platform;
use rlive_sim::nat::TraversalModel;
use rlive_sim::{SimDuration, SimRng, SimTime};
use rlive_workload::nodes::{NodePopulation, PopulationConfig};

fn key(substream: u16) -> StreamKey {
    StreamKey {
        stream_id: 1,
        substream,
    }
}

fn scheduler_from_population(n: usize, seed: u64) -> (GlobalScheduler, NodePopulation) {
    let mut rng = SimRng::new(seed);
    let pop = NodePopulation::generate(
        &PopulationConfig {
            count: n,
            isps: 2,
            regions: 4,
            ..PopulationConfig::default()
        },
        &mut rng,
    );
    let mut sched = GlobalScheduler::new(SchedulerConfig::default(), rng.fork(1));
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
        sched.register_node(
            NodeId(spec.id),
            statics,
            NodeStatus::idle(spec.capacity_mbps),
        );
    }
    (sched, pop)
}

fn client(region: u16) -> ClientInfo {
    ClientInfo {
        id: ClientId(1),
        isp: 0,
        region,
        bgp_prefix: region as u32 * 8,
        geo: (
            (region % 4) as f64 * 10.0 + 5.0,
            (region / 4) as f64 * 10.0 + 5.0,
        ),
        platform: Platform::Android,
    }
}

#[test]
fn population_registration_and_recommendation() {
    let (mut sched, pop) = scheduler_from_population(500, 1);
    assert_eq!(sched.node_count(), 500);
    let rec = sched.recommend(SimTime::from_secs(1), &client(0), key(0));
    assert_eq!(rec.candidates.len(), sched.config().top_k);
    // All recommended nodes exist in the population.
    for c in &rec.candidates {
        assert!(pop.nodes.iter().any(|n| n.id == c.node.0));
    }
}

#[test]
fn heartbeats_steer_recommendations_toward_forwarding_nodes() {
    let (mut sched, _pop) = scheduler_from_population(400, 2);
    // A handful of nodes start forwarding substream 0.
    let forwarding: Vec<u64> = (0..6).collect();
    for &id in &forwarding {
        let mut status = NodeStatus::idle(50.0);
        status.forwarding.insert(key(0));
        status.used_mbps = 5.0;
        sched.ingest_heartbeat(Heartbeat {
            node: NodeId(id),
            at: SimTime::from_secs(5),
            status,
        });
    }
    let rec = sched.recommend(SimTime::from_secs(6), &client(0), key(0));
    let fwd_in_top = rec
        .candidates
        .iter()
        .take(4)
        .filter(|c| c.already_forwarding)
        .count();
    assert!(
        fwd_in_top >= 2,
        "forwarding nodes should dominate the exploit slice: {:?}",
        rec.candidates
    );
}

#[test]
fn probe_and_switch_flow() {
    let (mut sched, pop) = scheduler_from_population(300, 3);
    let mut ctl = ClientController::new(ClientControllerConfig::default());
    let traversal = TraversalModel::default();
    let mut rng = SimRng::new(9);
    let now = SimTime::from_secs(1);

    let rec = sched.recommend(now, &client(1), key(0));
    let mut probes = Vec::new();
    ctl.probe_list(now, rec.candidates.iter().map(|c| c.node), &mut probes);
    assert!(probes.len() <= 3);

    // Simulate application-level probes with NAT traversal.
    let outcomes: Vec<ProbeOutcome> = probes
        .iter()
        .map(|&n| {
            let spec = &pop.nodes[n.0 as usize];
            let ok = traversal.attempt(spec.nat, &mut rng);
            sched.observe_connection(now, n, ok);
            ProbeOutcome {
                node: n,
                rtt: ok.then(|| SimDuration::from_millis(spec.base_rtt_ms)),
            }
        })
        .collect();
    if let Some(publisher) = ctl.select_from_probes(now, &outcomes) {
        // Later, a much better candidate appears: switching rule fires.
        let decision = ctl.assess_switch(
            now + SimDuration::from_secs(10),
            publisher,
            SimDuration::from_millis(400),
            &[(NodeId(9999), SimDuration::from_millis(10))],
        );
        assert_eq!(decision, SwitchDecision::SwitchTo(NodeId(9999)));
    }
}

#[test]
fn adviser_cost_trigger_consults_scheduler_stream_utilization() {
    let (mut sched, _pop) = scheduler_from_population(50, 4);
    // Node 0 and 1 forward substream 0 with low utilisation.
    for id in 0..2u64 {
        let mut status = NodeStatus::idle(100.0);
        status.forwarding.insert(key(0));
        status.used_mbps = 10.0;
        sched.ingest_heartbeat(Heartbeat {
            node: NodeId(id),
            at: SimTime::from_secs(5),
            status,
        });
    }
    let mut adviser = EdgeAdviser::new(NodeId(0), AdviserConfig::default());
    for _ in 0..6 {
        adviser.record_utilization(0.1);
    }
    let stream_util = sched.stream_utilization(SimTime::from_secs(10), key(0));
    assert!(stream_util.expect("forwarders exist") < 0.3);
    let suggestions = adviser.evaluate(SimTime::from_secs(10), key(0), stream_util);
    assert!(matches!(
        suggestions.as_slice(),
        [SwitchSuggestion::CostConsolidation {
            node: NodeId(0),
            ..
        }]
    ));
}

#[test]
fn stale_population_shrinks_recommendations() {
    let (mut sched, _pop) = scheduler_from_population(100, 5);
    // Everyone heartbeats once at t=0s (registration sets ZERO, which is
    // exempt) and then at t=2s.
    for id in 0..100u64 {
        sched.ingest_heartbeat(Heartbeat {
            node: NodeId(id),
            at: SimTime::from_secs(2),
            status: NodeStatus::idle(30.0),
        });
    }
    let fresh = sched.recommend(SimTime::from_secs(10), &client(0), key(0));
    assert!(!fresh.candidates.is_empty());
    // 10 minutes later with no heartbeats: everything is stale.
    let stale = sched.recommend(SimTime::from_secs(600), &client(0), key(0));
    assert!(stale.candidates.is_empty());
}

#[test]
fn nat_failures_depress_future_scores() {
    let (mut sched, pop) = scheduler_from_population(300, 6);
    let hard_nodes: Vec<NodeId> = pop
        .nodes
        .iter()
        .filter(|n| n.nat.is_hard())
        .take(50)
        .map(|n| NodeId(n.id))
        .collect();
    assert!(!hard_nodes.is_empty());
    // Report repeated traversal failures on hard-NAT nodes.
    for _ in 0..20 {
        for &n in &hard_nodes {
            sched.observe_connection(SimTime::from_secs(1), n, false);
        }
    }
    // New recommendations de-prioritise hard NAT types.
    let rec = sched.recommend(SimTime::from_secs(1), &client(0), key(0));
    let hard_in_top = rec
        .candidates
        .iter()
        .take(3)
        .filter(|c| pop.nodes[c.node.0 as usize].nat.is_hard())
        .count();
    assert!(hard_in_top <= 1, "hard-NAT nodes still ranked high");
}

#[test]
fn capacity_model_consistent_with_measured_service_times() {
    // The scheduler's modelled per-request latency (Fig 12a) and the
    // capacity model must tell one coherent story: at the per-request
    // CPU cost (microseconds), a modest fleet absorbs production QPS,
    // while a single worker saturates far below it.
    use rlive_control::capacity::CapacityModel;
    let (mut sched, _pop) = scheduler_from_population(500, 9);
    for i in 0..200u64 {
        sched.recommend(SimTime::from_secs(1 + i), &client(0), key(0));
    }
    let p50_ms = sched.service_time_stats().median();
    assert!(p50_ms > 1.0, "service time stats empty");
    // The end-to-end latency the client sees (~58 ms) is dominated by
    // queueing/network, not CPU; the compute cost per request is tiny.
    let cpu_per_request = SimDuration::from_micros(20);
    let single = CapacityModel::new(cpu_per_request, 1);
    assert!(single.saturation_qps() < 100_000.0);
    let fleet = CapacityModel::workers_for(cpu_per_request, 2.0e6, SimDuration::from_millis(5));
    assert!(fleet <= 256, "fleet {fleet} too large for 2 MQPS");
}

#[test]
fn blacklisted_nodes_not_probed_until_expiry() {
    let mut ctl = ClientController::new(ClientControllerConfig::default());
    let t0 = SimTime::from_secs(1);
    for _ in 0..3 {
        ctl.record_failure(t0, NodeId(5));
    }
    let mut probes = Vec::new();
    ctl.probe_list(t0, (5..9).map(NodeId), &mut probes);
    assert_eq!(probes, vec![NodeId(6), NodeId(7), NodeId(8)]);
    let later = t0 + SimDuration::from_secs(200);
    ctl.probe_list(later, [NodeId(5), NodeId(6)], &mut probes);
    assert_eq!(probes[0], NodeId(5), "blacklist expired");
}
