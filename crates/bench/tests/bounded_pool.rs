//! Scheduler-level consequences of bounded retrieval on a production-
//! shaped population: a cold 30 000-node, 1 %-high-quality registry
//! still serves clients that may use only one of the two tiers, and a
//! recommendation is a function of the calls made so far.

use rlive_control::features::{
    ClientId, ClientInfo, ConnectionType, NodeClass, NodeId, NodeStatus, StaticFeatures, StreamKey,
};
use rlive_control::scheduler::{GlobalScheduler, Recommendation, SchedulerConfig};
use rlive_control::scoring::Platform;
use rlive_sim::{SimRng, SimTime};
use rlive_workload::nodes::{NodePopulation, PopulationConfig};
use std::collections::BTreeSet;

const NODES: usize = 30_000;

fn population() -> NodePopulation {
    let cfg = PopulationConfig {
        count: NODES,
        ..PopulationConfig::default()
    };
    NodePopulation::generate(&cfg, &mut SimRng::new(7))
}

/// A scheduler with every node of `pop` registered idle, as
/// `World::new` registers them.
fn cold_scheduler(pop: &NodePopulation) -> GlobalScheduler {
    let mut sched = GlobalScheduler::new(SchedulerConfig::default(), SimRng::new(1));
    for node in &pop.nodes {
        let statics = StaticFeatures {
            isp: node.isp,
            region: node.region,
            bgp_prefix: node.bgp_prefix,
            geo: node.geo,
            class: if node.high_quality {
                NodeClass::HighQuality
            } else {
                NodeClass::Normal
            },
            conn_type: ConnectionType::Cable,
            nat: node.nat,
        };
        sched.register_node(
            NodeId(node.id),
            statics,
            NodeStatus::idle(node.capacity_mbps),
        );
    }
    sched
}

/// Viewer `id`, with the attribute distribution of a client arrival.
fn viewer(cfg: &PopulationConfig, rng: &mut SimRng, id: u64) -> ClientInfo {
    let region = rng.below(cfg.regions as u64) as u16;
    ClientInfo {
        id: ClientId(id),
        isp: rng.below(cfg.isps as u64) as u16,
        region,
        bgp_prefix: region as u32 * cfg.prefixes_per_region
            + rng.below(cfg.prefixes_per_region as u64) as u32,
        geo: (
            (region % 4) as f64 * 10.0 + rng.range_f64(0.0, 10.0),
            (region / 4) as f64 * 10.0 + rng.range_f64(0.0, 10.0),
        ),
        platform: Platform::Android,
    }
}

/// One candidate refresh of a multi-source client: a recommendation
/// per substream.
fn refresh(sched: &mut GlobalScheduler, client: &ClientInfo) -> Vec<Recommendation> {
    (0..4)
        .map(|substream| {
            let key = StreamKey {
                stream_id: client.id.0 % 8,
                substream,
            };
            sched.recommend(SimTime::from_secs(1), client, key)
        })
        .collect()
}

/// `session::tier_allows` drops high-quality candidates for a split
/// client of a two-tier world and everything else for the strawman. Every
/// refresh must leave the first something to probe — a walk that took
/// the queried class first would fill all 64 places from the ISP's ~75
/// idle high-quality nodes and leave it nothing. The second depends on
/// the scorer too (a pooled high-quality node still has to rank or be
/// drawn), so it is held to nine refreshes in ten.
#[test]
fn both_tiers_stay_reachable_on_a_cold_30k_registry() {
    let pop = population();
    let cfg = PopulationConfig::default();
    let hq: BTreeSet<NodeId> = pop.high_quality().map(|n| NodeId(n.id)).collect();
    assert_eq!(hq.len(), NODES / 100);
    let mut sched = cold_scheduler(&pop);
    let mut rng = SimRng::new(11);
    let (mut hq_cells, mut hq_served) = (0, 0);
    for id in 0..200 {
        let client = viewer(&cfg, &mut rng, id);
        let recs = refresh(&mut sched, &client);
        let offered: Vec<NodeId> = recs
            .iter()
            .flat_map(|rec| rec.candidates.iter().map(|c| c.node))
            .collect();
        assert_eq!(offered.len(), 4 * sched.config().top_k);
        assert!(
            offered.iter().any(|n| !hq.contains(n)),
            "client {id}: nothing a weak-tier-only client may use"
        );
        let cell_has_hq = pop
            .high_quality()
            .any(|n| n.isp == client.isp && n.region == client.region);
        hq_cells += u32::from(cell_has_hq);
        hq_served += u32::from(cell_has_hq && offered.iter().any(|n| hq.contains(n)));
    }
    assert!(
        hq_cells >= 150,
        "only {hq_cells} of 200 clients near HQ nodes"
    );
    assert!(
        hq_served * 10 >= hq_cells * 9,
        "{hq_served} of {hq_cells} high-quality-only clients were offered a node they may use"
    );
}

/// The leaf cursors are the only state retrieval keeps, and only
/// retrieval moves them: the same calls in the same order give the same
/// answers, and a repeated call gives a different window of the leaf.
#[test]
fn same_call_sequence_same_recommendations() {
    let pop = population();
    let cfg = PopulationConfig::default();
    let (mut a, mut b) = (cold_scheduler(&pop), cold_scheduler(&pop));
    let mut windows = BTreeSet::new();
    for id in 0..100 {
        // Each client refreshes four times running.
        let client = viewer(&cfg, &mut SimRng::new(13 + id / 4), id / 4);
        let (from_a, from_b) = (refresh(&mut a, &client), refresh(&mut b, &client));
        for (x, y) in from_a.iter().zip(&from_b) {
            assert_eq!(x.candidates, y.candidates, "client {id}");
            assert_eq!(x.service_time, y.service_time, "client {id}");
            assert_eq!(x.match_level, y.match_level, "client {id}");
        }
        let nodes: Vec<NodeId> = from_a[0].candidates.iter().map(|c| c.node).collect();
        windows.insert((client.id, nodes));
    }
    assert!(
        windows.len() > 90,
        "{} distinct answers to 100 refreshes: repeated calls did not rotate",
        windows.len()
    );
}
