//! Property-based tests of the control plane: registry membership
//! invariants, quota accounting, scoring bounds and switching-rule
//! consistency.

use proptest::prelude::*;
use rlive_control::client::{ClientController, ClientControllerConfig, SwitchDecision};
use rlive_control::features::{
    ClientId, ClientInfo, ConnectionType, NodeClass, NodeId, NodeStatus, StaticFeatures, StreamKey,
};
use rlive_control::quota::NodeQuotas;
use rlive_control::registry::{AttrQuery, HashTreeRegistry, MatchLevel};
use rlive_control::scoring::{score, NatSuccessHistory, Platform, ScoreWeights};
use rlive_sim::nat::NatType;
use rlive_sim::{SimDuration, SimTime};
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum RegistryOp {
    Index {
        node: u64,
        isp: u16,
        region: u16,
        class: NodeClass,
        forwarding: Vec<StreamKey>,
    },
    Remove {
        node: u64,
    },
}

fn arb_class() -> impl Strategy<Value = NodeClass> {
    prop_oneof![Just(NodeClass::HighQuality), Just(NodeClass::Normal)]
}

fn arb_key() -> impl Strategy<Value = StreamKey> {
    (0u64..3, 0u16..2).prop_map(|(stream_id, substream)| StreamKey {
        stream_id,
        substream,
    })
}

fn arb_op() -> impl Strategy<Value = RegistryOp> {
    prop_oneof![
        (
            0u64..40,
            0u16..3,
            0u16..4,
            arb_class(),
            prop::collection::vec(arb_key(), 0..4),
        )
            .prop_map(|(node, isp, region, class, forwarding)| RegistryOp::Index {
                node,
                isp,
                region,
                class,
                forwarding,
            }),
        (0u64..40).prop_map(|node| RegistryOp::Remove { node }),
    ]
}

fn arb_query() -> impl Strategy<Value = AttrQuery> {
    (arb_key(), 0u16..3, arb_class(), 0u16..4).prop_map(|(stream, isp, class, region)| AttrQuery {
        stream,
        isp,
        class,
        region,
    })
}

/// The retrieval algorithm `HashTreeRegistry` had before it was
/// bounded, kept verbatim as the reference: each relaxation level
/// collects every id under its pinned keys, however many that is, and a
/// per-call `HashSet` drops the ids an earlier level already emitted.
mod reference {
    use super::{AttrQuery, MatchLevel, NodeClass, NodeId, StreamKey};
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

    type Path = (Option<StreamKey>, u16, u8, u16);
    type RegionLevel = BTreeMap<u16, BTreeSet<NodeId>>;
    type ClassLevel = BTreeMap<u8, RegionLevel>;
    type IspLevel = BTreeMap<u16, ClassLevel>;

    fn class_key(c: NodeClass) -> u8 {
        match c {
            NodeClass::HighQuality => 0,
            NodeClass::Normal => 1,
        }
    }

    #[derive(Default)]
    pub struct Registry {
        tree: BTreeMap<Option<StreamKey>, IspLevel>,
        paths: HashMap<NodeId, Vec<Path>>,
    }

    impl Registry {
        pub fn index_node(
            &mut self,
            node: NodeId,
            isp: u16,
            class: NodeClass,
            region: u16,
            forwarding: impl IntoIterator<Item = StreamKey>,
        ) {
            self.remove_node(node);
            let mut paths = vec![(None, isp, class_key(class), region)];
            for key in forwarding {
                paths.push((Some(key), isp, class_key(class), region));
            }
            for (stream, isp, class, region) in &paths {
                self.tree
                    .entry(*stream)
                    .or_default()
                    .entry(*isp)
                    .or_default()
                    .entry(*class)
                    .or_default()
                    .entry(*region)
                    .or_default()
                    .insert(node);
            }
            self.paths.insert(node, paths);
        }

        pub fn remove_node(&mut self, node: NodeId) {
            for (stream, isp, class, region) in self.paths.remove(&node).unwrap_or_default() {
                // Emptied levels stay behind; an empty level yields no
                // ids, so retrieval cannot tell.
                if let Some(nodes) = self
                    .tree
                    .get_mut(&stream)
                    .and_then(|l| l.get_mut(&isp))
                    .and_then(|l| l.get_mut(&class))
                    .and_then(|l| l.get_mut(&region))
                {
                    nodes.remove(&node);
                }
            }
        }

        fn collect_region(out: &mut Vec<NodeId>, region_level: &RegionLevel, region: Option<u16>) {
            match region {
                Some(r) => {
                    if let Some(nodes) = region_level.get(&r) {
                        out.extend(nodes.iter().copied());
                    }
                }
                None => {
                    for nodes in region_level.values() {
                        out.extend(nodes.iter().copied());
                    }
                }
            }
        }

        fn collect(
            &self,
            stream: Option<StreamKey>,
            isp: Option<u16>,
            class: Option<NodeClass>,
            region: Option<u16>,
        ) -> Vec<NodeId> {
            let mut out = Vec::new();
            let Some(isp_level) = self.tree.get(&stream) else {
                return out;
            };
            let isps: Vec<&ClassLevel> = match isp {
                Some(i) => isp_level.get(&i).into_iter().collect(),
                None => isp_level.values().collect(),
            };
            for class_level in isps {
                let classes: Vec<&RegionLevel> = match class {
                    Some(c) => class_level.get(&class_key(c)).into_iter().collect(),
                    None => class_level.values().collect(),
                };
                for region_level in classes {
                    Self::collect_region(&mut out, region_level, region);
                }
            }
            out
        }

        pub fn retrieve(&self, query: &AttrQuery, want: usize) -> (Vec<NodeId>, MatchLevel) {
            type Plan = (
                MatchLevel,
                Option<StreamKey>,
                Option<u16>,
                Option<NodeClass>,
                Option<u16>,
            );
            let plans: [Plan; 5] = [
                (
                    MatchLevel::Exact,
                    Some(query.stream),
                    Some(query.isp),
                    Some(query.class),
                    Some(query.region),
                ),
                (
                    MatchLevel::AnyRegion,
                    Some(query.stream),
                    Some(query.isp),
                    Some(query.class),
                    None,
                ),
                (
                    MatchLevel::AnyClass,
                    Some(query.stream),
                    Some(query.isp),
                    None,
                    None,
                ),
                (MatchLevel::AnyIsp, Some(query.stream), None, None, None),
                (MatchLevel::AnyStream, None, Some(query.isp), None, None),
            ];
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            let mut level = MatchLevel::Exact;
            for (lvl, stream, isp, class, region) in plans {
                level = lvl;
                for n in self.collect(stream, isp, class, region) {
                    if seen.insert(n) {
                        out.push(n);
                    }
                }
                if out.len() >= want {
                    return (out, level);
                }
            }
            // Final fallback: any idle node anywhere.
            for n in self.collect(None, None, None, None) {
                if seen.insert(n) {
                    out.push(n);
                }
            }
            (out, level)
        }
    }
}

/// What each relaxation level of the reference adds to the pool for
/// `query`, most specific first, empty levels left out: asking for one
/// id more than the levels so far hold returns the next one whole.
fn reference_levels(reference: &reference::Registry, query: &AttrQuery) -> Vec<Vec<NodeId>> {
    let mut levels = Vec::new();
    let mut have = 0;
    loop {
        let (pool, _) = reference.retrieve(query, have + 1);
        if pool.len() == have {
            return levels;
        }
        levels.push(pool[have..].to_vec());
        have = pool.len();
    }
}

proptest! {
    /// After any sequence of index/remove operations, retrieval returns
    /// exactly the live nodes (no removed node, no duplicates) and the
    /// reverse index size matches.
    #[test]
    fn registry_membership(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut reg = HashTreeRegistry::new();
        let mut live = HashSet::new();
        for op in ops {
            match op {
                RegistryOp::Index { node, isp, region, class, forwarding } => {
                    reg.index_node(NodeId(node), isp, class, region, forwarding);
                    live.insert(node);
                }
                RegistryOp::Remove { node } => {
                    reg.remove_node(NodeId(node));
                    live.remove(&node);
                }
            }
        }
        prop_assert_eq!(reg.len(), live.len());
        let (nodes, _) = reg.retrieve(
            &AttrQuery {
                stream: StreamKey { stream_id: 0, substream: 0 },
                isp: 0,
                class: NodeClass::Normal,
                region: 0,
            },
            usize::MAX / 2,
        );
        let unique: HashSet<_> = nodes.iter().collect();
        prop_assert_eq!(unique.len(), nodes.len(), "duplicates in retrieval");
        for n in &nodes {
            prop_assert!(live.contains(&n.0), "removed node {n:?} returned");
        }
        prop_assert_eq!(nodes.len(), live.len(), "retrieval missed live nodes");
    }

    /// Bounded retrieval against the unbounded reference, whatever mix
    /// of index, re-index and remove built the tree, for a `want` that
    /// is nothing, stops inside the stream-pinned levels, at the idle
    /// level, and never. The result is `want` ids of the reference's
    /// pool (all of it when it is smaller) at the reference's level,
    /// and it fills the reference's relaxation levels in order: each is
    /// there whole if it fits in what is still needed, and gives
    /// exactly the rest if it does not.
    #[test]
    fn retrieval_matches_reference(
        ops in prop::collection::vec(arb_op(), 1..120),
        queries in prop::collection::vec(arb_query(), 1..6),
    ) {
        let mut reg = HashTreeRegistry::new();
        let mut reference = reference::Registry::default();
        for op in ops {
            match op {
                RegistryOp::Index { node, isp, region, class, forwarding } => {
                    reg.index_node(NodeId(node), isp, class, region, forwarding.iter().copied());
                    reference.index_node(NodeId(node), isp, class, region, forwarding);
                }
                RegistryOp::Remove { node } => {
                    reg.remove_node(NodeId(node));
                    reference.remove_node(NodeId(node));
                }
            }
        }
        // A dirty buffer: `retrieve_into` must not depend on its content.
        let mut buf = vec![NodeId(u64::MAX); 3];
        for query in &queries {
            let levels = reference_levels(&reference, query);
            for want in [0, 1, 8, 64, reg.len(), usize::MAX / 2] {
                let (pool, level) = reference.retrieve(query, want);
                let (got, got_level) = reg.retrieve(query, want);
                prop_assert_eq!(got.len(), want.min(pool.len()), "want {}", want);
                prop_assert_eq!(got_level, level, "want {}", want);
                let unique: HashSet<NodeId> = got.iter().copied().collect();
                prop_assert_eq!(unique.len(), got.len(), "duplicates, want {}", want);
                prop_assert!(got.iter().all(|n| pool.contains(n)), "want {}", want);
                let mut need = want;
                for ids in &levels {
                    let taken = ids.iter().filter(|n| unique.contains(n)).count();
                    prop_assert_eq!(taken, need.min(ids.len()), "want {} level {:?}", want, ids);
                    need -= taken;
                }
                // The cursors have moved, so the ids may differ; their
                // number and level may not.
                let into_level = reg.retrieve_into(query, want, &mut buf);
                prop_assert_eq!((buf.len(), into_level), (got.len(), level), "want {}", want);
                prop_assert!(buf.iter().all(|n| pool.contains(n)), "want {} (into)", want);
            }
        }
    }

    /// Quota reserve/release never drives usage negative, and
    /// availability stays in [0, 1].
    #[test]
    fn quota_accounting(
        reserves in prop::collection::vec((0.1f64..10.0, 0.001f64..0.2, 0.5f64..32.0), 1..60),
        release_mask in prop::collection::vec(any::<bool>(), 1..60),
    ) {
        let mut q = NodeQuotas::new(50.0, 2.0, 512.0, 40.0);
        let mut accepted = Vec::new();
        for r in &reserves {
            if q.reserve(r.0, r.1, r.2) {
                accepted.push(*r);
            }
            prop_assert!(q.bandwidth.used <= q.bandwidth.capacity + 1e-9);
            prop_assert!(q.sessions.used <= q.sessions.capacity + 1e-9);
            prop_assert!((0.0..=1.0).contains(&q.availability()));
        }
        for (i, r) in accepted.iter().enumerate() {
            if *release_mask.get(i % release_mask.len()).unwrap_or(&true) {
                q.release(r.0, r.1, r.2);
            }
            prop_assert!(q.bandwidth.used >= -1e-9);
            prop_assert!(q.cpu.used >= -1e-9);
            prop_assert!(q.sessions.used >= -1e-9);
        }
    }

    /// Scores are always within [0, 1] for weight profiles that sum to 1.
    #[test]
    fn score_bounded(
        isp in 0u16..8,
        bgp in any::<u32>(),
        geo_x in -100.0f64..100.0,
        geo_y in -100.0f64..100.0,
        used in 0.0f64..200.0,
        cap in 1.0f64..200.0,
        nat_idx in 0usize..7,
    ) {
        let weights = ScoreWeights::for_platform(Platform::Android);
        let hist = NatSuccessHistory::default();
        let statics = StaticFeatures {
            isp,
            region: 0,
            bgp_prefix: bgp,
            geo: (geo_x, geo_y),
            class: NodeClass::Normal,
            conn_type: ConnectionType::Cable,
            nat: NatType::ALL[nat_idx],
        };
        let mut status = NodeStatus::idle(cap);
        status.used_mbps = used.min(cap);
        let client = ClientInfo {
            id: ClientId(1),
            isp: 1,
            region: 0,
            bgp_prefix: 7,
            geo: (0.0, 0.0),
            platform: Platform::Android,
        };
        let s = score(&weights, &statics, &status, &client, &hist);
        prop_assert!((0.0..=1.0).contains(&s), "score {s}");
    }

    /// The switching rule never targets the current publisher and only
    /// fires when the margin condition genuinely holds.
    #[test]
    fn switch_rule_consistent(
        current_rtt in 1u64..2_000,
        candidates in prop::collection::vec((0u64..20, 1u64..2_000), 1..10),
    ) {
        let mut ctl = ClientController::new(ClientControllerConfig::default());
        let t_change = ctl.config().t_change;
        let current = NodeId(999);
        let cands: Vec<(NodeId, SimDuration)> = candidates
            .iter()
            .map(|&(id, rtt)| (NodeId(id), SimDuration::from_millis(rtt)))
            .collect();
        let decision = ctl.assess_switch(
            SimTime::from_secs(1),
            current,
            SimDuration::from_millis(current_rtt),
            &cands,
        );
        let best = cands
            .iter()
            .filter(|(n, _)| *n != current)
            .min_by_key(|(_, r)| *r);
        match decision {
            SwitchDecision::SwitchTo(n) => {
                prop_assert_ne!(n, current);
                let (bn, br) = best.expect("candidates non-empty");
                prop_assert_eq!(n, *bn);
                prop_assert!(
                    SimDuration::from_millis(current_rtt) > *br + t_change,
                    "switch without margin"
                );
            }
            SwitchDecision::Stay => {
                if let Some((_, br)) = best {
                    prop_assert!(
                        SimDuration::from_millis(current_rtt) <= *br + t_change,
                        "missed a justified switch"
                    );
                }
            }
        }
    }
}
