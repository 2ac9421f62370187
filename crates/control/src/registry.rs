//! Tree-based hash structure for candidate retrieval (§4.1.1).
//!
//! Top-K selection over ~1M nodes per request is too expensive, so the
//! scheduler first narrows the pool with a layered hash tree over static
//! attributes. Retrieval seeks exact matches along the full attribute
//! path (stream → ISP → node type → region); when too few nodes match,
//! the criteria are relaxed progressively in reverse priority order
//! (region first, then node type, then ISP, and finally the stream
//! constraint itself), broadening the search while keeping the most
//! important attributes pinned as long as possible.

use crate::features::{NodeClass, NodeId, StreamKey};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The attribute path of one indexed entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrPath {
    /// Substream the node is forwarding, or `None` for the idle index.
    pub stream: Option<StreamKey>,
    /// Node ISP.
    pub isp: u16,
    /// Node quality tier.
    pub class: NodeClass,
    /// Node region.
    pub region: u16,
}

/// A query: the client's preferred attribute values.
#[derive(Debug, Clone, Copy)]
pub struct AttrQuery {
    /// The substream being requested.
    pub stream: StreamKey,
    /// Client ISP (same-ISP nodes avoid cross-ISP transit).
    pub isp: u16,
    /// Preferred node class.
    pub class: NodeClass,
    /// Client region.
    pub region: u16,
}

/// How specific a retrieval result still is after relaxation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum MatchLevel {
    /// Full path matched: stream + ISP + class + region.
    Exact,
    /// Region relaxed.
    AnyRegion,
    /// Region and class relaxed.
    AnyClass,
    /// Region, class and ISP relaxed (stream still pinned).
    AnyIsp,
    /// Stream relaxed too: node not yet forwarding the substream.
    AnyStream,
}

/// The layered hash tree.
///
/// Levels are `stream → isp → class → region → {nodes}`, each level an
/// ordered map keyed by that attribute — the paper's "specialized hash
/// functions at each layer" with a deterministic iteration order. Nodes
/// are indexed once per forwarded substream plus once in the idle index
/// (`stream = None`) so that not-yet-forwarding nodes are reachable
/// after full relaxation.
#[derive(Debug, Default)]
pub struct HashTreeRegistry {
    /// stream -> isp -> class -> region -> nodes
    ///
    /// Ordered maps keep retrieval order deterministic across runs —
    /// candidate ordering feeds probing, so it is behavioural.
    tree: BTreeMap<Option<StreamKey>, IspLevel>,
    /// Reverse index for O(1) removal.
    paths: HashMap<NodeId, Vec<AttrPath>>,
}

type RegionLevel = BTreeMap<u16, BTreeSet<NodeId>>;
type ClassLevel = BTreeMap<NodeClassKey, RegionLevel>;
type IspLevel = BTreeMap<u16, ClassLevel>;

/// `NodeClass` is not `Ord`/`Hash`-friendly as a map key via derive on
/// foreign maps; use a compact key type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct NodeClassKey(u8);

impl From<NodeClass> for NodeClassKey {
    fn from(c: NodeClass) -> Self {
        NodeClassKey(match c {
            NodeClass::HighQuality => 0,
            NodeClass::Normal => 1,
        })
    }
}

impl HashTreeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of indexed nodes.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    fn insert_path(&mut self, node: NodeId, path: AttrPath) {
        self.tree
            .entry(path.stream)
            .or_default()
            .entry(path.isp)
            .or_default()
            .entry(path.class.into())
            .or_default()
            .entry(path.region)
            .or_default()
            .insert(node);
    }

    fn remove_path(&mut self, node: NodeId, path: &AttrPath) {
        if let Some(isp_level) = self.tree.get_mut(&path.stream) {
            if let Some(class_level) = isp_level.get_mut(&path.isp) {
                if let Some(region_level) = class_level.get_mut(&path.class.into()) {
                    if let Some(nodes) = region_level.get_mut(&path.region) {
                        nodes.remove(&node);
                        if nodes.is_empty() {
                            region_level.remove(&path.region);
                        }
                    }
                    if region_level.is_empty() {
                        class_level.remove(&path.class.into());
                    }
                }
                if class_level.is_empty() {
                    isp_level.remove(&path.isp);
                }
            }
            if isp_level.is_empty() {
                self.tree.remove(&path.stream);
            }
        }
    }

    /// (Re-)indexes a node under its static attributes and the set of
    /// substreams it currently forwards.
    pub fn index_node(
        &mut self,
        node: NodeId,
        isp: u16,
        class: NodeClass,
        region: u16,
        forwarding: impl IntoIterator<Item = StreamKey>,
    ) {
        self.remove_node(node);
        let mut paths = vec![AttrPath {
            stream: None,
            isp,
            class,
            region,
        }];
        for key in forwarding {
            paths.push(AttrPath {
                stream: Some(key),
                isp,
                class,
                region,
            });
        }
        for p in &paths {
            self.insert_path(node, *p);
        }
        self.paths.insert(node, paths);
    }

    /// Removes a node from every index entry.
    pub fn remove_node(&mut self, node: NodeId) {
        if let Some(paths) = self.paths.remove(&node) {
            for p in paths {
                self.remove_path(node, &p);
            }
        }
    }

    /// Retrieves at least `want` candidates for `query`, relaxing the
    /// attribute path progressively. Returns the nodes (deduplicated,
    /// most-specific matches first) and the coarsest relaxation level
    /// that was needed.
    pub fn retrieve(&self, query: &AttrQuery, want: usize) -> (Vec<NodeId>, MatchLevel) {
        let mut out = Vec::new();
        let level = self.retrieve_into(query, want, &mut out);
        (out, level)
    }

    /// [`HashTreeRegistry::retrieve`] into a caller-owned buffer, which
    /// is cleared first.
    ///
    /// Deduplication is structural. The stream-pinned levels are nested
    /// (Exact ⊂ AnyRegion ⊂ AnyClass ⊂ AnyIsp), so what a wider level
    /// has not emitted yet is what sits under its *other* keys. By the
    /// time the idle index is reached everything emitted forwards the
    /// stream and is fewer than `want` ids; the idle levels skip those
    /// by binary search, and the last one skips the client's ISP whole.
    pub fn retrieve_into(
        &self,
        query: &AttrQuery,
        want: usize,
        out: &mut Vec<NodeId>,
    ) -> MatchLevel {
        out.clear();
        let (level, _) = self.retrieve_pinned(query, want, out);
        if out.len() >= want {
            return level;
        }
        let mut forwarders = out.clone();
        forwarders.sort_unstable();
        let idle = self.tree.get(&None);
        if let Some(classes) = idle.and_then(|isps| isps.get(&query.isp)) {
            push_classes(out, classes, None, &forwarders);
        }
        if out.len() < want {
            // Final fallback: any idle node anywhere.
            if let Some(isps) = idle {
                push_isps(out, isps, query.isp, &forwarders);
            }
        }
        MatchLevel::AnyStream
    }

    /// The four levels of a retrieval that keep the stream pinned,
    /// appended to `out` until it holds `want` ids. Returns the level
    /// reached and how many of the ids are in the query's ISP (exact
    /// once the class level has run, i.e. whenever `out` fell short).
    pub(crate) fn retrieve_pinned(
        &self,
        query: &AttrQuery,
        want: usize,
        out: &mut Vec<NodeId>,
    ) -> (MatchLevel, usize) {
        let class = NodeClassKey::from(query.class);
        let isps = self.tree.get(&Some(query.stream));
        let classes = isps.and_then(|l| l.get(&query.isp));
        let regions = classes.and_then(|l| l.get(&class));
        if let Some(nodes) = regions.and_then(|l| l.get(&query.region)) {
            out.extend(nodes.iter().copied());
        }
        if out.len() >= want {
            return (MatchLevel::Exact, out.len());
        }
        if let Some(regions) = regions {
            push_regions(out, regions, Some(query.region), &[]);
        }
        if out.len() >= want {
            return (MatchLevel::AnyRegion, out.len());
        }
        if let Some(classes) = classes {
            push_classes(out, classes, Some(class), &[]);
        }
        let same_isp = out.len();
        if out.len() >= want {
            return (MatchLevel::AnyClass, same_isp);
        }
        if let Some(isps) = isps {
            push_isps(out, isps, query.isp, &[]);
        }
        (MatchLevel::AnyIsp, same_isp)
    }

    /// Every node of `isp`, in idle-index order (class, region, id).
    pub(crate) fn idle_in_isp(&self, isp: u16) -> impl Iterator<Item = NodeId> + '_ {
        let classes = self.tree.get(&None).and_then(|isps| isps.get(&isp));
        classes.into_iter().flat_map(nodes_under)
    }

    /// The nodes indexed as forwarding `key`, in index order.
    pub(crate) fn forwarders(&self, key: StreamKey) -> impl Iterator<Item = NodeId> + '_ {
        let isps = self.tree.get(&Some(key));
        isps.into_iter()
            .flat_map(BTreeMap::values)
            .flat_map(nodes_under)
    }
}

fn nodes_under(classes: &ClassLevel) -> impl Iterator<Item = NodeId> + '_ {
    classes
        .values()
        .flat_map(BTreeMap::values)
        .flat_map(|nodes| nodes.iter().copied())
}

/// Appends every ISP of `isps` but `skip`, leaving out the ids in the
/// sorted slice `seen`.
fn push_isps(out: &mut Vec<NodeId>, isps: &IspLevel, skip: u16, seen: &[NodeId]) {
    for (isp, classes) in isps {
        if *isp != skip {
            push_classes(out, classes, None, seen);
        }
    }
}

/// Appends every class of `classes` but `skip`, leaving out the ids in
/// the sorted slice `seen`.
fn push_classes(
    out: &mut Vec<NodeId>,
    classes: &ClassLevel,
    skip: Option<NodeClassKey>,
    seen: &[NodeId],
) {
    for (class, regions) in classes {
        if Some(*class) != skip {
            push_regions(out, regions, None, seen);
        }
    }
}

/// Appends every region of `regions` but `skip`, leaving out the ids in
/// the sorted slice `seen`.
fn push_regions(out: &mut Vec<NodeId>, regions: &RegionLevel, skip: Option<u16>, seen: &[NodeId]) {
    for (region, nodes) in regions {
        if Some(*region) == skip {
            continue;
        }
        if seen.is_empty() {
            out.extend(nodes.iter().copied());
        } else {
            out.extend(nodes.iter().filter(|n| seen.binary_search(n).is_err()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(stream_id: u64, substream: u16) -> StreamKey {
        StreamKey {
            stream_id,
            substream,
        }
    }

    fn setup() -> HashTreeRegistry {
        let mut reg = HashTreeRegistry::new();
        // Node 1: forwarding stream (7,0), ISP 1, HQ, region 10.
        reg.index_node(NodeId(1), 1, NodeClass::HighQuality, 10, [key(7, 0)]);
        // Node 2: same ISP/class, different region, same stream.
        reg.index_node(NodeId(2), 1, NodeClass::HighQuality, 20, [key(7, 0)]);
        // Node 3: same ISP, Normal class, forwarding same stream.
        reg.index_node(NodeId(3), 1, NodeClass::Normal, 10, [key(7, 0)]);
        // Node 4: different ISP, forwarding same stream.
        reg.index_node(NodeId(4), 2, NodeClass::HighQuality, 10, [key(7, 0)]);
        // Node 5: idle node in client's ISP.
        reg.index_node(NodeId(5), 1, NodeClass::Normal, 10, []);
        reg
    }

    fn query() -> AttrQuery {
        AttrQuery {
            stream: key(7, 0),
            isp: 1,
            class: NodeClass::HighQuality,
            region: 10,
        }
    }

    #[test]
    fn exact_match_first() {
        let reg = setup();
        let (nodes, level) = reg.retrieve(&query(), 1);
        assert_eq!(level, MatchLevel::Exact);
        assert_eq!(nodes[0], NodeId(1));
    }

    #[test]
    fn relaxes_region_then_class_then_isp() {
        let reg = setup();
        let (nodes, level) = reg.retrieve(&query(), 2);
        assert_eq!(level, MatchLevel::AnyRegion);
        assert!(nodes.contains(&NodeId(2)));

        let (nodes, level) = reg.retrieve(&query(), 3);
        assert_eq!(level, MatchLevel::AnyClass);
        assert!(nodes.contains(&NodeId(3)));

        let (nodes, level) = reg.retrieve(&query(), 4);
        assert_eq!(level, MatchLevel::AnyIsp);
        assert!(nodes.contains(&NodeId(4)));
    }

    #[test]
    fn relaxing_to_idle_nodes_last() {
        let reg = setup();
        let (nodes, level) = reg.retrieve(&query(), 5);
        assert_eq!(level, MatchLevel::AnyStream);
        assert!(nodes.contains(&NodeId(5)));
        // Specific matches still come first.
        assert_eq!(nodes[0], NodeId(1));
    }

    #[test]
    fn no_duplicates_across_relaxations() {
        let reg = setup();
        let (nodes, _) = reg.retrieve(&query(), 100);
        let unique: BTreeSet<_> = nodes.iter().collect();
        assert_eq!(unique.len(), nodes.len());
        assert_eq!(nodes.len(), 5);
    }

    #[test]
    fn reindex_updates_forwarding() {
        let mut reg = setup();
        // Node 5 starts forwarding the stream: should now match without
        // full relaxation.
        reg.index_node(NodeId(5), 1, NodeClass::Normal, 10, [key(7, 0)]);
        let (nodes, level) = reg.retrieve(&query(), 3);
        assert_eq!(level, MatchLevel::AnyClass);
        assert!(nodes.contains(&NodeId(5)));
    }

    #[test]
    fn remove_node_clears_all_paths() {
        let mut reg = setup();
        reg.remove_node(NodeId(1));
        let (nodes, _) = reg.retrieve(&query(), 100);
        assert!(!nodes.contains(&NodeId(1)));
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn different_substreams_are_distinct() {
        let mut reg = HashTreeRegistry::new();
        reg.index_node(NodeId(1), 1, NodeClass::Normal, 1, [key(7, 0)]);
        reg.index_node(NodeId(2), 1, NodeClass::Normal, 1, [key(7, 1)]);
        let q = AttrQuery {
            stream: key(7, 1),
            isp: 1,
            class: NodeClass::Normal,
            region: 1,
        };
        let (nodes, level) = reg.retrieve(&q, 1);
        assert_eq!(level, MatchLevel::Exact);
        assert_eq!(nodes[0], NodeId(2));
    }

    #[test]
    fn empty_registry_returns_nothing() {
        let reg = HashTreeRegistry::new();
        let (nodes, _) = reg.retrieve(&query(), 3);
        assert!(nodes.is_empty());
    }
}
