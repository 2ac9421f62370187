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
use rlive_sim::BuildIdHasher;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// A node's static attributes: where it sits under every stream.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Attrs {
    isp: u16,
    class: NodeClassKey,
    region: u16,
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
/// so that not-yet-forwarding nodes are reachable after full
/// relaxation.
///
/// Every node has a dense *slot*, assigned the first time it is indexed
/// and never reused: leaves hold slots, and the slot-indexed tables
/// below hold what a slot stands for. The scheduler indexes its node
/// records by the same slot, so the control plane has one id map.
///
/// Retrieval is bounded: it hands out at most `want` ids however many
/// match, and every leaf remembers where it stopped, so successive
/// retrievals rotate through a leaf instead of starving its tail. The
/// cursors are advanced by retrieval alone, which makes a result a
/// function of the index content and the order of the calls.
#[derive(Debug, Default)]
pub struct HashTreeRegistry {
    /// stream -> isp -> class -> region -> nodes
    ///
    /// Ordered maps keep retrieval order deterministic across runs —
    /// candidate ordering feeds probing, so it is behavioural.
    streams: BTreeMap<StreamKey, IspLevel>,
    /// The idle index: every node, whatever it forwards.
    idle: IspLevel,
    /// Every indexed node's slot.
    slots: HashMap<NodeId, u32, BuildIdHasher>,
    /// By slot: the node's id and its attributes.
    ids: Vec<NodeId>,
    attrs: Vec<Attrs>,
    /// By slot, the substreams of the nodes that forward any. An idle
    /// node owns no heap block here.
    forwarded: HashMap<u32, Vec<StreamKey>, BuildIdHasher>,
    /// Slot scratch of [`HashTreeRegistry::retrieve_into`]; empty
    /// between calls.
    scratch: Vec<u32>,
}

type RegionLevel = BTreeMap<u16, Leaf>;
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

/// The nodes under one full attribute path: their slots, sorted by id
/// through the registry's id table (`ids` below).
#[derive(Debug, Default)]
struct Leaf {
    slots: Vec<u32>,
    /// Where the next retrieval resumes: one past the last id handed
    /// out. Ids at or above it go first, then the walk wraps.
    cursor: NodeId,
}

impl Leaf {
    /// Where `slot` is, or would be, in the id order.
    fn find(&self, ids: &[NodeId], slot: u32) -> Result<usize, usize> {
        let id = |s: &u32| ids[*s as usize];
        self.slots.binary_search_by_key(&id(&slot), id)
    }

    /// How many ids the leaf holds outside `skip`, a subset of it.
    fn size(&self, skip: Option<&Leaf>) -> usize {
        self.slots.len() - skip.map_or(0, |s| s.slots.len())
    }

    /// Appends the next `n` slots outside `skip` to `out` and moves the
    /// cursor past the last of them. `n` is at most [`Leaf::size`].
    fn hand_out(&mut self, n: usize, skip: Option<&Leaf>, ids: &[NodeId], out: &mut Vec<u32>) {
        if n == 0 {
            return;
        }
        let start = self
            .slots
            .partition_point(|&s| ids[s as usize] < self.cursor);
        let (below, from) = self.slots.split_at(start);
        let emitted = out.len();
        out.extend(
            from.iter()
                .chain(below)
                .filter(|&&s| skip.is_none_or(|l| l.find(ids, s).is_err()))
                .take(n),
        );
        let last = out[emitted..].last().expect("n <= size");
        self.cursor = NodeId(ids[*last as usize].0.wrapping_add(1));
    }
}

/// Which keys of one tree layer a relaxation level admits.
#[derive(Debug, Clone, Copy)]
enum Pick<K> {
    Only(K),
    Except(K),
    Any,
}

impl<K: Ord + Copy> Pick<K> {
    /// The admitted entries of `layer`, in key order.
    fn of<'a, V>(self, layer: &'a mut BTreeMap<K, V>) -> impl Iterator<Item = (&'a K, &'a mut V)>
    where
        K: 'a,
    {
        let bounds = match self {
            Pick::Only(k) => (Bound::Included(k), Bound::Included(k)),
            Pick::Except(_) | Pick::Any => (Bound::Unbounded, Bound::Unbounded),
        };
        layer
            .range_mut(bounds)
            .filter(move |(k, _)| !matches!(self, Pick::Except(skip) if skip == **k))
    }
}

/// One relaxation level: the leaves under the admitted keys of each
/// layer below the stream.
#[derive(Debug, Clone, Copy)]
struct Level {
    isp: Pick<u16>,
    class: Pick<NodeClassKey>,
    region: Pick<u16>,
}

impl Level {
    /// The level's leaves in `isps`, in key order, each paired with the
    /// leaf at the same path of `skip`.
    fn leaves<'a>(
        self,
        isps: &'a mut IspLevel,
        skip: Option<&'a IspLevel>,
    ) -> impl Iterator<Item = (&'a mut Leaf, Option<&'a Leaf>)> {
        self.isp.of(isps).flat_map(move |(isp, classes)| {
            let skip = skip.and_then(|l| l.get(isp));
            self.class.of(classes).flat_map(move |(class, regions)| {
                let skip = skip.and_then(|l| l.get(class));
                self.region
                    .of(regions)
                    .map(move |(region, leaf)| (leaf, skip.and_then(|l| l.get(region))))
            })
        })
    }

    /// Appends `need` of the level's slots outside `skip` to `out`, or
    /// all of them when there are no more than that, taken round-robin
    /// from its leaves: every leaf gives `share` ids (a smaller leaf
    /// all it has) and the first `extra` of the larger ones one more.
    fn take(
        self,
        isps: &mut IspLevel,
        skip: Option<&IspLevel>,
        ids: &[NodeId],
        need: usize,
        out: &mut Vec<u32>,
    ) {
        // The largest share with Σ min(size, share) <= need. Each round
        // but the last finds a leaf the share has outgrown.
        let mut share = 0;
        let mut extra = 0;
        loop {
            let (mut outgrown, mut larger) = (0, 0);
            for (leaf, skip) in self.leaves(isps, skip) {
                match leaf.size(skip) {
                    size if size <= share => outgrown += size,
                    _ => larger += 1,
                }
            }
            if larger == 0 {
                break;
            }
            let left = need - outgrown;
            if left / larger == share {
                extra = left % larger;
                break;
            }
            share = left / larger;
        }
        for (leaf, skip) in self.leaves(isps, skip) {
            let size = leaf.size(skip);
            let n = if size <= share {
                size
            } else {
                let one_more = usize::from(extra > 0);
                extra -= one_more;
                share + one_more
            };
            leaf.hand_out(n, skip, ids, out);
        }
    }
}

impl HashTreeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of indexed nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Makes room for `nodes` more nodes.
    pub(crate) fn reserve(&mut self, nodes: usize) {
        self.slots.reserve(nodes);
        self.ids.reserve_exact(nodes);
        self.attrs.reserve_exact(nodes);
    }

    /// `node`'s slot, if it is indexed.
    pub(crate) fn slot(&self, node: NodeId) -> Option<usize> {
        self.slots.get(&node).map(|&s| s as usize)
    }

    /// The node at `slot`.
    pub(crate) fn id(&self, slot: u32) -> NodeId {
        self.ids[slot as usize]
    }

    /// Files `slot` under `a` in `stream`'s subtree, or the idle index.
    fn insert_path(&mut self, slot: u32, stream: Option<StreamKey>, a: Attrs) {
        let isps = match stream {
            Some(key) => self.streams.entry(key).or_default(),
            None => &mut self.idle,
        };
        let leaf = isps
            .entry(a.isp)
            .or_default()
            .entry(a.class)
            .or_default()
            .entry(a.region)
            .or_default();
        if let Err(i) = leaf.find(&self.ids, slot) {
            leaf.slots.insert(i, slot);
        }
    }

    /// Undoes [`HashTreeRegistry::insert_path`], pruning emptied levels.
    fn remove_path(&mut self, slot: u32, stream: Option<StreamKey>, a: Attrs) {
        let isps = match stream {
            Some(key) => match self.streams.get_mut(&key) {
                Some(isps) => isps,
                None => return,
            },
            None => &mut self.idle,
        };
        if let Some(class_level) = isps.get_mut(&a.isp) {
            if let Some(region_level) = class_level.get_mut(&a.class) {
                if let Some(leaf) = region_level.get_mut(&a.region) {
                    if let Ok(i) = leaf.find(&self.ids, slot) {
                        leaf.slots.remove(i);
                    }
                    if leaf.slots.is_empty() {
                        region_level.remove(&a.region);
                    }
                }
                if region_level.is_empty() {
                    class_level.remove(&a.class);
                }
            }
            if class_level.is_empty() {
                isps.remove(&a.isp);
            }
        }
        if let (Some(key), true) = (stream, isps.is_empty()) {
            self.streams.remove(&key);
        }
    }

    /// (Re-)indexes a node under its static attributes and the set of
    /// substreams it currently forwards, and returns its slot. With the
    /// attributes unchanged, the idle index is left alone and only the
    /// substreams that came or went move.
    pub fn index_node(
        &mut self,
        node: NodeId,
        isp: u16,
        class: NodeClass,
        region: u16,
        forwarding: impl IntoIterator<Item = StreamKey>,
    ) -> usize {
        let a = Attrs {
            isp,
            class: class.into(),
            region,
        };
        let next = u32::try_from(self.ids.len()).expect("fewer than 2^32 nodes");
        let slot = *self.slots.entry(node).or_insert(next);
        // The node's substream list is reused (a new slot has none): the
        // old keys, then the new.
        let mut keys = if slot == next {
            Vec::new()
        } else {
            self.forwarded.remove(&slot).unwrap_or_default()
        };
        let old_len = keys.len();
        keys.extend(forwarding);
        let (old, new) = keys.split_at(old_len);
        let moved = if slot == next {
            self.ids.push(node);
            self.attrs.push(a);
            self.insert_path(slot, None, a);
            false
        } else {
            let old_attrs = std::mem::replace(&mut self.attrs[slot as usize], a);
            let moved = old_attrs != a;
            for &key in old.iter().filter(|k| moved || !new.contains(k)) {
                self.remove_path(slot, Some(key), old_attrs);
            }
            if moved {
                self.remove_path(slot, None, old_attrs);
                self.insert_path(slot, None, a);
            }
            moved
        };
        for &key in new.iter().filter(|k| moved || !old.contains(k)) {
            self.insert_path(slot, Some(key), a);
        }
        keys.drain(..old_len);
        if !keys.is_empty() {
            self.forwarded.insert(slot, keys);
        }
        slot as usize
    }

    /// Retrieves at most `want` candidates for `query` — exactly `want`
    /// when that many nodes are indexed — relaxing the attribute path
    /// progressively. Returns the nodes (deduplicated, most-specific
    /// matches first) and the coarsest relaxation level that was
    /// needed. Advances the cursors of the leaves it takes from.
    pub fn retrieve(&mut self, query: &AttrQuery, want: usize) -> (Vec<NodeId>, MatchLevel) {
        let mut out = Vec::new();
        let level = self.retrieve_into(query, want, &mut out);
        (out, level)
    }

    /// [`HashTreeRegistry::retrieve`] into a caller-owned buffer, which
    /// is cleared first.
    pub fn retrieve_into(
        &mut self,
        query: &AttrQuery,
        want: usize,
        out: &mut Vec<NodeId>,
    ) -> MatchLevel {
        let mut slots = std::mem::take(&mut self.scratch);
        let level = self.retrieve_slots_into(query, want, &mut slots);
        out.clear();
        out.extend(slots.drain(..).map(|s| self.ids[s as usize]));
        self.scratch = slots;
        level
    }

    /// [`HashTreeRegistry::retrieve_into`] handing out slots.
    ///
    /// Levels are walked in relaxation order. One that fits in what is
    /// still needed is taken whole; the first that does not gives
    /// exactly the rest, round-robin over its leaves, each resuming
    /// where its cursor stands and wrapping. The work is O(`want`) plus
    /// a walk over the level's leaf *count*, which the attribute
    /// cardinalities fix, not the population.
    ///
    /// The stream-pinned levels are disjoint by construction. Once they
    /// are exhausted every forwarder of the stream has been emitted, so
    /// the idle levels leave out, leaf by leaf, what the stream's own
    /// subtree holds at the same path. The idle walk is the client's
    /// ISP and region with the classes interleaved, then the ISP's
    /// other regions, then the other ISPs: proximity is what the scorer
    /// rewards, and a class-first walk would never reach a `Normal`
    /// node where the high-quality ones alone cover `want`.
    pub(crate) fn retrieve_slots_into(
        &mut self,
        query: &AttrQuery,
        want: usize,
        out: &mut Vec<u32>,
    ) -> MatchLevel {
        use Pick::{Any, Except, Only};
        out.clear();
        if want == 0 {
            return MatchLevel::Exact;
        }
        let class = NodeClassKey::from(query.class);
        let (isp, region) = (query.isp, query.region);
        if let Some(isps) = self.streams.get_mut(&query.stream) {
            let pinned = [
                (MatchLevel::Exact, Only(isp), Only(class), Only(region)),
                (
                    MatchLevel::AnyRegion,
                    Only(isp),
                    Only(class),
                    Except(region),
                ),
                (MatchLevel::AnyClass, Only(isp), Except(class), Any),
                (MatchLevel::AnyIsp, Except(isp), Any, Any),
            ];
            for (match_level, isp, class, region) in pinned {
                let level = Level { isp, class, region };
                level.take(isps, None, &self.ids, want - out.len(), out);
                if out.len() == want {
                    return match_level;
                }
            }
        }
        let forwarders = self.streams.get(&query.stream);
        let idle = [
            (Only(isp), Only(region)),
            (Only(isp), Except(region)),
            (Except(isp), Any),
        ];
        for (isp, region) in idle {
            let level = Level {
                isp,
                class: Any,
                region,
            };
            level.take(&mut self.idle, forwarders, &self.ids, want - out.len(), out);
            if out.len() == want {
                break;
            }
        }
        MatchLevel::AnyStream
    }

    /// The slots indexed as forwarding `key`, in index order.
    pub(crate) fn forwarders(&self, key: StreamKey) -> impl Iterator<Item = u32> + '_ {
        let isps = self.streams.get(&key);
        isps.into_iter()
            .flat_map(BTreeMap::values)
            .flat_map(BTreeMap::values)
            .flat_map(BTreeMap::values)
            .flat_map(|leaf| leaf.slots.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
        let mut reg = setup();
        let (nodes, level) = reg.retrieve(&query(), 1);
        assert_eq!(level, MatchLevel::Exact);
        assert_eq!(nodes[0], NodeId(1));
    }

    #[test]
    fn relaxes_region_then_class_then_isp() {
        let mut reg = setup();
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
        let mut reg = setup();
        let (nodes, level) = reg.retrieve(&query(), 5);
        assert_eq!(level, MatchLevel::AnyStream);
        assert!(nodes.contains(&NodeId(5)));
        // Specific matches still come first.
        assert_eq!(nodes[0], NodeId(1));
    }

    #[test]
    fn no_duplicates_across_relaxations() {
        let mut reg = setup();
        for want in [3, 5, 100] {
            let (nodes, _) = reg.retrieve(&query(), want);
            let unique: BTreeSet<_> = nodes.iter().collect();
            assert_eq!(unique.len(), nodes.len());
            assert_eq!(nodes.len(), want.min(5));
        }
    }

    #[test]
    fn reindex_updates_forwarding() {
        let mut reg = setup();
        // Node 5 starts forwarding the stream: should now match without
        // full relaxation.
        reg.index_node(NodeId(5), 1, NodeClass::Normal, 10, [key(7, 0)]);
        let (nodes, level) = reg.retrieve(&query(), 4);
        assert_eq!(level, MatchLevel::AnyClass);
        assert!(nodes.contains(&NodeId(5)));
        // The level holds nodes 3 and 5; asked for one, it gives one.
        let (nodes, level) = reg.retrieve(&query(), 3);
        assert_eq!(level, MatchLevel::AnyClass);
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn reindex_through_no_forwarding_matches_a_fresh_build() {
        let (a, b) = (key(7, 0), key(7, 1));
        let mut reg = setup();
        for forwarding in [vec![a, b], vec![], vec![a]] {
            reg.index_node(NodeId(9), 2, NodeClass::Normal, 20, forwarding);
        }
        let mut fresh = setup();
        fresh.index_node(NodeId(9), 2, NodeClass::Normal, 20, [a]);
        assert_eq!(reg.len(), fresh.len());
        for k in [a, b] {
            let ids = |r: &HashTreeRegistry| r.forwarders(k).map(|s| r.id(s)).collect::<Vec<_>>();
            assert_eq!(ids(&reg), ids(&fresh), "forwarders of {k:?}");
        }
    }

    #[test]
    fn reindex_with_unchanged_attributes_leaves_the_idle_rotation_alone() {
        let rotation = |reindex: bool| {
            let mut reg = HashTreeRegistry::new();
            // Node 3 is alone in its leaf and handed out: the cursor
            // stands past it when nodes below and above it join.
            add_idle(&mut reg, 3, 1, NodeClass::Normal, 10);
            reg.retrieve(&query(), 1);
            if reindex {
                for forwarding in [vec![key(7, 1)], vec![]] {
                    reg.index_node(NodeId(3), 1, NodeClass::Normal, 10, forwarding);
                }
            }
            add_idle(&mut reg, 1, 1, NodeClass::Normal, 10);
            add_idle(&mut reg, 5, 2, NodeClass::Normal, 10);
            (0..3)
                .map(|_| reg.retrieve(&query(), 2).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(rotation(true), rotation(false));
        assert_eq!(rotation(false)[0], [NodeId(5), NodeId(6)]);
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
        let mut reg = HashTreeRegistry::new();
        let (nodes, _) = reg.retrieve(&query(), 3);
        assert!(nodes.is_empty());
    }

    /// `n` idle nodes with ids from `first`, all under one path.
    fn add_idle(reg: &mut HashTreeRegistry, first: u64, n: u64, class: NodeClass, region: u16) {
        for id in first..first + n {
            reg.index_node(NodeId(id), 1, class, region, []);
        }
    }

    #[test]
    fn never_more_than_want_at_any_level() {
        let mut reg = HashTreeRegistry::new();
        for id in 0..100 {
            reg.index_node(NodeId(id), 1, NodeClass::HighQuality, 10, [key(7, 0)]);
        }
        let (nodes, level) = reg.retrieve(&query(), 8);
        assert_eq!(level, MatchLevel::Exact);
        assert_eq!(nodes.len(), 8);
        // Another stream's query finds the same nodes idle.
        let other = AttrQuery {
            stream: key(9, 0),
            ..query()
        };
        let (nodes, level) = reg.retrieve(&other, 8);
        assert_eq!(level, MatchLevel::AnyStream);
        assert_eq!(nodes.len(), 8);
    }

    #[test]
    fn a_leaf_rotates_and_wraps() {
        let mut reg = HashTreeRegistry::new();
        add_idle(&mut reg, 0, 10, NodeClass::Normal, 10);
        let ids = |nodes: Vec<NodeId>| nodes.iter().map(|n| n.0).collect::<Vec<_>>();
        // B = 10, w = 4: every node within ceil(10 / 4) = 3 calls.
        assert_eq!(ids(reg.retrieve(&query(), 4).0), [0, 1, 2, 3]);
        assert_eq!(ids(reg.retrieve(&query(), 4).0), [4, 5, 6, 7]);
        assert_eq!(ids(reg.retrieve(&query(), 4).0), [8, 9, 0, 1]);
        assert_eq!(ids(reg.retrieve(&query(), 4).0), [2, 3, 4, 5]);
        // A leaf taken whole stays where it was.
        assert_eq!(reg.retrieve(&query(), 10).0.len(), 10);
        assert_eq!(ids(reg.retrieve(&query(), 2).0), [6, 7]);
    }

    #[test]
    fn no_node_of_a_leaf_is_starved() {
        for (size, want) in [(10, 4), (64, 64), (65, 64), (1_000, 64), (7, 1)] {
            let mut reg = HashTreeRegistry::new();
            add_idle(&mut reg, 0, size, NodeClass::Normal, 10);
            let (first, _) = reg.retrieve(&query(), want);
            let (second, _) = reg.retrieve(&query(), want);
            assert_eq!(first != second, size > want as u64, "size {size}");
            let mut handed_out: BTreeSet<NodeId> = first.into_iter().chain(second).collect();
            for _ in 2..size.div_ceil(want as u64) {
                handed_out.extend(reg.retrieve(&query(), want).0);
            }
            assert_eq!(handed_out.len() as u64, size, "size {size} want {want}");
        }
    }

    #[test]
    fn a_level_is_shared_round_robin_by_its_leaves() {
        let mut reg = HashTreeRegistry::new();
        // Other regions of the client's ISP: leaves of 1, 10 and 10.
        add_idle(&mut reg, 100, 1, NodeClass::HighQuality, 20);
        add_idle(&mut reg, 200, 10, NodeClass::Normal, 20);
        add_idle(&mut reg, 300, 10, NodeClass::Normal, 30);
        let per_leaf = |nodes: &[NodeId]| {
            [100, 200, 300].map(|first| nodes.iter().filter(|n| n.0 / 100 == first / 100).count())
        };
        let (nodes, _) = reg.retrieve(&query(), 9);
        assert_eq!(per_leaf(&nodes), [1, 4, 4]);
        // The odd one out goes to the first leaf that has more.
        let (nodes, _) = reg.retrieve(&query(), 10);
        assert_eq!(per_leaf(&nodes), [1, 5, 4]);
        let (nodes, _) = reg.retrieve(&query(), 2);
        assert_eq!(per_leaf(&nodes), [1, 1, 0]);
        let (nodes, _) = reg.retrieve(&query(), 21);
        assert_eq!(per_leaf(&nodes), [1, 10, 10]);
    }

    #[test]
    fn idle_walk_is_region_first_with_classes_interleaved() {
        let mut reg = HashTreeRegistry::new();
        // The client's region alone covers `want` in either class.
        add_idle(&mut reg, 0, 20, NodeClass::HighQuality, 10);
        add_idle(&mut reg, 100, 20, NodeClass::Normal, 10);
        add_idle(&mut reg, 200, 20, NodeClass::HighQuality, 20);
        let (nodes, level) = reg.retrieve(&query(), 8);
        assert_eq!(level, MatchLevel::AnyStream);
        let in_range = |lo: u64| {
            nodes
                .iter()
                .filter(|n| (lo..lo + 100).contains(&n.0))
                .count()
        };
        assert_eq!((in_range(0), in_range(100), in_range(200)), (4, 4, 0));
        // Past the client's region, its ISP's other regions come next.
        let (nodes, _) = reg.retrieve(&query(), 44);
        let in_range = |lo: u64| {
            nodes
                .iter()
                .filter(|n| (lo..lo + 100).contains(&n.0))
                .count()
        };
        assert_eq!((in_range(0), in_range(100), in_range(200)), (20, 20, 4));
    }

    #[test]
    fn idle_levels_leave_out_the_forwarders_already_emitted() {
        let mut reg = HashTreeRegistry::new();
        for id in 0..6u64 {
            let forwarding = id.is_multiple_of(2).then_some(key(7, 0));
            reg.index_node(NodeId(id), 1, NodeClass::Normal, 10, forwarding);
        }
        let (nodes, level) = reg.retrieve(&query(), 5);
        assert_eq!(level, MatchLevel::AnyStream);
        assert_eq!(nodes[..3], [NodeId(0), NodeId(2), NodeId(4)]);
        assert_eq!(nodes[3..], [NodeId(1), NodeId(3)]);
        let (nodes, _) = reg.retrieve(&query(), 5);
        assert_eq!(nodes[3..], [NodeId(5), NodeId(1)]);
    }
}
