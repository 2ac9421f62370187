//! The typed event vocabulary of a [`World`](crate::world::World).
//!
//! Every interaction between actors — streams, CDN edges, relays,
//! clients and the control plane — crosses the event queue as one of
//! the [`Event`] variants below. Actors never call each other
//! directly; they schedule events and the world routes each one to the
//! owning actor's handler. This module also re-exports the structured
//! observability vocabulary ([`TraceEvent`] and friends) that the same
//! layers emit into the [`telemetry`](crate::telemetry) sink.

use rlive_data::recovery::RecoveryAction;
use rlive_data::reorder::PacketSet;
use rlive_media::footprint::LocalChain;
use rlive_media::frame::FrameHeader;

pub use rlive_sim::trace::{TraceEvent, TraceRecord, TraceSink};

/// A scheduled simulation event; the unit of work of the event loop.
#[derive(Debug, Clone)]
pub enum Event {
    /// A live stream produces its next GoP frame.
    StreamFrame {
        /// Producing stream index.
        stream: u32,
    },
    /// A backhauled frame arrives at a relay and is forwarded.
    RelayFrame {
        /// Receiving relay index.
        relay: u32,
        /// Stream the frame belongs to.
        stream: u32,
        /// Frame timestamp (identifies the frame in the stream record).
        dts: u64,
    },
    /// A (partial) frame arrives at a client.
    ClientSlice(Box<SliceDelivery>),
    /// Central sequencing metadata arrives at a client.
    ChainDelivery {
        /// Receiving client.
        client: u64,
        /// Stream the chain belongs to.
        stream: u32,
        /// Frame timestamp of the chain entry.
        dts: u64,
    },
    /// A client's playout loop advances one frame interval.
    PlayerTick {
        /// Ticking client.
        client: u64,
    },
    /// A client's coarse control loop runs (fallback, switch, ABR).
    ControlTick {
        /// Ticking client.
        client: u64,
    },
    /// A loss-recovery attempt issued earlier completes.
    RecoveryOutcome {
        /// Requesting client.
        client: u64,
        /// Frame timestamp that was recovered.
        dts: u64,
        /// The action that was attempted.
        action: RecoveryAction,
        /// Whether the retransmission succeeded.
        success: bool,
    },
    /// One leg of a hedged (racing) best-effort retransmission batch
    /// completes. Unlike [`Event::RecoveryOutcome`], several of these
    /// may be in flight for the same frame; the session layer resolves
    /// the race (first win cancels the rest) and emits exactly one
    /// logical recovery outcome per batch.
    HedgeOutcome {
        /// Requesting client.
        client: u64,
        /// Frame timestamp being recovered.
        dts: u64,
        /// Zero-based index of this attempt within its batch.
        attempt: u32,
        /// Hedge round this attempt belongs to (guards against a
        /// re-issued batch for the same frame absorbing stale legs).
        round: u16,
        /// Whether this leg's retransmission succeeded.
        success: bool,
    },
    /// A relay's maintenance loop runs (churn, load, heartbeat).
    RelayTick {
        /// Ticking relay index.
        relay: u32,
    },
    /// A CDN edge's background-load loop runs.
    CdnTick {
        /// Ticking edge index.
        edge: u32,
    },
    /// The arrival process spawns the next viewer session.
    ClientArrival,
    /// The multi-source promotion gate evaluates a session.
    MultiSourceUpgrade {
        /// Candidate client.
        client: u64,
    },
    /// A viewer session ends.
    ClientDeparture {
        /// Departing client.
        client: u64,
    },
}

/// Which worker-pool lane an event may execute on when the world event
/// loop is sharded (see DESIGN.md "Sharded world execution").
///
/// A class groups events whose handlers mutate only their single target
/// actor, never draw the world RNG, and read sibling state strictly
/// read-only — the conditions under which a batch of consecutive
/// same-class events can run on worker threads and merge back
/// deterministically. Events outside both classes stay on the
/// sequential reference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ShardClass {
    /// Client-owned events (slice ingest, chain ingest, playout ticks),
    /// partitioned by client id.
    #[default]
    Client,
    /// Relay frame fan-out, partitioned by relay index. Not shardable
    /// under central sequencing, where fan-out draws the shared world
    /// RNG and mutates the shared super node.
    RelayFrame,
}

impl Event {
    /// The shard class of this event, or `None` if its handler must run
    /// on the sequential path (it draws the world RNG or mutates shared
    /// state: CDN edges, the scheduler, the session table).
    /// `central_world` is whether the world runs centralised sequencing
    /// (`ModeSpec::central_sequencing`), which moves relay
    /// fan-out onto the shared super node and off the shardable set.
    pub(crate) fn shard_class(&self, central_world: bool) -> Option<ShardClass> {
        match self {
            Event::ClientSlice(_) | Event::ChainDelivery { .. } | Event::PlayerTick { .. } => {
                Some(ShardClass::Client)
            }
            Event::RelayFrame { .. } if !central_world => Some(ShardClass::RelayFrame),
            _ => None,
        }
    }

    /// Partition key within the event's shard class: the id of the one
    /// actor the handler mutates. Events of the same key must land on
    /// the same shard, in batch order. Zero for unshardable events.
    pub(crate) fn shard_key(&self) -> u64 {
        match self {
            Event::ClientSlice(d) => d.client,
            Event::ChainDelivery { client, .. } => *client,
            Event::PlayerTick { client } => *client,
            Event::RelayFrame { relay, .. } => *relay as u64,
            _ => 0,
        }
    }

    /// Index of this event kind in [`EVENT_KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            Event::StreamFrame { .. } => 0,
            Event::RelayFrame { .. } => 1,
            Event::ClientSlice(_) => 2,
            Event::ChainDelivery { .. } => 3,
            Event::PlayerTick { .. } => 4,
            Event::ControlTick { .. } => 5,
            Event::RecoveryOutcome { .. } => 6,
            Event::HedgeOutcome { .. } => 7,
            Event::RelayTick { .. } => 8,
            Event::CdnTick { .. } => 9,
            Event::ClientArrival => 10,
            Event::MultiSourceUpgrade { .. } => 11,
            Event::ClientDeparture { .. } => 12,
        }
    }

    /// Counter label of this event kind (simulator instrumentation).
    pub fn kind(&self) -> &'static str {
        EVENT_KINDS[self.kind_index()]
    }
}

/// Counter labels of the event kinds, indexed by [`Event::kind_index`].
pub const EVENT_KINDS: [&str; 13] = [
    "stream_frame",
    "relay_frame",
    "client_slice",
    "chain_delivery",
    "player_tick",
    "control_tick",
    "recovery_outcome",
    "hedge_outcome",
    "relay_tick",
    "cdn_tick",
    "client_arrival",
    "multi_source_upgrade",
    "client_departure",
];

// Every heap sift moves whole events: the slice payload stays boxed.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// Payload of an [`Event::ClientSlice`]: one frame's worth of packets
/// delivered to a client from either a CDN edge or a relay.
#[derive(Debug, Clone)]
pub struct SliceDelivery {
    /// Receiving client.
    pub client: u64,
    /// Header of the delivered frame.
    pub header: FrameHeader,
    /// Substream the slice travelled on.
    pub substream: u16,
    /// Indices of the packets that actually arrived.
    pub received: PacketSet,
    /// Total packets of the (scaled) frame.
    pub total: u32,
    /// Embedded sequencing chain, if the path carries one.
    pub chain: Option<LocalChain>,
    /// Bytes that actually arrived (for throughput/energy accounting).
    pub bytes: u64,
}

/// Recycled [`SliceDelivery`] boxes (the boxes, not the payloads, are
/// what it keeps). Relay fan-out and CDN delivery box each slice from
/// here and the world hands the box back once the client has ingested
/// it, so a world that reached its working set schedules slices without
/// allocating. A world owns its pool: no box passes to the next world.
#[derive(Default)]
#[allow(clippy::vec_box)]
pub(crate) struct SlicePool(Vec<Box<SliceDelivery>>);

impl SlicePool {
    /// Boxes `d`, reusing a returned box when there is one.
    pub fn boxed(&mut self, d: SliceDelivery) -> Box<SliceDelivery> {
        match self.0.pop() {
            Some(mut b) => {
                *b = d;
                b
            }
            None => Box::new(d),
        }
    }

    /// Returns an ingested slice's box for reuse.
    pub fn recycle(&mut self, b: Box<SliceDelivery>) {
        self.0.push(b);
    }
}
