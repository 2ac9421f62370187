//! Node and client feature model plus heartbeat status updates.
//!
//! The global scheduler avoids noisy, highly dynamic signals and tracks
//! two feature categories (§4.1.1): *static* features (location, ISP,
//! node type, connection type) and *temporal* features (bandwidth
//! utilisation, connection success rate). Nodes send lightweight
//! (~150 B) updates every 5 s while forwarding streams and every 10 s
//! when idle.

use rlive_sim::nat::NatType;
use rlive_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identifies an edge node (dedicated or best-effort).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u64);

/// Identifies a client (viewer device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClientId(pub u64);

/// Identifies one substream of one stream — the unit of user mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StreamKey {
    /// The live stream.
    pub stream_id: u64,
    /// The substream index within the stream.
    pub substream: u16,
}

/// Whether a node is in the "high quality" tier (top capacity/stability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeClass {
    /// Top-ranked nodes by bandwidth capability and stability — the only
    /// tier the strawman single-source design used (§2.2).
    HighQuality,
    /// Everything else.
    Normal,
}

/// The access technology of a node's uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConnectionType {
    /// Wired fibre uplink (e.g. ISP facility).
    Fiber,
    /// Cable/DSL uplink (e.g. apartment gateway).
    Cable,
    /// Cellular or fixed-wireless uplink.
    Wireless,
}

/// Inherent attributes of a node; change rarely if ever.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticFeatures {
    /// Autonomous-system/ISP identifier.
    pub isp: u16,
    /// Coarse geographic region (e.g. province/metro).
    pub region: u16,
    /// BGP prefix group; clients in the same group are "same network".
    pub bgp_prefix: u32,
    /// Geographic coordinates for proximity scoring (degrees).
    pub geo: (f64, f64),
    /// Quality tier.
    pub class: NodeClass,
    /// Uplink technology.
    pub conn_type: ConnectionType,
    /// NAT behaviour.
    pub nat: NatType,
}

/// Temporal features carried in heartbeats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStatus {
    /// Uplink capacity in Mbps, as currently advertised.
    pub capacity_mbps: f64,
    /// Uplink bandwidth currently in use, Mbps.
    pub used_mbps: f64,
    /// Recent connection success rate observed at the node.
    pub conn_success_rate: f64,
    /// Substreams the node is currently forwarding.
    pub forwarding: BTreeSet<StreamKey>,
    /// Number of attached subscribers.
    pub subscribers: u32,
}

impl NodeStatus {
    /// A fresh idle status.
    pub fn idle(capacity_mbps: f64) -> Self {
        NodeStatus {
            capacity_mbps,
            used_mbps: 0.0,
            conn_success_rate: 1.0,
            forwarding: BTreeSet::new(),
            subscribers: 0,
        }
    }

    /// Residual (unused) bandwidth in Mbps.
    pub fn residual_mbps(&self) -> f64 {
        (self.capacity_mbps - self.used_mbps).max(0.0)
    }

    /// Bandwidth utilisation in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity_mbps <= 0.0 {
            0.0
        } else {
            (self.used_mbps / self.capacity_mbps).clamp(0.0, 1.0)
        }
    }
}

/// One heartbeat from a node to the global scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Reporting node.
    pub node: NodeId,
    /// Send time.
    pub at: SimTime,
    /// Current status snapshot.
    pub status: NodeStatus,
}

/// Heartbeat cadence: every 5 s while forwarding streams, every 10 s
/// when idle (§4.1.1).
pub fn heartbeat_interval_secs(active: bool) -> u64 {
    if active {
        5
    } else {
        10
    }
}

/// Approximate wire size of a heartbeat in bytes, for control-overhead
/// accounting. The paper cites ~150 B; our encoding matches: fixed
/// fields plus 10 B per forwarded substream.
pub fn heartbeat_wire_size(status: &NodeStatus) -> usize {
    // node id (8) + timestamp (8) + capacity/used/success (24) +
    // subscriber count (4) + list length (2).
    8 + 8 + 24 + 4 + 2 + status.forwarding.len() * 10
}

impl Heartbeat {
    /// Encodes the heartbeat into its compact wire form — the ~150-byte
    /// update of §4.1.1.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(heartbeat_wire_size(&self.status));
        out.extend_from_slice(&self.node.0.to_be_bytes());
        out.extend_from_slice(&self.at.as_micros().to_be_bytes());
        out.extend_from_slice(&self.status.capacity_mbps.to_be_bytes());
        out.extend_from_slice(&self.status.used_mbps.to_be_bytes());
        out.extend_from_slice(&self.status.conn_success_rate.to_be_bytes());
        out.extend_from_slice(&self.status.subscribers.to_be_bytes());
        out.extend_from_slice(&(self.status.forwarding.len() as u16).to_be_bytes());
        for key in &self.status.forwarding {
            out.extend_from_slice(&key.stream_id.to_be_bytes());
            out.extend_from_slice(&key.substream.to_be_bytes());
        }
        out
    }

    /// Decodes a heartbeat; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Heartbeat> {
        fn u64_at(b: &[u8], i: usize) -> Option<u64> {
            b.get(i..i + 8)?.try_into().ok().map(u64::from_be_bytes)
        }
        fn f64_at(b: &[u8], i: usize) -> Option<f64> {
            b.get(i..i + 8)?.try_into().ok().map(f64::from_be_bytes)
        }
        let node = NodeId(u64_at(buf, 0)?);
        let at = SimTime::from_micros(u64_at(buf, 8)?);
        let capacity_mbps = f64_at(buf, 16)?;
        let used_mbps = f64_at(buf, 24)?;
        let conn_success_rate = f64_at(buf, 32)?;
        let subscribers = u32::from_be_bytes(buf.get(40..44)?.try_into().ok()?);
        let n = u16::from_be_bytes(buf.get(44..46)?.try_into().ok()?) as usize;
        let mut forwarding = BTreeSet::new();
        for i in 0..n {
            let base = 46 + i * 10;
            forwarding.insert(StreamKey {
                stream_id: u64_at(buf, base)?,
                substream: u16::from_be_bytes(buf.get(base + 8..base + 10)?.try_into().ok()?),
            });
        }
        Some(Heartbeat {
            node,
            at,
            status: NodeStatus {
                capacity_mbps,
                used_mbps,
                conn_success_rate,
                forwarding,
                subscribers,
            },
        })
    }
}

/// What the scheduler knows about a client when personalising scores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientInfo {
    /// The requesting client.
    pub id: ClientId,
    /// Client's ISP.
    pub isp: u16,
    /// Client's region.
    pub region: u16,
    /// Client's BGP prefix group.
    pub bgp_prefix: u32,
    /// Client coordinates.
    pub geo: (f64, f64),
    /// Client platform, selecting the score weight profile.
    pub platform: crate::scoring::Platform,
}

/// Great-circle-ish distance proxy between two coordinate pairs, in
/// degrees of arc (sufficient for monotone proximity scoring).
pub fn geo_distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    (dx * dx + dy * dy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_derived_metrics() {
        let mut s = NodeStatus::idle(100.0);
        assert_eq!(s.residual_mbps(), 100.0);
        assert_eq!(s.utilization(), 0.0);
        s.used_mbps = 25.0;
        s.forwarding.insert(StreamKey {
            stream_id: 1,
            substream: 0,
        });
        assert_eq!(s.residual_mbps(), 75.0);
        assert!((s.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamps() {
        let mut s = NodeStatus::idle(10.0);
        s.used_mbps = 25.0;
        assert_eq!(s.utilization(), 1.0);
        assert_eq!(s.residual_mbps(), 0.0);
        let z = NodeStatus::idle(0.0);
        assert_eq!(z.utilization(), 0.0);
    }

    #[test]
    fn heartbeat_cadence() {
        assert_eq!(heartbeat_interval_secs(true), 5);
        assert_eq!(heartbeat_interval_secs(false), 10);
    }

    #[test]
    fn heartbeat_size_near_150_bytes() {
        // A node forwarding a typical handful of substreams stays near
        // the paper's ~150 B figure.
        let mut s = NodeStatus::idle(50.0);
        for i in 0..10 {
            s.forwarding.insert(StreamKey {
                stream_id: i,
                substream: 0,
            });
        }
        let sz = heartbeat_wire_size(&s);
        assert!((100..=200).contains(&sz), "size {sz}");
    }

    #[test]
    fn heartbeat_wire_round_trip() {
        let mut status = NodeStatus::idle(48.5);
        status.used_mbps = 12.25;
        status.conn_success_rate = 0.93;
        status.subscribers = 17;
        for i in 0..7 {
            status.forwarding.insert(StreamKey {
                stream_id: i * 3,
                substream: (i % 4) as u16,
            });
        }
        let hb = Heartbeat {
            node: NodeId(42),
            at: SimTime::from_millis(123_456),
            status,
        };
        let bytes = hb.encode();
        assert_eq!(bytes.len(), heartbeat_wire_size(&hb.status));
        assert_eq!(Heartbeat::decode(&bytes), Some(hb));
    }

    #[test]
    fn heartbeat_decode_rejects_truncation() {
        let hb = Heartbeat {
            node: NodeId(1),
            at: SimTime::from_secs(1),
            status: NodeStatus::idle(10.0),
        };
        let bytes = hb.encode();
        for cut in 0..bytes.len() {
            assert_eq!(Heartbeat::decode(&bytes[..cut]), None, "cut {cut}");
        }
    }

    #[test]
    fn geo_distance_monotone() {
        let origin = (0.0, 0.0);
        assert!(geo_distance(origin, (1.0, 0.0)) < geo_distance(origin, (2.0, 0.0)));
        assert_eq!(geo_distance(origin, origin), 0.0);
    }
}
