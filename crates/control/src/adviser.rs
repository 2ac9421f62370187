//! The edge adviser (§4.2.2).
//!
//! Best-effort nodes complement client-side control with proactive
//! switch suggestions driven by two triggers:
//!
//! - **Cost-aware**: when the node's sliding-average resource
//!   utilisation `ū_node` falls below a threshold θ, and a double-check
//!   with the global scheduler confirms the forwarding stream's average
//!   utilisation `ū_stream` is also below θ, the node suggests its
//!   clients move away so the stream consolidates onto fewer relays,
//!   cutting back-to-CDN traffic. Re-evaluated every 10 s.
//! - **QoS-aware**: the node computes per-connection Z-scores
//!   `z = (x − μ)/σ` of a QoS metric across all its connections and
//!   flags the worst ~5 % as outliers (isolated link problems the node
//!   can spot before the client).

use crate::features::{ClientId, NodeId, StreamKey};
use rlive_sim::trace::{TraceEvent, TraceSink};
use rlive_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Adviser configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdviserConfig {
    /// Width of the sliding utilisation window, at most
    /// [`UTIL_WINDOW_CAPACITY`].
    pub util_window: usize,
    /// Minimum connections before Z-scores are meaningful.
    pub min_connections: usize,
}

impl Default for AdviserConfig {
    fn default() -> Self {
        AdviserConfig {
            util_window: 6,
            min_connections: 8,
        }
    }
}

/// The most utilisation samples the sliding window holds. The window
/// is inline in every relay's adviser, so it costs no heap block per
/// node.
pub const UTIL_WINDOW_CAPACITY: usize = 6;

/// Under-utilisation threshold θ.
const UTIL_THRESHOLD: f64 = 0.3;

/// Re-evaluation interval (deployed: 10 s).
const EVALUATE_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Fraction of connections flagged as QoS outliers (deployed: 5 %).
const OUTLIER_FRACTION: f64 = 0.05;

/// A proactive suggestion emitted by the adviser.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SwitchSuggestion {
    /// Cost trigger: the node is underutilised; subscribers of the given
    /// substream should consider consolidating elsewhere.
    CostConsolidation {
        /// The underutilised node.
        node: NodeId,
        /// The affected substream.
        key: StreamKey,
    },
    /// QoS trigger: specific clients see outlier-bad quality through
    /// this node and should re-map.
    QosOutlier {
        /// The node observing the outliers.
        node: NodeId,
        /// Affected clients with their Z-scores.
        clients: Vec<(ClientId, f64)>,
    },
}

/// Per-node adviser state.
///
/// # Examples
///
/// ```
/// use rlive_control::adviser::{AdviserConfig, EdgeAdviser, SwitchSuggestion};
/// use rlive_control::features::{NodeId, StreamKey};
/// use rlive_sim::SimTime;
///
/// let mut adviser = EdgeAdviser::new(NodeId(3), AdviserConfig::default());
/// for _ in 0..6 {
///     adviser.record_utilization(0.1); // persistently underutilised
/// }
/// let key = StreamKey { stream_id: 1, substream: 0 };
/// // The scheduler confirms the whole stream is underutilised too.
/// let suggestions = adviser.evaluate(SimTime::from_secs(10), key, Some(0.15));
/// assert!(matches!(
///     suggestions.as_slice(),
///     [SwitchSuggestion::CostConsolidation { .. }]
/// ));
/// ```
pub struct EdgeAdviser {
    cfg: AdviserConfig,
    node: NodeId,
    /// Sliding window of recent utilisation samples, oldest first:
    /// `util_window[..util_len]`.
    util_window: [f64; UTIL_WINDOW_CAPACITY],
    util_len: usize,
    /// Latest QoS metric (e.g. smoothed RTT in ms) per connection,
    /// sorted by client id: sums and z-score ties then follow one fixed
    /// order, whatever order the connections were recorded in.
    connection_qos: Vec<(ClientId, f64)>,
    last_evaluation: SimTime,
    /// Structured trace sink (disabled by default): cost and QoS
    /// triggers are emitted when they fire.
    trace: TraceSink,
}

impl EdgeAdviser {
    /// Creates an adviser for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.util_window` exceeds [`UTIL_WINDOW_CAPACITY`].
    pub fn new(node: NodeId, cfg: AdviserConfig) -> Self {
        assert!(
            cfg.util_window <= UTIL_WINDOW_CAPACITY,
            "adviser utilisation window of {} samples exceeds the inline capacity of {}",
            cfg.util_window,
            UTIL_WINDOW_CAPACITY
        );
        EdgeAdviser {
            cfg,
            node,
            util_window: [0.0; UTIL_WINDOW_CAPACITY],
            util_len: 0,
            connection_qos: Vec::new(),
            last_evaluation: SimTime::ZERO,
            trace: TraceSink::disabled(),
        }
    }

    /// Attaches a structured trace sink for trigger events.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The node this adviser belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Feeds one utilisation sample into the sliding window.
    pub fn record_utilization(&mut self, util: f64) {
        if self.util_len == self.cfg.util_window {
            if self.util_len == 0 {
                return;
            }
            self.util_window.copy_within(1..self.util_len, 0);
            self.util_len -= 1;
        }
        self.util_window[self.util_len] = util.clamp(0.0, 1.0);
        self.util_len += 1;
    }

    /// The sliding-average utilisation `ū_node`.
    pub fn sliding_utilization(&self) -> f64 {
        let window = &self.util_window[..self.util_len];
        if window.is_empty() {
            0.0
        } else {
            window.iter().sum::<f64>() / window.len() as f64
        }
    }

    /// Updates the QoS metric of one subscriber connection.
    pub fn record_connection_qos(&mut self, client: ClientId, metric: f64) {
        match self
            .connection_qos
            .binary_search_by_key(&client, |&(c, _)| c)
        {
            Ok(i) => self.connection_qos[i].1 = metric,
            Err(i) => self.connection_qos.insert(i, (client, metric)),
        }
    }

    /// Removes a departed subscriber.
    pub fn remove_connection(&mut self, client: ClientId) {
        if let Ok(i) = self
            .connection_qos
            .binary_search_by_key(&client, |&(c, _)| c)
        {
            self.connection_qos.remove(i);
        }
    }

    /// Whether the evaluation interval has elapsed.
    pub fn due(&self, now: SimTime) -> bool {
        now.saturating_since(self.last_evaluation) >= EVALUATE_INTERVAL
    }

    /// Runs one evaluation round. `stream_util` is the scheduler-supplied
    /// `ū_stream` double-check for the substream this node forwards (the
    /// cost trigger only fires when *both* fall below θ); `key` names
    /// that substream.
    pub fn evaluate(
        &mut self,
        now: SimTime,
        key: StreamKey,
        stream_util: Option<f64>,
    ) -> Vec<SwitchSuggestion> {
        self.last_evaluation = now;
        let mut out = Vec::new();

        // Cost-aware trigger.
        let u_node = self.sliding_utilization();
        if self.util_len >= self.cfg.util_window && u_node < UTIL_THRESHOLD {
            if let Some(u_stream) = stream_util {
                if u_stream < UTIL_THRESHOLD {
                    self.trace.emit(
                        now,
                        None,
                        TraceEvent::AdviserCostTrigger {
                            node: self.node.0,
                            node_util: u_node,
                            stream_util: u_stream,
                        },
                    );
                    out.push(SwitchSuggestion::CostConsolidation {
                        node: self.node,
                        key,
                    });
                }
            }
        }

        // QoS-aware trigger.
        if let Some(outliers) = self.qos_outliers() {
            if !outliers.is_empty() {
                self.trace.emit(
                    now,
                    None,
                    TraceEvent::AdviserQosTrigger {
                        node: self.node.0,
                        outliers: outliers.len() as u32,
                    },
                );
                out.push(SwitchSuggestion::QosOutlier {
                    node: self.node,
                    clients: outliers,
                });
            }
        }
        out
    }

    /// Computes Z-scores and returns the worst [`OUTLIER_FRACTION`] of
    /// connections whose Z-score is positive (bad = above-mean metric).
    /// Returns `None` if too few connections are attached.
    fn qos_outliers(&self) -> Option<Vec<(ClientId, f64)>> {
        let n = self.connection_qos.len();
        if n < self.cfg.min_connections {
            return None;
        }
        let mean = self.connection_qos.iter().map(|(_, x)| x).sum::<f64>() / n as f64;
        let var = self
            .connection_qos
            .iter()
            .map(|(_, x)| (x - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        let sd = var.sqrt();
        if sd <= f64::EPSILON {
            return Some(Vec::new());
        }
        let mut scored: Vec<(ClientId, f64)> = self
            .connection_qos
            .iter()
            .map(|&(c, x)| (c, (x - mean) / sd))
            .collect();
        // Stable: tied z-scores keep ascending client-id order.
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite z-scores"));
        let take = ((n as f64 * OUTLIER_FRACTION).ceil() as usize).max(1);
        Some(
            scored
                .into_iter()
                .take(take)
                .filter(|(_, z)| *z > 1.0)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> StreamKey {
        StreamKey {
            stream_id: 1,
            substream: 0,
        }
    }

    fn adviser() -> EdgeAdviser {
        EdgeAdviser::new(NodeId(7), AdviserConfig::default())
    }

    fn fill_util(a: &mut EdgeAdviser, util: f64) {
        for _ in 0..6 {
            a.record_utilization(util);
        }
    }

    #[test]
    fn cost_trigger_needs_both_conditions() {
        let mut a = adviser();
        fill_util(&mut a, 0.1);
        // Node underutilised but stream busy: no suggestion.
        let s = a.evaluate(SimTime::from_secs(10), key(), Some(0.8));
        assert!(s.is_empty());
        // Node and stream both underutilised: suggestion fires.
        let s = a.evaluate(SimTime::from_secs(20), key(), Some(0.1));
        assert_eq!(
            s,
            vec![SwitchSuggestion::CostConsolidation {
                node: NodeId(7),
                key: key()
            }]
        );
    }

    #[test]
    fn cost_trigger_silent_when_busy() {
        let mut a = adviser();
        fill_util(&mut a, 0.7);
        let s = a.evaluate(SimTime::from_secs(10), key(), Some(0.1));
        assert!(s.is_empty());
    }

    #[test]
    fn cost_trigger_needs_full_window() {
        let mut a = adviser();
        a.record_utilization(0.05);
        let s = a.evaluate(SimTime::from_secs(10), key(), Some(0.05));
        assert!(s.is_empty(), "fires with only one sample");
    }

    #[test]
    fn sliding_average_windows() {
        let mut a = adviser();
        for u in [1.0, 1.0, 1.0, 1.0, 1.0, 1.0] {
            a.record_utilization(u);
        }
        for _ in 0..6 {
            a.record_utilization(0.0);
        }
        assert_eq!(a.sliding_utilization(), 0.0, "old samples evicted");
    }

    #[test]
    fn qos_outlier_detection() {
        let mut a = adviser();
        // 19 healthy connections around 50 ms, one terrible at 500 ms.
        for i in 0..19 {
            a.record_connection_qos(ClientId(i), 50.0 + i as f64);
        }
        a.record_connection_qos(ClientId(99), 500.0);
        let s = a.evaluate(SimTime::from_secs(10), key(), Some(0.9));
        assert_eq!(s.len(), 1);
        match &s[0] {
            SwitchSuggestion::QosOutlier { node, clients } => {
                assert_eq!(*node, NodeId(7));
                assert_eq!(clients.len(), 1);
                assert_eq!(clients[0].0, ClientId(99));
                assert!(clients[0].1 > 3.0, "z {}", clients[0].1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn homogeneous_qos_yields_no_outliers() {
        let mut a = adviser();
        for i in 0..20 {
            a.record_connection_qos(ClientId(i), 50.0);
        }
        let s = a.evaluate(SimTime::from_secs(10), key(), Some(0.9));
        assert!(s.is_empty());
    }

    #[test]
    fn too_few_connections_no_zscore() {
        let mut a = adviser();
        for i in 0..5 {
            a.record_connection_qos(ClientId(i), 50.0);
        }
        a.record_connection_qos(ClientId(9), 5000.0);
        let s = a.evaluate(SimTime::from_secs(10), key(), Some(0.9));
        assert!(s.is_empty(), "z-score fired with too few connections");
    }

    #[test]
    fn evaluation_cadence() {
        let mut a = adviser();
        assert!(a.due(SimTime::from_secs(10)));
        a.evaluate(SimTime::from_secs(10), key(), None);
        assert!(!a.due(SimTime::from_secs(15)));
        assert!(a.due(SimTime::from_secs(20)));
    }

    #[test]
    fn connection_removal() {
        let mut a = adviser();
        for i in 0..19 {
            a.record_connection_qos(ClientId(i), 50.0);
        }
        a.record_connection_qos(ClientId(99), 500.0);
        a.remove_connection(ClientId(99));
        let s = a.evaluate(SimTime::from_secs(10), key(), Some(0.9));
        assert!(s.is_empty(), "departed outlier still flagged: {s:?}");
    }
}
