//! The client controller (§4.1.2, §4.2.1).
//!
//! After receiving candidates from the global scheduler, the client
//! fine-tunes locally: it sends application-level connection probes to at
//! most three candidates and takes the first responder (§4.1.2 — probing
//! more yields <1 % success-rate gain at linear cost). During playback it
//! monitors RTT and switches publishers when
//! `RTT_cur > min_i(RTT_i + t_change)` (§4.2.1), and maintains a local
//! blacklist of persistently failing nodes (§8.2).

use crate::features::NodeId;
use rlive_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Client controller configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientControllerConfig {
    /// Maximum candidates probed per mapping round (deployed: 3).
    pub max_probes: usize,
}

impl Default for ClientControllerConfig {
    fn default() -> Self {
        ClientControllerConfig { max_probes: 3 }
    }
}

/// Switching cost `t_change` added to candidate RTTs: reconnection plus
/// initialisation delay.
pub const T_CHANGE: SimDuration = SimDuration::from_millis(60);

/// Consecutive failures before a node is locally blacklisted.
const BLACKLIST_AFTER: u32 = 3;

/// How long a blacklist entry lasts.
const BLACKLIST_DURATION: SimDuration = SimDuration::from_secs(120);

/// Result of probing one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeOutcome {
    /// The probed node.
    pub node: NodeId,
    /// Measured application-level RTT if the probe succeeded.
    pub rtt: Option<SimDuration>,
}

/// A switching decision from the periodic assessment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchDecision {
    /// Stay on the current publisher.
    Stay,
    /// Switch to the given better candidate.
    SwitchTo(NodeId),
}

/// A small node-keyed table: a vec sorted by [`NodeId`], binary-
/// searched on access. The per-client populations here are tiny (a
/// handful of candidates), so flat storage beats hashing — and unlike
/// `HashMap`, iteration order is deterministic (ascending node id),
/// which keeps every consumer replay-stable.
fn table_search<V>(table: &[(NodeId, V)], node: NodeId) -> Result<usize, usize> {
    table.binary_search_by_key(&node, |&(n, _)| n)
}

fn table_set<V>(table: &mut Vec<(NodeId, V)>, node: NodeId, value: V) {
    match table_search(table, node) {
        Ok(i) => table[i].1 = value,
        Err(i) => table.insert(i, (node, value)),
    }
}

fn table_remove<V>(table: &mut Vec<(NodeId, V)>, node: NodeId) -> Option<V> {
    table_search(table, node).ok().map(|i| table.remove(i).1)
}

/// Per-client mapping state for one substream.
pub struct ClientController {
    cfg: ClientControllerConfig,
    /// Consecutive failure counts per node, sorted by node.
    failures: Vec<(NodeId, u32)>,
    /// Blacklist expiry per node, sorted by node.
    blacklist: Vec<(NodeId, SimTime)>,
}

impl ClientController {
    /// Creates a controller.
    pub fn new(cfg: ClientControllerConfig) -> Self {
        ClientController {
            cfg,
            failures: Vec::new(),
            blacklist: Vec::new(),
        }
    }

    /// Filters a candidate list down to the nodes worth probing into
    /// `out`, which is cleared first: skips blacklisted entries and
    /// truncates to `max_probes`.
    pub fn probe_list(
        &mut self,
        now: SimTime,
        candidates: impl IntoIterator<Item = NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        self.expire_blacklist(now);
        out.clear();
        out.extend(
            candidates
                .into_iter()
                .filter(|&n| table_search(&self.blacklist, n).is_err())
                .take(self.cfg.max_probes),
        );
    }

    /// Ingests probe outcomes and returns the chosen publisher: the
    /// *first successful responder* — in our synchronous model, the
    /// successful probe with the lowest RTT.
    pub fn select_from_probes(
        &mut self,
        now: SimTime,
        outcomes: &[ProbeOutcome],
    ) -> Option<NodeId> {
        let mut best: Option<(NodeId, SimDuration)> = None;
        for o in outcomes {
            match o.rtt {
                Some(rtt) => {
                    self.record_success(o.node);
                    if best.map(|(_, b)| rtt < b).unwrap_or(true) {
                        best = Some((o.node, rtt));
                    }
                }
                None => self.record_failure(now, o.node),
            }
        }
        best.map(|(n, _)| n)
    }

    /// Records a successful interaction (probe or data) with a node.
    pub fn record_success(&mut self, node: NodeId) {
        table_remove(&mut self.failures, node);
    }

    /// Records a failure; blacklists the node after
    /// `BLACKLIST_AFTER` consecutive failures.
    pub fn record_failure(&mut self, now: SimTime, node: NodeId) {
        let count = match table_search(&self.failures, node) {
            Ok(i) => {
                self.failures[i].1 += 1;
                self.failures[i].1
            }
            Err(i) => {
                self.failures.insert(i, (node, 1));
                1
            }
        };
        if count >= BLACKLIST_AFTER {
            table_set(&mut self.blacklist, node, now + BLACKLIST_DURATION);
            table_remove(&mut self.failures, node);
        }
    }

    fn expire_blacklist(&mut self, now: SimTime) {
        self.blacklist.retain(|&(_, expiry)| expiry > now);
    }

    /// The §4.2.1 switching rule: switch when the current publisher's
    /// RTT exceeds the best candidate's RTT plus the switching cost.
    ///
    /// `candidates` carries fresh RTT measurements for the scheduler's
    /// current candidate list (the client refreshes these periodically).
    pub fn assess_switch(
        &mut self,
        now: SimTime,
        current: NodeId,
        current_rtt: SimDuration,
        candidates: &[(NodeId, SimDuration)],
    ) -> SwitchDecision {
        self.expire_blacklist(now);
        let best = candidates
            .iter()
            .filter(|&&(n, _)| n != current && table_search(&self.blacklist, n).is_err())
            .min_by_key(|(_, rtt)| *rtt);
        match best {
            Some(&(node, rtt)) if current_rtt > rtt + T_CHANGE => SwitchDecision::SwitchTo(node),
            _ => SwitchDecision::Stay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> ClientController {
        ClientController::new(ClientControllerConfig::default())
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn probe_list_limited_to_three() {
        let mut c = controller();
        let mut probes = Vec::new();
        c.probe_list(SimTime::ZERO, (0..10).map(NodeId), &mut probes);
        assert_eq!(probes.len(), 3);
        assert_eq!(probes, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn first_successful_responder_wins() {
        let mut c = controller();
        let outcomes = [
            ProbeOutcome {
                node: NodeId(1),
                rtt: None,
            },
            ProbeOutcome {
                node: NodeId(2),
                rtt: Some(ms(30)),
            },
            ProbeOutcome {
                node: NodeId(3),
                rtt: Some(ms(10)),
            },
        ];
        assert_eq!(
            c.select_from_probes(SimTime::ZERO, &outcomes),
            Some(NodeId(3))
        );
    }

    #[test]
    fn all_probes_failing_returns_none() {
        let mut c = controller();
        let outcomes = [
            ProbeOutcome {
                node: NodeId(1),
                rtt: None,
            },
            ProbeOutcome {
                node: NodeId(2),
                rtt: None,
            },
        ];
        assert_eq!(c.select_from_probes(SimTime::ZERO, &outcomes), None);
    }

    #[test]
    fn switching_rule_requires_margin() {
        let mut c = controller();
        let current = NodeId(1);
        // Candidate is 10ms better but t_change is 60ms: stay.
        let d = c.assess_switch(SimTime::ZERO, current, ms(50), &[(NodeId(2), ms(40))]);
        assert_eq!(d, SwitchDecision::Stay);
        // Candidate is 100ms better: switch.
        let d = c.assess_switch(SimTime::ZERO, current, ms(150), &[(NodeId(2), ms(40))]);
        assert_eq!(d, SwitchDecision::SwitchTo(NodeId(2)));
    }

    #[test]
    fn switch_targets_minimum_rtt_candidate() {
        let mut c = controller();
        let d = c.assess_switch(
            SimTime::ZERO,
            NodeId(1),
            ms(500),
            &[
                (NodeId(2), ms(100)),
                (NodeId(3), ms(50)),
                (NodeId(4), ms(80)),
            ],
        );
        assert_eq!(d, SwitchDecision::SwitchTo(NodeId(3)));
    }

    #[test]
    fn current_publisher_not_a_switch_target() {
        let mut c = controller();
        let d = c.assess_switch(SimTime::ZERO, NodeId(1), ms(500), &[(NodeId(1), ms(10))]);
        assert_eq!(d, SwitchDecision::Stay);
    }

    #[test]
    fn blacklist_after_consecutive_failures() {
        let mut c = controller();
        let t = SimTime::from_secs(1);
        for _ in 0..3 {
            c.record_failure(t, NodeId(5));
        }
        // Blacklisted nodes are excluded from probe lists and switches.
        let mut probes = Vec::new();
        c.probe_list(t, [NodeId(5), NodeId(6)], &mut probes);
        assert_eq!(probes, vec![NodeId(6)]);
        let d = c.assess_switch(t, NodeId(1), ms(500), &[(NodeId(5), ms(1))]);
        assert_eq!(d, SwitchDecision::Stay);
    }

    #[test]
    fn success_resets_failure_count() {
        let mut c = controller();
        let t = SimTime::from_secs(1);
        c.record_failure(t, NodeId(5));
        c.record_failure(t, NodeId(5));
        c.record_success(NodeId(5));
        c.record_failure(t, NodeId(5));
        let mut probes = Vec::new();
        c.probe_list(t, [NodeId(5)], &mut probes);
        assert_eq!(probes, vec![NodeId(5)]);
    }

    #[test]
    fn blacklist_expires() {
        let mut c = controller();
        let t0 = SimTime::from_secs(1);
        for _ in 0..3 {
            c.record_failure(t0, NodeId(5));
        }
        let mut probes = Vec::new();
        c.probe_list(t0, [NodeId(5)], &mut probes);
        assert!(probes.is_empty());
        let later = t0 + SimDuration::from_secs(121);
        c.probe_list(later, [NodeId(5)], &mut probes);
        assert_eq!(probes, vec![NodeId(5)]);
    }
}
