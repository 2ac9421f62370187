//! Pluggable scheduler scoring policies.
//!
//! [`GlobalScheduler`](crate::scheduler::GlobalScheduler) ranks
//! candidates with the static personalised score
//! `S = α₁N + α₂G + α₃R + α₄B` (see [`crate::scoring`]). This module
//! extracts the seam that makes that ranking swappable: a
//! [`SchedulerPolicy`] adjusts each candidate's availability score
//! before the cost divide and may consume deterministic feedback about
//! node behaviour.
//!
//! Two policies ship today:
//!
//! - [`StaticScorePolicy`] — the identity adjustment. Byte-identical to
//!   the pre-seam scheduler (proven by the golden digests).
//! - [`AdaptivePolicy`] — a telemetry-driven feedback loop. Recovery
//!   outcomes and candidate-probe results attributed to a node are
//!   aggregated into fixed-width tumbling **sim-time** windows (the same
//!   window arithmetic the obs layer uses; wall clock never enters any
//!   decision). When a node's window looks bad — recovery failure rate
//!   above `DEMOTE_THRESHOLD` or probe yield below `YIELD_THRESHOLD` —
//!   for `HYSTERESIS` consecutive judged windows, its multiplicative
//!   score factor is demoted (bounded below by `FLOOR`); sustained good
//!   windows boost it back towards 1.0, so a node can recover.
//!
//! Determinism: a policy never draws randomness and never reads wall
//! clock. Its state is a pure function of the (sim-time-ordered)
//! feedback call sequence, which itself is a pure function of the world
//! seed — so adaptive worlds stay byte-identical across the
//! `--jobs × --world-jobs` grid.

use crate::features::NodeId;
use rlive_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which scoring policy a [`GlobalScheduler`](crate::scheduler::GlobalScheduler)
/// runs. Selected via `SystemConfig` / the `--sched-policy` CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulerPolicyKind {
    /// The static `S = α₁N + α₂G + α₃R + α₄B` score, unmodified.
    #[default]
    Static,
    /// Static score times a per-node factor learned from windowed
    /// recovery/probe feedback.
    Adaptive,
}

impl SchedulerPolicyKind {
    /// Parses a CLI label (`static` / `adaptive`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "static" => Some(SchedulerPolicyKind::Static),
            "adaptive" => Some(SchedulerPolicyKind::Adaptive),
            _ => None,
        }
    }

    /// The CLI label.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerPolicyKind::Static => "static",
            SchedulerPolicyKind::Adaptive => "adaptive",
        }
    }
}

/// The policy seam: adjusts candidate availability scores and absorbs
/// deterministic per-node feedback.
///
/// All feedback calls carry sim time; implementations bucket by
/// tumbling window and must stay pure functions of the call sequence
/// (no randomness, no wall clock). `advance` is invoked by the
/// scheduler before each recommendation so window bookkeeping rolls
/// forward even on feedback-quiet paths.
pub trait SchedulerPolicy: Send {
    /// Stable label for reports (`static` / `adaptive`).
    fn label(&self) -> &'static str;

    /// Adjusts one candidate's availability score before the cost
    /// divide. [`StaticScorePolicy`] returns `availability` unchanged.
    fn adjust(&self, node: NodeId, availability: f64) -> f64;

    /// Rolls window bookkeeping forward to `now`.
    fn advance(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Feeds one recovery-attempt outcome attributed to `node` (the
    /// best-effort relay serving the recovered frame's substream).
    fn note_recovery(&mut self, now: SimTime, node: NodeId, success: bool) {
        let _ = (now, node, success);
    }

    /// Feeds one candidate-probe outcome for `node` (whether the probed
    /// relay was online, admitting and traversable).
    fn note_probe(&mut self, now: SimTime, node: NodeId, usable: bool) {
        let _ = (now, node, usable);
    }

    /// Demotions applied so far, keyed by the window they were judged
    /// in. Empty for policies that never demote.
    fn demotions_by_window(&self) -> BTreeMap<u64, u64> {
        BTreeMap::new()
    }
}

/// The pre-seam behaviour: candidate scores pass through unmodified and
/// feedback is discarded.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticScorePolicy;

impl SchedulerPolicy for StaticScorePolicy {
    fn label(&self) -> &'static str {
        "static"
    }

    fn adjust(&self, _node: NodeId, availability: f64) -> f64 {
        availability
    }
}

/// Per-node feedback accumulated in the current window.
#[derive(Debug, Clone, Copy, Default)]
struct WindowFeedback {
    recovery_failures: u64,
    recovery_outcomes: u64,
    probes_usable: u64,
    probes: u64,
}

/// Per-node factor state carried across windows.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    factor: f64,
    bad_streak: u32,
    good_streak: u32,
}

impl Default for NodeState {
    fn default() -> Self {
        NodeState {
            factor: 1.0,
            bad_streak: 0,
            good_streak: 0,
        }
    }
}

/// Tumbling feedback window width (sim time). Should match the obs
/// layer's `obs_window_ms` so scheduler feedback and exported series
/// describe the same windows.
const WINDOW: SimDuration = SimDuration::from_millis(1_000);

/// Minimum feedback samples (recovery outcomes + probes) in a window
/// before the node is judged at all.
const MIN_SAMPLES: u64 = 2;

/// A window with recovery failure rate above this is bad.
const DEMOTE_THRESHOLD: f64 = 0.5;

/// A window with candidate-probe yield below this is bad.
const YIELD_THRESHOLD: f64 = 0.35;

/// Consecutive bad (good) judged windows before the factor is demoted
/// (boosted). Absorbs one-window blips.
const HYSTERESIS: u32 = 2;

/// Multiplicative demotion per trip (< 1).
const DEMOTE_FACTOR: f64 = 0.5;

/// Multiplicative recovery per trip (> 1), capped at 1.0.
const BOOST_FACTOR: f64 = 1.3;

/// Lowest factor a node can be demoted to (> 0 so a demoted node keeps
/// receiving probe traffic and can prove itself again).
const FLOOR: f64 = 0.25;

const _: () = assert!(WINDOW.as_millis() > 0, "window must be positive");
const _: () = assert!(FLOOR > 0.0 && FLOOR <= 1.0, "floor must be in (0, 1]");
const _: () = assert!(
    DEMOTE_FACTOR > 0.0 && DEMOTE_FACTOR < 1.0,
    "demote factor must be in (0, 1)"
);
const _: () = assert!(BOOST_FACTOR >= 1.0, "boost factor must be >= 1");

/// The telemetry-driven feedback policy (see module docs).
#[derive(Debug, Clone, Default)]
pub struct AdaptivePolicy {
    /// Window the pending feedback belongs to.
    current_window: u64,
    pending: BTreeMap<NodeId, WindowFeedback>,
    state: BTreeMap<NodeId, NodeState>,
    demotions: BTreeMap<u64, u64>,
}

impl AdaptivePolicy {
    /// Creates the policy with no feedback absorbed.
    pub fn new() -> Self {
        AdaptivePolicy::default()
    }

    /// Current multiplicative factor of a node (1.0 if never judged).
    pub fn factor(&self, node: NodeId) -> f64 {
        self.state.get(&node).map(|s| s.factor).unwrap_or(1.0)
    }

    fn window_of(at: SimTime) -> u64 {
        at.as_millis() / WINDOW.as_millis()
    }

    /// Judges every node that produced feedback in `window` and applies
    /// factor moves. Nodes with no feedback keep their state untouched
    /// (an idle window proves nothing either way).
    fn fold_window(&mut self, window: u64) {
        let pending = std::mem::take(&mut self.pending);
        for (node, fb) in pending {
            if fb.recovery_outcomes + fb.probes < MIN_SAMPLES {
                continue;
            }
            let failure_rate = if fb.recovery_outcomes > 0 {
                fb.recovery_failures as f64 / fb.recovery_outcomes as f64
            } else {
                0.0
            };
            let probe_yield = if fb.probes > 0 {
                fb.probes_usable as f64 / fb.probes as f64
            } else {
                1.0
            };
            let bad = failure_rate > DEMOTE_THRESHOLD || probe_yield < YIELD_THRESHOLD;
            let st = self.state.entry(node).or_default();
            if bad {
                st.bad_streak += 1;
                st.good_streak = 0;
                if st.bad_streak >= HYSTERESIS {
                    let next = (st.factor * DEMOTE_FACTOR).max(FLOOR);
                    if next < st.factor {
                        st.factor = next;
                        *self.demotions.entry(window).or_insert(0) += 1;
                    }
                }
            } else {
                st.good_streak += 1;
                st.bad_streak = 0;
                if st.good_streak >= HYSTERESIS && st.factor < 1.0 {
                    st.factor = (st.factor * BOOST_FACTOR).min(1.0);
                }
            }
        }
    }

    fn roll_to(&mut self, now: SimTime) {
        let w = Self::window_of(now);
        if w > self.current_window {
            // Only the current window can hold pending feedback;
            // intermediate empty windows judge nobody.
            self.fold_window(self.current_window);
            self.current_window = w;
        }
    }

    fn feedback_mut(&mut self, now: SimTime, node: NodeId) -> &mut WindowFeedback {
        self.roll_to(now);
        self.pending.entry(node).or_default()
    }
}

impl SchedulerPolicy for AdaptivePolicy {
    fn label(&self) -> &'static str {
        "adaptive"
    }

    fn adjust(&self, node: NodeId, availability: f64) -> f64 {
        availability * self.factor(node)
    }

    fn advance(&mut self, now: SimTime) {
        self.roll_to(now);
    }

    fn note_recovery(&mut self, now: SimTime, node: NodeId, success: bool) {
        let fb = self.feedback_mut(now, node);
        fb.recovery_outcomes += 1;
        if !success {
            fb.recovery_failures += 1;
        }
    }

    fn note_probe(&mut self, now: SimTime, node: NodeId, usable: bool) {
        let fb = self.feedback_mut(now, node);
        fb.probes += 1;
        if usable {
            fb.probes_usable += 1;
        }
    }

    fn demotions_by_window(&self) -> BTreeMap<u64, u64> {
        self.demotions.clone()
    }
}

/// Builds the boxed policy for a kind.
pub fn build_policy(kind: SchedulerPolicyKind) -> Box<dyn SchedulerPolicy> {
    match kind {
        SchedulerPolicyKind::Static => Box::new(StaticScorePolicy),
        SchedulerPolicyKind::Adaptive => Box::new(AdaptivePolicy::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn failing_window(p: &mut AdaptivePolicy, window: u64, node: NodeId) {
        // Two failed recovery outcomes inside `window` (min_samples 2).
        let t = at(window * 1_000 + 10);
        p.note_recovery(t, node, false);
        p.note_recovery(t, node, false);
    }

    fn healthy_window(p: &mut AdaptivePolicy, window: u64, node: NodeId) {
        let t = at(window * 1_000 + 10);
        p.note_probe(t, node, true);
        p.note_probe(t, node, true);
    }

    #[test]
    fn static_policy_is_identity() {
        let p = StaticScorePolicy;
        for v in [0.0, 0.37, 1.0, f64::MAX] {
            assert_eq!(p.adjust(NodeId(3), v).to_bits(), v.to_bits());
        }
        assert!(p.demotions_by_window().is_empty());
        assert_eq!(p.label(), "static");
    }

    #[test]
    fn hysteresis_requires_consecutive_bad_windows() {
        let mut p = AdaptivePolicy::new();
        let n = NodeId(1);
        failing_window(&mut p, 0, n);
        p.advance(at(1_000));
        // One bad window: streak 1 < hysteresis 2, factor unchanged.
        assert_eq!(p.factor(n), 1.0);
        failing_window(&mut p, 1, n);
        p.advance(at(2_000));
        assert_eq!(p.factor(n), 0.5);
        assert_eq!(p.demotions_by_window().get(&1), Some(&1));
    }

    #[test]
    fn good_window_resets_bad_streak() {
        let mut p = AdaptivePolicy::new();
        let n = NodeId(1);
        failing_window(&mut p, 0, n);
        healthy_window(&mut p, 1, n);
        failing_window(&mut p, 2, n);
        p.advance(at(3_000));
        // Bad, good, bad: never two consecutive bad windows.
        assert_eq!(p.factor(n), 1.0);
        assert!(p.demotions_by_window().is_empty());
    }

    #[test]
    fn factor_is_floored_and_recovers() {
        let mut p = AdaptivePolicy::new();
        let n = NodeId(4);
        // Many consecutive bad windows: factor bottoms out at the floor.
        for w in 0..10 {
            failing_window(&mut p, w, n);
        }
        p.advance(at(10_000));
        assert_eq!(p.factor(n), 0.25);
        let demoted: u64 = p.demotions_by_window().values().sum();
        // 1.0 -> 0.5 -> 0.25, then pinned at the floor (no counted
        // demotion once the factor cannot move).
        assert_eq!(demoted, 2);
        // Sustained good windows boost it back to 1.0.
        for w in 10..20 {
            healthy_window(&mut p, w, n);
        }
        p.advance(at(20_000));
        assert_eq!(p.factor(n), 1.0);
    }

    #[test]
    fn adjust_applies_current_factor() {
        let mut p = AdaptivePolicy::new();
        let n = NodeId(9);
        failing_window(&mut p, 0, n);
        failing_window(&mut p, 1, n);
        p.advance(at(2_000));
        assert_eq!(p.adjust(n, 0.8), 0.8 * 0.5);
        // Unjudged nodes pass through unchanged.
        assert_eq!(p.adjust(NodeId(777), 0.8), 0.8);
    }

    #[test]
    fn sparse_windows_are_not_judged() {
        let mut p = AdaptivePolicy::new();
        let n = NodeId(2);
        // One sample per window: below min_samples, never judged.
        for w in 0..5 {
            p.note_recovery(at(w * 1_000 + 1), n, false);
        }
        p.advance(at(6_000));
        assert_eq!(p.factor(n), 1.0);
    }

    #[test]
    fn probe_yield_alone_can_demote() {
        let mut p = AdaptivePolicy::new();
        let n = NodeId(6);
        for w in 0..2 {
            let t = at(w * 1_000 + 5);
            p.note_probe(t, n, false);
            p.note_probe(t, n, false);
            p.note_probe(t, n, false);
        }
        p.advance(at(2_000));
        assert_eq!(p.factor(n), 0.5);
    }

    #[test]
    fn feedback_sequence_is_deterministic() {
        let run = || {
            let mut p = AdaptivePolicy::new();
            for w in 0..8u64 {
                for node in [NodeId(1), NodeId(2), NodeId(3)] {
                    let t = at(w * 1_000 + node.0 * 7);
                    p.note_recovery(t, node, node.0 % 2 == 0);
                    p.note_probe(t, node, w % 3 != 0);
                }
            }
            p.advance(at(9_000));
            (
                p.factor(NodeId(1)),
                p.factor(NodeId(2)),
                p.factor(NodeId(3)),
                p.demotions_by_window(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn kind_parse_round_trips() {
        for kind in [SchedulerPolicyKind::Static, SchedulerPolicyKind::Adaptive] {
            assert_eq!(SchedulerPolicyKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SchedulerPolicyKind::parse("greedy"), None);
        assert_eq!(SchedulerPolicyKind::default(), SchedulerPolicyKind::Static);
    }
}
