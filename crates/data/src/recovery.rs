//! QoE-driven sub-stream loss recovery (§5.3).
//!
//! When data is lost, the client chooses per incomplete frame among four
//! actions: (0) packet retransmission from the best-effort node, (1)
//! whole-frame recovery from a dedicated node, (2) switching the
//! affected substream back to a dedicated node, and (3) pulling the full
//! stream from dedicated nodes. The decision minimises
//!
//! ```text
//! Loss(A) = cost(A) + λ Σᵢ P(Fᵢ | aᵢ, S) · risk(Fᵢ)
//! ```
//!
//! where `P` is the probability that frame `i` misses its playout
//! deadline under action `aᵢ`: for dedicated nodes it comes from an
//! empirical distribution function of historical frame-retrieval times
//! `L`; for best-effort nodes from a per-packet geometric model using
//! the observed retransmission success rate `p`, the missing packet
//! count and the retries feasible before the deadline.

use rlive_media::frame::FrameType;
use rlive_sim::rng::EmpiricalCdf;
use rlive_sim::trace::{TraceEvent, TraceSink};
use rlive_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The four recovery actions of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// `a = 0`: packet retransmission from the best-effort publisher
    /// (fast retransmit on out-of-order, else timeout retransmit).
    BestEffortPackets,
    /// `a = 1`: retrieve the whole frame from a dedicated node.
    DedicatedFrame,
    /// `a = 2`: switch this substream's publisher to a dedicated node.
    SwitchSubstream,
    /// `a = 3`: pull the entire stream from dedicated nodes.
    FullStream,
}

impl RecoveryAction {
    /// All actions in index order.
    pub const ALL: [RecoveryAction; 4] = [
        RecoveryAction::BestEffortPackets,
        RecoveryAction::DedicatedFrame,
        RecoveryAction::SwitchSubstream,
        RecoveryAction::FullStream,
    ];

    /// Short label for trace records and timelines.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryAction::BestEffortPackets => "best_effort_packets",
            RecoveryAction::DedicatedFrame => "dedicated_frame",
            RecoveryAction::SwitchSubstream => "switch_substream",
            RecoveryAction::FullStream => "full_stream",
        }
    }
}

/// Recovery state of one incomplete frame — the per-frame slice of the
/// paper's state `S = (τ, s, X_succ, X_fail, L)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameState {
    /// dts of the frame.
    pub dts_ms: u64,
    /// τᵢ: time remaining until the frame's playout deadline.
    pub deadline: SimDuration,
    /// sᵢ: frame size in bytes.
    pub size: u32,
    /// Missing packet count (x_fail).
    pub missing_packets: u32,
    /// Frame type (drives `risk(Fᵢ)`).
    pub frame_type: FrameType,
    /// Substream the frame belongs to.
    pub substream: u16,
}

/// Outcomes retained by the sliding retransmission-success window:
/// enough history for a stable estimate, small enough that a supplier
/// that degrades mid-stream stops hiding behind its early record.
pub const RETX_WINDOW: usize = 512;

/// Shared recovery statistics: the `X_succ`, `X_fail` and `L` components
/// of the state, accumulated over the session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Successfully retransmitted packets (x_succ), all-history.
    pub retx_succeeded: u64,
    /// Total best-effort retransmission attempts (n_succ), all-history.
    pub retx_attempts: u64,
    /// Ring of the last [`RETX_WINDOW`] outcomes, one bit each
    /// (1 = success), indexed by `retx_attempts % RETX_WINDOW`.
    retx_window: Vec<u64>,
    /// Successes among the outcomes currently in the window.
    retx_window_successes: u32,
    /// Round-trip to the best-effort publisher (one retry cycle).
    pub best_effort_rtt: SimDuration,
    /// Historical dedicated-node frame retrieval times `L`, as an EDF.
    pub dedicated_latency: EmpiricalCdf,
    /// Extra latency of establishing a substream switch.
    pub switch_setup: SimDuration,
}

impl Default for RecoveryStats {
    fn default() -> Self {
        RecoveryStats {
            retx_succeeded: 0,
            retx_attempts: 0,
            retx_window: vec![0; RETX_WINDOW / 64],
            retx_window_successes: 0,
            // One best-effort retry cycle is slow (Fig 3(b): best-effort
            // recovery takes a median 778 ms end to end), so the model
            // prices a cycle at that median.
            best_effort_rtt: SimDuration::from_millis(800),
            // Fig 3(b): dedicated retransmission median ≈ 71 ms.
            dedicated_latency: EmpiricalCdf::from_points(&[
                (20.0, 0.0),
                (50.0, 0.25),
                (71.1, 0.50),
                (120.0, 0.75),
                (300.0, 0.93),
                (1000.0, 0.99),
                (3000.0, 1.0),
            ]),
            // DNS bypass (§8.1) keeps switch setup short.
            switch_setup: SimDuration::from_millis(30),
        }
    }
}

impl RecoveryStats {
    /// Per-packet best-effort retransmission success rate `p`, with a
    /// weak prior until observations accumulate. The estimate is
    /// *windowed* over the last [`RETX_WINDOW`] outcomes: an all-history
    /// ratio lets a supplier that degrades mid-stream keep a stale
    /// optimistic `p` forever, while the window tracks the regime the
    /// session is actually in. Identical to the all-history estimate
    /// until the window first fills.
    pub fn packet_success_rate(&self) -> f64 {
        // Prior: Fig 3(a) best-effort success ≈ 0.91.
        let prior_n = 20.0;
        let prior_p = 0.91;
        let window_attempts = self.retx_attempts.min(RETX_WINDOW as u64) as f64;
        (self.retx_window_successes as f64 + prior_p * prior_n) / (window_attempts + prior_n)
    }

    /// Records one best-effort retransmission outcome.
    pub fn observe_retx(&mut self, success: bool) {
        let idx = (self.retx_attempts % RETX_WINDOW as u64) as usize;
        let (word, bit) = (idx / 64, idx % 64);
        if self.retx_attempts >= RETX_WINDOW as u64 && self.retx_window[word] >> bit & 1 == 1 {
            // The outcome leaving the window was a success.
            self.retx_window_successes -= 1;
        }
        if success {
            self.retx_window[word] |= 1 << bit;
            self.retx_window_successes += 1;
            self.retx_succeeded += 1;
        } else {
            self.retx_window[word] &= !(1 << bit);
        }
        self.retx_attempts += 1;
    }

    /// `F_N(τ)`: probability a dedicated-node frame retrieval completes
    /// within `τ`.
    pub fn dedicated_within(&self, deadline: SimDuration) -> f64 {
        self.dedicated_latency.cdf(deadline.as_millis_f64())
    }
}

/// λ: weight of the unplayability term relative to bandwidth cost.
const LAMBDA: f64 = 50.0;

/// Relative per-byte cost of dedicated-CDN bandwidth (best-effort
/// bandwidth is the unit; §2.1 prices best-effort 20–40 % cheaper).
pub const DEDICATED_UNIT_COST: f64 = 1.35;

/// Per-request overhead (in KB-equivalents) of a dedicated-node frame
/// retrieval — the processing/connection burden that makes "repeatedly
/// requesting individual frames" inefficient (§5.3).
const REQUEST_OVERHEAD_KB: f64 = 8.0;

/// Per-switch overhead (in KB-equivalents) of re-homing a substream.
const SWITCH_REQUEST_KB: f64 = 4.0;

/// Whole-stream frames priced in when traffic redirects to the CDN — a
/// substream switch redirects `horizon / K` of them, full-stream
/// fallback all of them; only the dedicated-vs-best-effort price
/// *difference* is charged, since the data must flow either way.
const SWITCH_HORIZON_FRAMES: f64 = 60.0;

/// risk(F) for I-frames (P/B scale down from it via
/// [`FrameType::risk_weight`]).
const I_FRAME_RISK: f64 = 8.0;

/// Lost frames of one substream in a single retransmission list that
/// make switching that substream worth considering (§5.3 action 2).
const CONSECUTIVE_LOSS_THRESHOLD: usize = 3;

/// Configuration of the loss function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Number of substreams K.
    pub substream_count: u16,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { substream_count: 4 }
    }
}

/// One decided action for one frame, with its evaluated loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// dts of the frame.
    pub dts_ms: u64,
    /// Chosen action.
    pub action: RecoveryAction,
    /// Loss of the chosen action.
    pub loss: f64,
    /// Modelled failure probability under the chosen action.
    pub failure_probability: f64,
}

/// The QoE-driven recovery decision engine.
///
/// # Examples
///
/// ```
/// use rlive_data::recovery::{FrameState, RecoveryAction, RecoveryConfig,
///                            RecoveryDecider, RecoveryStats};
/// use rlive_media::frame::FrameType;
/// use rlive_sim::SimDuration;
///
/// let decider = RecoveryDecider::new(RecoveryConfig::default());
/// let stats = RecoveryStats::default();
/// // Plenty of buffer left: the cheap best-effort path wins.
/// let relaxed = FrameState {
///     dts_ms: 1_000,
///     deadline: SimDuration::from_millis(3_000),
///     size: 12_000,
///     missing_packets: 2,
///     frame_type: FrameType::P,
///     substream: 0,
/// };
/// let d = &decider.decide(std::slice::from_ref(&relaxed), &stats)[0];
/// assert_eq!(d.action, RecoveryAction::BestEffortPackets);
/// // Buffer nearly empty: escalate to the dedicated CDN.
/// let urgent = FrameState { deadline: SimDuration::from_millis(90), ..relaxed };
/// let d = &decider.decide(std::slice::from_ref(&urgent), &stats)[0];
/// assert_eq!(d.action, RecoveryAction::DedicatedFrame);
/// ```
#[derive(Debug, Clone)]
pub struct RecoveryDecider {
    cfg: RecoveryConfig,
}

impl RecoveryDecider {
    /// Creates a decider.
    pub fn new(cfg: RecoveryConfig) -> Self {
        RecoveryDecider { cfg }
    }

    /// `risk(Fᵢ)`: unplayability impact, by frame type (I-frames decode
    /// the whole GoP, §5.3).
    pub fn risk(&self, frame_type: FrameType) -> f64 {
        I_FRAME_RISK * frame_type.risk_weight() / FrameType::I.risk_weight()
    }

    /// `P(Fᵢ | aᵢ, S)`: probability the frame misses its deadline.
    pub fn failure_probability(
        &self,
        action: RecoveryAction,
        frame: &FrameState,
        stats: &RecoveryStats,
    ) -> f64 {
        match action {
            RecoveryAction::BestEffortPackets => {
                let p = stats.packet_success_rate().clamp(0.0, 1.0);
                // Feasible retries within the deadline.
                let rtt = stats.best_effort_rtt.as_secs_f64().max(1e-6);
                let retries = (frame.deadline.as_secs_f64() / rtt).floor().max(0.0);
                if retries < 1.0 {
                    return 1.0;
                }
                // Each missing packet independently succeeds within r
                // tries w.p. 1-(1-p)^r; the frame plays iff all succeed.
                let per_packet = 1.0 - (1.0 - p).powf(retries);
                1.0 - per_packet.powf(frame.missing_packets.max(1) as f64)
            }
            RecoveryAction::DedicatedFrame => 1.0 - stats.dedicated_within(frame.deadline),
            RecoveryAction::SwitchSubstream | RecoveryAction::FullStream => {
                // The switch must set up, then the frame arrives like a
                // dedicated retrieval. When the deadline expires before
                // setup even completes, the frame is already lost —
                // certain failure, explicitly, rather than letting the
                // saturated zero budget fall through to whatever the
                // latency EDF happens to report at 0.
                if self.switch_deadline_blown(frame, stats) {
                    return 1.0;
                }
                let remaining = frame.deadline.saturating_sub(stats.switch_setup);
                1.0 - stats.dedicated_within(remaining)
            }
        }
    }

    /// Whether a switch-class recovery (substream switch / full-stream
    /// fallback) cannot possibly save this frame: the playout deadline
    /// is already inside the switch setup time, so the recovery budget
    /// saturates to zero.
    pub fn switch_deadline_blown(&self, frame: &FrameState, stats: &RecoveryStats) -> bool {
        frame.deadline <= stats.switch_setup
    }

    /// `cost(aᵢ)` in normalised bandwidth units for one frame.
    pub fn cost(&self, action: RecoveryAction, frame: &FrameState) -> f64 {
        let frame_kb = frame.size as f64 / 1000.0;
        let missing_kb = (frame.missing_packets as f64 * 1.2).min(frame_kb.max(0.0));
        let price_delta = DEDICATED_UNIT_COST - 1.0;
        match action {
            // Only the missing packets travel, at best-effort prices.
            RecoveryAction::BestEffortPackets => missing_kb,
            // The whole frame travels again at dedicated prices, plus a
            // per-request overhead.
            RecoveryAction::DedicatedFrame => REQUEST_OVERHEAD_KB + frame_kb * DEDICATED_UNIT_COST,
            // This substream's share of the horizon now travels at
            // dedicated prices; charge the price difference.
            RecoveryAction::SwitchSubstream => {
                SWITCH_REQUEST_KB
                    + (SWITCH_HORIZON_FRAMES / self.cfg.substream_count as f64)
                        * frame_kb
                        * price_delta
            }
            // All substreams redirect.
            RecoveryAction::FullStream => {
                SWITCH_REQUEST_KB + SWITCH_HORIZON_FRAMES * frame_kb * price_delta
            }
        }
    }

    /// Loss of one `(action, frame)` pair.
    pub fn loss(&self, action: RecoveryAction, frame: &FrameState, stats: &RecoveryStats) -> f64 {
        self.cost(action, frame)
            + LAMBDA * self.failure_probability(action, frame, stats) * self.risk(frame.frame_type)
    }

    /// Decides the action vector `A = (a₁ … a_m)` for a retransmission
    /// list by per-frame argmin, then applies the §5.3 escalation: when
    /// at least `CONSECUTIVE_LOSS_THRESHOLD` frames of one substream are
    /// in the list, per-frame dedicated recovery is inefficient and the
    /// substream switch is evaluated collectively.
    pub fn decide(&self, frames: &[FrameState], stats: &RecoveryStats) -> Vec<Decision> {
        // Stage-profiled (wall clock, stderr-only reporting).
        let _span = rlive_sim::obs::time_stage(rlive_sim::obs::Stage::RecoveryDecision);
        let mut decisions: Vec<Decision> = frames
            .iter()
            .map(|f| {
                let (action, loss) = RecoveryAction::ALL
                    .iter()
                    .map(|&a| (a, self.loss(a, f, stats)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite losses"))
                    .expect("non-empty action set");
                Decision {
                    dts_ms: f.dts_ms,
                    action,
                    loss,
                    failure_probability: self.failure_probability(action, f, stats),
                }
            })
            .collect();

        // Escalation: count frames per substream in the list. A
        // fixed-size stack array indexed by substream id (substream
        // counts are single-digit; `FULL_STREAM` = u16::MAX lands in
        // the shared overflow slot) replaces the old heap-allocated
        // `HashMap<u16, usize>` — no allocation, and the escalation
        // loop visits substreams in deterministic ascending order.
        const TALLY_SLOTS: usize = 64;
        let mut tally = [0usize; TALLY_SLOTS];
        let mut overflow: Vec<(u16, usize)> = Vec::new();
        for f in frames {
            if (f.substream as usize) < TALLY_SLOTS {
                tally[f.substream as usize] += 1;
            } else if let Some(slot) = overflow.iter_mut().find(|(s, _)| *s == f.substream) {
                slot.1 += 1;
            } else {
                overflow.push((f.substream, 1));
            }
        }
        let tallied = tally
            .iter()
            .enumerate()
            .map(|(ss, &count)| (ss as u16, count))
            .chain(overflow.iter().copied());
        for (ss, count) in tallied {
            if count < CONSECUTIVE_LOSS_THRESHOLD {
                continue;
            }
            // Amortised switch: one setup redirects all of this
            // substream's listed frames.
            let members: Vec<usize> = frames
                .iter()
                .enumerate()
                .filter(|(_, f)| f.substream == ss)
                .map(|(i, _)| i)
                .collect();
            let current_total: f64 = members.iter().map(|&i| decisions[i].loss).sum();
            let switch_total: f64 = members
                .iter()
                .map(|&i| {
                    let f = &frames[i];
                    // Shared setup cost: charge the horizon once, spread
                    // evenly; risk term per frame.
                    let shared_cost =
                        self.cost(RecoveryAction::SwitchSubstream, f) / members.len() as f64;
                    shared_cost
                        + LAMBDA
                            * self.failure_probability(RecoveryAction::SwitchSubstream, f, stats)
                            * self.risk(f.frame_type)
                })
                .sum();
            if switch_total < current_total {
                for &i in &members {
                    let f = &frames[i];
                    decisions[i] = Decision {
                        dts_ms: f.dts_ms,
                        action: RecoveryAction::SwitchSubstream,
                        loss: switch_total / members.len() as f64,
                        failure_probability: self.failure_probability(
                            RecoveryAction::SwitchSubstream,
                            f,
                            stats,
                        ),
                    };
                }
            }
        }
        decisions
    }

    /// [`RecoveryDecider::decide`] plus structured observability: every
    /// chosen action is emitted into `sink` as a
    /// [`TraceEvent::RecoveryDecision`], attributed to `session`.
    /// Decisions are byte-identical to the untraced path.
    pub fn decide_traced(
        &self,
        frames: &[FrameState],
        stats: &RecoveryStats,
        sink: &TraceSink,
        now: SimTime,
        session: u64,
    ) -> Vec<Decision> {
        let decisions = self.decide(frames, stats);
        if sink.is_enabled() {
            for (d, f) in decisions.iter().zip(frames) {
                sink.emit(
                    now,
                    Some(session),
                    TraceEvent::RecoveryDecision {
                        dts_ms: d.dts_ms,
                        action: d.action.label(),
                        loss: d.loss,
                        failure_probability: d.failure_probability,
                    },
                );
                // A switch-class action picked for a frame whose
                // deadline is already inside the switch setup cannot
                // save that frame — surface the blown deadline instead
                // of letting it pass as "escalated with zero budget".
                if matches!(
                    d.action,
                    RecoveryAction::SwitchSubstream | RecoveryAction::FullStream
                ) && self.switch_deadline_blown(f, stats)
                {
                    sink.emit(
                        now,
                        Some(session),
                        TraceEvent::RecoveryDeadlineBlown {
                            dts_ms: d.dts_ms,
                            action: d.action.label(),
                        },
                    );
                }
            }
        }
        decisions
    }
}

/// Which [`RecoveryPolicy`] a world runs. Mirrors
/// `control::policy::SchedulerPolicyKind`: a `Copy` tag that survives
/// config cloning and serde, resolved into a boxed policy at world
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RecoveryPolicyKind {
    /// The §5.3 QoE-driven EDF loss minimisation — one action per lost
    /// frame, no hedging. Byte-identical to the pre-seam decider.
    #[default]
    QoeEdf,
    /// AutoRec-style racing: hedge best-effort retransmissions across
    /// 2–3 suppliers with cancel-on-first-win, escalating straight to
    /// the CDN when the racing window shrinks below `switch_setup`.
    Racing,
}

impl RecoveryPolicyKind {
    /// Parses a CLI / config label. Accepts `qoe_edf` (and the
    /// dash-spelled `qoe-edf`) and `racing`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "qoe_edf" | "qoe-edf" => Some(RecoveryPolicyKind::QoeEdf),
            "racing" => Some(RecoveryPolicyKind::Racing),
            _ => None,
        }
    }

    /// Stable label for reports and golden output.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryPolicyKind::QoeEdf => "qoe_edf",
            RecoveryPolicyKind::Racing => "racing",
        }
    }
}

/// One planned recovery: the underlying EDF decision plus the number of
/// concurrent best-effort attempts the policy wants in flight. A fanout
/// of 1 is the classic single-attempt path; ≥ 2 means the session layer
/// races that many suppliers and cancels on first win.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedRecovery {
    /// The per-frame action and its loss bookkeeping.
    pub decision: Decision,
    /// Concurrent attempts to issue (only meaningful for
    /// [`RecoveryAction::BestEffortPackets`]; always 1 otherwise).
    pub fanout: u32,
}

impl PlannedRecovery {
    /// Wraps a decision in the no-hedging shape.
    pub fn single(decision: Decision) -> Self {
        PlannedRecovery {
            decision,
            fanout: 1,
        }
    }
}

/// The recovery-policy seam. The session layer hands the policy the
/// current retransmission list and per-session statistics; the policy
/// returns one [`PlannedRecovery`] per frame. Policies are deterministic
/// state machines: no randomness, no wall clock — every output is a
/// pure function of the inputs seen so far, which is what keeps worlds
/// byte-identical across `--jobs` / `--world-jobs`.
pub trait RecoveryPolicy: Send {
    /// Which kind this policy is.
    fn kind(&self) -> RecoveryPolicyKind;

    /// Stable label for reports.
    fn label(&self) -> &'static str {
        self.kind().label()
    }

    /// Plans recovery for a retransmission list. `suppliers` are the
    /// best-effort supplier ids currently serving this session (relay
    /// actor ids), in deterministic order; policies may use their
    /// learned quality to size the hedge fanout.
    fn plan(
        &mut self,
        frames: &[FrameState],
        stats: &RecoveryStats,
        suppliers: &[u64],
        sink: &TraceSink,
        now: SimTime,
        session: u64,
    ) -> Vec<PlannedRecovery>;

    /// Feedback: one best-effort attempt against `supplier` finished.
    /// Default no-op; learning policies fold this into per-supplier
    /// quality windows.
    fn note_attempt_outcome(&mut self, _now: SimTime, _supplier: u64, _success: bool) {}
}

/// The classic §5.3 decider behind the seam: delegates straight to
/// [`RecoveryDecider::decide_traced`] with fanout 1 everywhere, so the
/// decision stream — and therefore every pinned golden — is
/// byte-identical to the pre-seam code.
#[derive(Debug)]
pub struct QoeEdfPolicy {
    decider: RecoveryDecider,
}

impl QoeEdfPolicy {
    /// Builds the policy from the shared recovery config.
    pub fn new(cfg: RecoveryConfig) -> Self {
        QoeEdfPolicy {
            decider: RecoveryDecider::new(cfg),
        }
    }
}

impl RecoveryPolicy for QoeEdfPolicy {
    fn kind(&self) -> RecoveryPolicyKind {
        RecoveryPolicyKind::QoeEdf
    }

    fn plan(
        &mut self,
        frames: &[FrameState],
        stats: &RecoveryStats,
        _suppliers: &[u64],
        sink: &TraceSink,
        now: SimTime,
        session: u64,
    ) -> Vec<PlannedRecovery> {
        self.decider
            .decide_traced(frames, stats, sink, now, session)
            .into_iter()
            .map(PlannedRecovery::single)
            .collect()
    }
}

/// Tumbling-window quality ledger for one best-effort supplier,
/// modelled on the obs layer's recovery-failure windows: attempts and
/// failures accumulate in the current window; on rollover the closed
/// window's failure rate becomes the quoted rate.
#[derive(Debug, Clone, Default)]
struct SupplierWindow {
    /// Current tumbling window index (`now / window_ms`).
    window: u64,
    /// Attempts observed in the current window.
    attempts: u32,
    /// Failures observed in the current window.
    failures: u32,
    /// Failure rate of the last closed window that had samples.
    closed_rate: Option<f64>,
}

impl SupplierWindow {
    fn roll(&mut self, window: u64) {
        if window == self.window {
            return;
        }
        if self.attempts > 0 {
            self.closed_rate = Some(self.failures as f64 / self.attempts as f64);
        }
        self.window = window;
        self.attempts = 0;
        self.failures = 0;
    }

    fn observe(&mut self, window: u64, success: bool) {
        self.roll(window);
        self.attempts += 1;
        if !success {
            self.failures += 1;
        }
    }

    /// Best available failure-rate estimate: the last closed window,
    /// else the current window once it has a few samples.
    fn failure_rate(&self) -> Option<f64> {
        if let Some(r) = self.closed_rate {
            return Some(r);
        }
        if self.attempts >= 4 {
            return Some(self.failures as f64 / self.attempts as f64);
        }
        None
    }
}

/// AutoRec-style racing recovery. The EDF decider still ranks actions,
/// but instead of committing a lost frame to a single best-effort
/// supplier the policy hedges the retransmission across several and the
/// session layer cancels on first win. Two deterministic adjustments on
/// top of the baseline decisions:
///
/// 1. **Deadline-aware CDN escalation** — a best-effort pick whose
///    racing window has already shrunk below `switch_setup` cannot
///    afford even one losing race leg, so it escalates straight to a
///    dedicated CDN fetch.
/// 2. **Quality-sized fanout** — base fanout 2, widened to 3 while any
///    serving supplier's tumbling-window failure rate is at or above
///    the configured threshold.
#[derive(Debug)]
pub struct RacingPolicy {
    decider: RecoveryDecider,
    /// Per-supplier quality windows, keyed by supplier id (BTreeMap for
    /// deterministic iteration).
    windows: std::collections::BTreeMap<u64, SupplierWindow>,
    /// Tumbling window width in milliseconds.
    window_ms: u64,
    /// Fanout while suppliers look healthy.
    base_fanout: u32,
    /// Fanout while some supplier's windowed failure rate is high.
    max_fanout: u32,
    /// Windowed failure rate at which the fanout widens.
    bad_supplier_threshold: f64,
}

impl RacingPolicy {
    /// Builds the policy from the shared recovery config.
    pub fn new(cfg: RecoveryConfig) -> Self {
        RacingPolicy {
            decider: RecoveryDecider::new(cfg),
            windows: std::collections::BTreeMap::new(),
            window_ms: 1_000,
            base_fanout: 2,
            max_fanout: 3,
            bad_supplier_threshold: 0.3,
        }
    }

    fn window_of(&self, at: SimTime) -> u64 {
        at.as_millis() / self.window_ms.max(1)
    }

    /// Hedge width for the given serving suppliers: capped by how many
    /// suppliers there actually are, widened while any of them is
    /// failing its window.
    fn fanout_for(&self, suppliers: &[u64]) -> u32 {
        let any_bad = suppliers.iter().any(|s| {
            self.windows
                .get(s)
                .and_then(SupplierWindow::failure_rate)
                .is_some_and(|r| r >= self.bad_supplier_threshold)
        });
        let want = if any_bad {
            self.max_fanout
        } else {
            self.base_fanout
        };
        want.min(suppliers.len().max(1) as u32)
    }
}

impl RecoveryPolicy for RacingPolicy {
    fn kind(&self) -> RecoveryPolicyKind {
        RecoveryPolicyKind::Racing
    }

    fn plan(
        &mut self,
        frames: &[FrameState],
        stats: &RecoveryStats,
        suppliers: &[u64],
        sink: &TraceSink,
        now: SimTime,
        session: u64,
    ) -> Vec<PlannedRecovery> {
        // Decide untraced, escalate, then trace the *final* actions:
        // the decision stream must reflect what the racing policy
        // actually issues, and escalation guarantees it never issues a
        // switch whose deadline is already blown — so the racing arm
        // emits no `RecoveryDeadlineBlown` events of its own.
        let decisions = self.decider.decide(frames, stats);
        let fanout = self.fanout_for(suppliers);
        let plans: Vec<PlannedRecovery> = decisions
            .into_iter()
            .zip(frames)
            .map(|(mut d, f)| {
                // Deadline-aware escalation: once the remaining window
                // is inside the switch setup, neither a race leg nor a
                // substream switch can make the deadline — go straight
                // to the CDN for the frame itself.
                let doomed_switch = matches!(
                    d.action,
                    RecoveryAction::SwitchSubstream | RecoveryAction::FullStream
                ) && self.decider.switch_deadline_blown(f, stats);
                let blown_race_window = d.action == RecoveryAction::BestEffortPackets
                    && f.deadline <= stats.switch_setup;
                if doomed_switch || blown_race_window {
                    d.action = RecoveryAction::DedicatedFrame;
                    d.loss = self.decider.loss(d.action, f, stats);
                    d.failure_probability = self.decider.failure_probability(d.action, f, stats);
                    return PlannedRecovery::single(d);
                }
                if d.action != RecoveryAction::BestEffortPackets {
                    return PlannedRecovery::single(d);
                }
                PlannedRecovery {
                    decision: d,
                    fanout,
                }
            })
            .collect();
        if sink.is_enabled() {
            for p in &plans {
                sink.emit(
                    now,
                    Some(session),
                    TraceEvent::RecoveryDecision {
                        dts_ms: p.decision.dts_ms,
                        action: p.decision.action.label(),
                        loss: p.decision.loss,
                        failure_probability: p.decision.failure_probability,
                    },
                );
            }
        }
        plans
    }

    fn note_attempt_outcome(&mut self, now: SimTime, supplier: u64, success: bool) {
        let window = self.window_of(now);
        self.windows
            .entry(supplier)
            .or_default()
            .observe(window, success);
    }
}

/// Resolves a [`RecoveryPolicyKind`] into a boxed policy.
pub fn build_recovery_policy(
    kind: RecoveryPolicyKind,
    cfg: &RecoveryConfig,
) -> Box<dyn RecoveryPolicy> {
    match kind {
        RecoveryPolicyKind::QoeEdf => Box::new(QoeEdfPolicy::new(cfg.clone())),
        RecoveryPolicyKind::Racing => Box::new(RacingPolicy::new(cfg.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(deadline_ms: u64, missing: u32, ftype: FrameType) -> FrameState {
        FrameState {
            dts_ms: 1000,
            deadline: SimDuration::from_millis(deadline_ms),
            size: 12_000,
            missing_packets: missing,
            frame_type: ftype,
            substream: 0,
        }
    }

    fn decider() -> RecoveryDecider {
        RecoveryDecider::new(RecoveryConfig::default())
    }

    #[test]
    fn ample_deadline_prefers_cheap_best_effort() {
        // Plenty of buffer: best-effort packet recovery is near-free and
        // almost certain within many retries.
        let d = decider();
        let stats = RecoveryStats::default();
        let f = frame(3_000, 2, FrameType::P);
        let decisions = d.decide(&[f], &stats);
        assert_eq!(decisions[0].action, RecoveryAction::BestEffortPackets);
        assert!(decisions[0].failure_probability < 0.05);
    }

    #[test]
    fn tight_deadline_escalates_to_dedicated() {
        // Almost no buffer left: one best-effort retry cycle won't fit,
        // but the dedicated node delivers most frames in ~71 ms.
        let d = decider();
        let stats = RecoveryStats::default();
        let f = frame(90, 2, FrameType::P);
        let decisions = d.decide(&[f], &stats);
        assert_eq!(decisions[0].action, RecoveryAction::DedicatedFrame);
    }

    #[test]
    fn i_frames_escalate_sooner_than_b_frames() {
        // At a deadline where best-effort is plausible but not certain,
        // the higher I-frame risk should flip the decision earlier.
        let d = decider();
        let mut stats = RecoveryStats::default();
        // Make best-effort mediocre: ~70% per-packet success. Interleave
        // the outcomes so the windowed estimate sees the same mix.
        for i in 0..1000 {
            stats.observe_retx(i % 10 < 7);
        }
        let mut flip_b = None;
        let mut flip_i = None;
        for deadline in (40..3000).step_by(20) {
            let b = d.decide(&[frame(deadline, 4, FrameType::B)], &stats)[0].action;
            let i = d.decide(&[frame(deadline, 4, FrameType::I)], &stats)[0].action;
            if b == RecoveryAction::BestEffortPackets && flip_b.is_none() {
                flip_b = Some(deadline);
            }
            if i == RecoveryAction::BestEffortPackets && flip_i.is_none() {
                flip_i = Some(deadline);
            }
        }
        let flip_b = flip_b.expect("B flips to best-effort");
        let flip_i = flip_i.unwrap_or(3000);
        assert!(
            flip_i >= flip_b,
            "I-frame keeps dedicated longer: B flips at {flip_b}, I at {flip_i}"
        );
    }

    #[test]
    fn burst_loss_on_one_substream_switches_it() {
        let d = decider();
        let stats = RecoveryStats::default();
        // Five consecutive frames of substream 2 missing with moderate
        // deadlines: per-frame dedicated recovery is inefficient.
        let frames: Vec<FrameState> = (0..5)
            .map(|i| {
                let mut f = frame(150 + i * 33, 8, FrameType::P);
                f.dts_ms = 1000 + i * 33;
                f.substream = 2;
                f
            })
            .collect();
        let decisions = d.decide(&frames, &stats);
        assert!(
            decisions
                .iter()
                .all(|dec| dec.action == RecoveryAction::SwitchSubstream),
            "{decisions:?}"
        );
    }

    #[test]
    fn scattered_losses_do_not_switch() {
        let d = decider();
        let stats = RecoveryStats::default();
        // One lost frame per substream: no consolidation possible.
        let frames: Vec<FrameState> = (0..4)
            .map(|i| {
                let mut f = frame(1_600, 1, FrameType::P);
                f.substream = i;
                f.dts_ms = 1000 + i as u64 * 33;
                f
            })
            .collect();
        let decisions = d.decide(&frames, &stats);
        assert!(decisions
            .iter()
            .all(|dec| dec.action == RecoveryAction::BestEffortPackets));
    }

    #[test]
    fn failure_probability_monotone_in_deadline() {
        let d = decider();
        let stats = RecoveryStats::default();
        let mut last = 1.1;
        for deadline in [30u64, 60, 120, 240, 480, 960] {
            let f = frame(deadline, 3, FrameType::P);
            let p = d.failure_probability(RecoveryAction::BestEffortPackets, &f, &stats);
            assert!(
                p <= last + 1e-12,
                "p not monotone at {deadline}: {p} > {last}"
            );
            last = p;
        }
    }

    #[test]
    fn failure_probability_increases_with_missing_packets() {
        let d = decider();
        let mut stats = RecoveryStats::default();
        for _ in 0..80 {
            stats.observe_retx(true);
        }
        for _ in 0..20 {
            stats.observe_retx(false);
        }
        let p1 = d.failure_probability(
            RecoveryAction::BestEffortPackets,
            &frame(1_000, 1, FrameType::P),
            &stats,
        );
        let p8 = d.failure_probability(
            RecoveryAction::BestEffortPackets,
            &frame(1_000, 8, FrameType::P),
            &stats,
        );
        assert!(p8 > p1, "p8 {p8} vs p1 {p1}");
    }

    #[test]
    fn dedicated_probability_follows_edf() {
        let d = decider();
        let stats = RecoveryStats::default();
        // At the median latency, failure probability is ~0.5.
        let p = d.failure_probability(
            RecoveryAction::DedicatedFrame,
            &frame(71, 1, FrameType::P),
            &stats,
        );
        assert!((p - 0.5).abs() < 0.05, "p {p}");
        // Far beyond the tail: certain success.
        let p = d.failure_probability(
            RecoveryAction::DedicatedFrame,
            &frame(5_000, 1, FrameType::P),
            &stats,
        );
        assert!(p < 0.01);
    }

    #[test]
    fn cost_ordering_matches_paper() {
        // Packet < frame < substream switch < full stream, for one frame.
        let d = decider();
        let f = frame(100, 1, FrameType::P);
        let c0 = d.cost(RecoveryAction::BestEffortPackets, &f);
        let c1 = d.cost(RecoveryAction::DedicatedFrame, &f);
        let c2 = d.cost(RecoveryAction::SwitchSubstream, &f);
        let c3 = d.cost(RecoveryAction::FullStream, &f);
        assert!(c0 < c1 && c1 < c2 && c2 < c3, "{c0} {c1} {c2} {c3}");
    }

    #[test]
    fn success_rate_prior_decays_with_observations() {
        let mut stats = RecoveryStats::default();
        let prior = stats.packet_success_rate();
        assert!((prior - 0.91).abs() < 0.01);
        for _ in 0..1000 {
            stats.observe_retx(false);
        }
        assert!(stats.packet_success_rate() < 0.05);
    }

    #[test]
    fn blown_switch_deadline_is_certain_failure_at_the_boundary() {
        let d = decider();
        // An EDF that claims probability mass at zero latency: without
        // the explicit blown-deadline branch, a saturated zero budget
        // would read `1 - cdf(0) = 0.5` — "escalate with zero budget" —
        // instead of certain failure.
        let stats = RecoveryStats {
            dedicated_latency: EmpiricalCdf::from_points(&[(0.0, 0.5), (100.0, 1.0)]),
            ..RecoveryStats::default()
        };
        for action in [RecoveryAction::SwitchSubstream, RecoveryAction::FullStream] {
            // deadline < setup: blown.
            let f = frame(10, 2, FrameType::P);
            assert!(d.switch_deadline_blown(&f, &stats));
            assert_eq!(d.failure_probability(action, &f, &stats), 1.0);
            // deadline == setup (30 ms): still blown — zero budget.
            let f = frame(30, 2, FrameType::P);
            assert!(d.switch_deadline_blown(&f, &stats));
            assert_eq!(d.failure_probability(action, &f, &stats), 1.0);
            // One millisecond of budget: back on the EDF.
            let f = frame(31, 2, FrameType::P);
            assert!(!d.switch_deadline_blown(&f, &stats));
            let p = d.failure_probability(action, &f, &stats);
            assert!(p < 1.0, "1 ms budget must consult the EDF, got {p}");
        }
        // The dedicated-frame path is untouched by the switch branch.
        let f = frame(10, 2, FrameType::P);
        let p = d.failure_probability(RecoveryAction::DedicatedFrame, &f, &stats);
        assert!((p - 0.45).abs() < 1e-9, "p {p}");
    }

    #[test]
    fn blown_deadline_switch_emits_trace_event() {
        let d = decider();
        let stats = RecoveryStats::default();
        // A burst on substream 2 where the earliest frame's deadline is
        // already inside the 30 ms switch setup: the collective switch
        // can still win on the later frames, but the doomed frame must
        // be called out.
        let mut frames: Vec<FrameState> = (0..5)
            .map(|i| {
                let mut f = frame(150 + i * 33, 8, FrameType::P);
                f.dts_ms = 1000 + i * 33;
                f.substream = 2;
                f
            })
            .collect();
        frames[0].deadline = SimDuration::from_millis(20);
        let sink = TraceSink::unbounded();
        let decisions = d.decide_traced(&frames, &stats, &sink, SimTime::from_secs(1), 42);
        assert!(
            decisions
                .iter()
                .all(|dec| dec.action == RecoveryAction::SwitchSubstream),
            "{decisions:?}"
        );
        let records = sink.snapshot();
        let blown: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RecoveryDeadlineBlown { .. }))
            .collect();
        assert_eq!(blown.len(), 1, "exactly the doomed frame: {records:?}");
        match &blown[0].event {
            TraceEvent::RecoveryDeadlineBlown { dts_ms, action } => {
                assert_eq!(*dts_ms, 1000);
                assert_eq!(*action, "switch_substream");
            }
            other => panic!("unexpected event {other:?}"),
        }
        // The traced path stays byte-identical to the untraced one.
        assert_eq!(decisions, d.decide(&frames, &stats));
    }

    #[test]
    fn zero_deadline_fails_everything_but_still_decides() {
        let d = decider();
        let stats = RecoveryStats::default();
        let f = frame(0, 2, FrameType::P);
        let decisions = d.decide(std::slice::from_ref(&f), &stats);
        assert_eq!(decisions.len(), 1);
        assert!(d.failure_probability(RecoveryAction::BestEffortPackets, &f, &stats) >= 1.0 - 1e-9);
    }

    #[test]
    fn success_rate_tracks_a_regime_change() {
        // A supplier that was healthy for a long prefix then degrades:
        // the all-history estimate would stay optimistic forever
        // ((1000 + 18.2) / (1512 + 20) ≈ 0.66 after the crash below),
        // while the windowed estimate must converge to the new regime.
        let mut stats = RecoveryStats::default();
        for _ in 0..1000 {
            stats.observe_retx(true);
        }
        assert!(stats.packet_success_rate() > 0.9);
        for _ in 0..RETX_WINDOW {
            stats.observe_retx(false);
        }
        assert!(
            stats.packet_success_rate() < 0.05,
            "windowed rate must track the recent window, got {}",
            stats.packet_success_rate()
        );
        // And recover just as fast when the supplier heals.
        for _ in 0..RETX_WINDOW {
            stats.observe_retx(true);
        }
        assert!(stats.packet_success_rate() > 0.9);
        // All-history counters still accumulate for reporting.
        assert_eq!(stats.retx_attempts, 1000 + 2 * RETX_WINDOW as u64);
        assert_eq!(stats.retx_succeeded, 1000 + RETX_WINDOW as u64);
    }

    #[test]
    fn windowed_rate_matches_all_history_until_the_window_fills() {
        // Golden-compatibility: below RETX_WINDOW attempts the windowed
        // estimate must equal the historical all-history formula.
        let mut stats = RecoveryStats::default();
        for i in 0..RETX_WINDOW as u64 {
            stats.observe_retx(i % 3 != 0);
            let all_history =
                (stats.retx_succeeded as f64 + 0.91 * 20.0) / (stats.retx_attempts as f64 + 20.0);
            assert!(
                (stats.packet_success_rate() - all_history).abs() < 1e-12,
                "diverged at attempt {}",
                i + 1
            );
        }
    }

    #[test]
    fn empirical_cdf_boundaries_are_pinned() {
        // The boundary contract the recovery model leans on: mass below
        // the first point is zero, the first point carries its own
        // probability, and anything at or past the last point saturates
        // to one.
        let stats = RecoveryStats::default();
        let cdf = &stats.dedicated_latency;
        assert_eq!(cdf.cdf(0.0), 0.0, "deadline 0 is before the 20 ms floor");
        assert_eq!(cdf.cdf(19.999), 0.0);
        assert_eq!(cdf.cdf(20.0), 0.0, "first point carries its probability");
        assert_eq!(cdf.cdf(3000.0), 1.0, "last point saturates");
        assert_eq!(cdf.cdf(1.0e9), 1.0, "beyond the last point stays 1");
        // dedicated_within is the same clamping through SimDuration.
        assert_eq!(stats.dedicated_within(SimDuration::ZERO), 0.0);
        assert_eq!(stats.dedicated_within(SimDuration::from_secs(3600)), 1.0);
        // So a zero deadline makes dedicated recovery certain failure,
        // and a huge deadline makes it certain success.
        let d = decider();
        let p0 = d.failure_probability(
            RecoveryAction::DedicatedFrame,
            &frame(0, 1, FrameType::P),
            &stats,
        );
        assert_eq!(p0, 1.0);
        let p_inf = d.failure_probability(
            RecoveryAction::DedicatedFrame,
            &frame(3_600_000, 1, FrameType::P),
            &stats,
        );
        assert_eq!(p_inf, 0.0);
        // Switch-class at deadline == 0 and == switch_setup: blown on
        // both (zero racing budget), not blown one past setup.
        assert!(d.switch_deadline_blown(&frame(0, 1, FrameType::P), &stats));
        assert!(d.switch_deadline_blown(&frame(30, 1, FrameType::P), &stats));
        assert!(!d.switch_deadline_blown(&frame(31, 1, FrameType::P), &stats));
    }

    #[test]
    fn policy_kind_parses_and_labels() {
        assert_eq!(
            RecoveryPolicyKind::parse("qoe_edf"),
            Some(RecoveryPolicyKind::QoeEdf)
        );
        assert_eq!(
            RecoveryPolicyKind::parse("qoe-edf"),
            Some(RecoveryPolicyKind::QoeEdf)
        );
        assert_eq!(
            RecoveryPolicyKind::parse("racing"),
            Some(RecoveryPolicyKind::Racing)
        );
        assert_eq!(RecoveryPolicyKind::parse("bogus"), None);
        assert_eq!(RecoveryPolicyKind::default().label(), "qoe_edf");
        assert_eq!(RecoveryPolicyKind::Racing.label(), "racing");
        assert_eq!(
            build_recovery_policy(RecoveryPolicyKind::Racing, &RecoveryConfig::default()).label(),
            "racing"
        );
    }

    #[test]
    fn qoe_edf_policy_is_byte_identical_to_the_decider() {
        let cfg = RecoveryConfig::default();
        let d = RecoveryDecider::new(cfg.clone());
        let mut policy = QoeEdfPolicy::new(cfg);
        let stats = RecoveryStats::default();
        let frames = vec![
            frame(3_000, 2, FrameType::P),
            frame(90, 2, FrameType::I),
            frame(40, 6, FrameType::B),
        ];
        let sink = TraceSink::disabled();
        let plans = policy.plan(&frames, &stats, &[1, 2], &sink, SimTime::from_secs(1), 7);
        let decisions = d.decide(&frames, &stats);
        assert_eq!(plans.len(), decisions.len());
        for (p, d) in plans.iter().zip(&decisions) {
            assert_eq!(p.fanout, 1, "QoeEdf never hedges");
            assert_eq!(&p.decision, d);
        }
    }

    #[test]
    fn racing_policy_hedges_best_effort_and_escalates_blown_windows() {
        let mut policy = RacingPolicy::new(RecoveryConfig::default());
        let stats = RecoveryStats::default();
        let sink = TraceSink::disabled();
        let suppliers = [10u64, 11, 12];
        let frames = vec![
            // Ample deadline: best-effort pick, hedged.
            frame(3_000, 2, FrameType::P),
            // Racing window inside switch_setup (30 ms): best-effort
            // would win the argmin on price at very short deadlines
            // only via the blown branch — force the boundary.
            frame(25, 1, FrameType::P),
        ];
        let plans = policy.plan(&frames, &stats, &suppliers, &sink, SimTime::from_secs(1), 7);
        assert_eq!(plans[0].decision.action, RecoveryAction::BestEffortPackets);
        assert_eq!(plans[0].fanout, 2, "healthy suppliers race at base fanout");
        // The 25 ms frame must not stay best-effort with a hedge: either
        // the decider already escalated it, or the racing override did.
        assert_ne!(plans[1].decision.action, RecoveryAction::BestEffortPackets);
        assert_eq!(plans[1].fanout, 1);

        // Degrade one supplier's window: fanout widens to 3.
        for i in 0..10 {
            policy.note_attempt_outcome(SimTime::from_millis(100 * i), 11, false);
        }
        let plans = policy.plan(
            &frames[..1],
            &stats,
            &suppliers,
            &sink,
            SimTime::from_secs(2),
            7,
        );
        assert_eq!(plans[0].fanout, 3, "bad supplier widens the hedge");

        // Fanout is capped by the number of suppliers actually serving.
        let plans = policy.plan(
            &frames[..1],
            &stats,
            &suppliers[..1],
            &sink,
            SimTime::from_secs(3),
            7,
        );
        assert_eq!(plans[0].fanout, 1);
    }
}
