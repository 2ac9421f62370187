//! Lightweight event tracing and counting for simulation debugging.
//!
//! Discrete-event systems fail in ways that are hard to see from end
//! metrics alone ("why did nothing play?"). [`TraceCounters`] counts
//! named event kinds cheaply; [`TraceSink`] keeps typed
//! [`TraceRecord`]s for post-mortem inspection and the obs layer.

use crate::time::SimTime;
use serde::Serialize;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Cheap named counters for event kinds.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TraceCounters {
    counts: BTreeMap<&'static str, u64>,
}

impl TraceCounters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter for `kind`.
    pub fn add(&mut self, kind: &'static str, n: u64) {
        *self.counts.entry(kind).or_insert(0) += n;
    }

    /// Reads one counter (0 if never bumped).
    pub fn get(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn all(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &TraceCounters) {
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }
}

impl std::fmt::Display for TraceCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, v) in &self.counts {
            writeln!(f, "{k:<32} {v:>12}")?;
        }
        Ok(())
    }
}

/// A structured, typed observability event emitted at a decision point
/// of the delivery system.
///
/// The taxonomy spans every layer: the control plane (scheduler
/// recommendations, adviser triggers), the data plane (recovery action
/// choices, reorder head skips) and the orchestration layer (churn, mode
/// switches, session lifecycle). Lower-layer crates emit the variants
/// they own; the `rlive` core re-exports this type as part of
/// `rlive::events` and wires every component to one [`TraceSink`].
///
/// Variants carry only primitive fields so the taxonomy can live in the
/// simulation substrate, beneath every emitting crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// `control::scheduler` served a candidate recommendation.
    SchedulerRecommendation {
        /// Stream id of the request.
        stream: u64,
        /// Substream of the request.
        substream: u16,
        /// Number of candidates returned.
        candidates: u32,
        /// Modelled scheduler service time in milliseconds.
        service_time_ms: f64,
    },
    /// `control::adviser` fired the cost-consolidation trigger.
    AdviserCostTrigger {
        /// Node whose adviser fired.
        node: u64,
        /// Sliding node utilisation `ū_node`.
        node_util: f64,
        /// Scheduler-confirmed stream utilisation `ū_stream`.
        stream_util: f64,
    },
    /// `control::adviser` fired the QoS-outlier trigger.
    AdviserQosTrigger {
        /// Node whose adviser fired.
        node: u64,
        /// Outlier connections flagged this round.
        outliers: u32,
    },
    /// `data::recovery` chose a recovery action for one frame.
    RecoveryDecision {
        /// Frame timestamp.
        dts_ms: u64,
        /// Chosen action label.
        action: &'static str,
        /// Loss value of the chosen action.
        loss: f64,
        /// Modelled deadline-miss probability under that action.
        failure_probability: f64,
    },
    /// `data::reorder` abandoned a blocked head frame (deadline skip).
    ReorderHeadSkip {
        /// Timestamp of the abandoned frame.
        dts_ms: u64,
        /// Frames that became releasable after the skip.
        released: u32,
    },
    /// A relay went online or offline (churn transition).
    Churn {
        /// Node id.
        node: u64,
        /// New state.
        online: bool,
    },
    /// A client's delivery mode changed.
    ModeSwitch {
        /// Mode before the switch.
        from: &'static str,
        /// Mode after the switch.
        to: &'static str,
        /// What prompted the switch.
        reason: &'static str,
    },
    /// A viewer session joined.
    SessionJoin {
        /// Stream watched.
        stream: u64,
        /// Experiment group label.
        group: &'static str,
        /// Delivery-mode policy label.
        mode: &'static str,
    },
    /// A viewer session departed.
    SessionDepart {
        /// Frames played over the session.
        frames_played: u64,
        /// Rebuffer events over the session.
        rebuffer_events: u64,
    },
    /// The CDN burst recent frames to fill or refill a playout buffer.
    CdnPrefill {
        /// Frames sent in the burst.
        frames: u32,
    },
    /// The multi-source promotion gate evaluated a session.
    MultiSourcePromotion {
        /// Whether best-effort sources were granted.
        granted: bool,
        /// Relay subscriptions established.
        relays: u32,
    },
    /// A recovery attempt completed.
    RecoveryOutcome {
        /// Frame timestamp.
        dts_ms: u64,
        /// Action that was attempted.
        action: &'static str,
        /// Whether the retransmission succeeded.
        success: bool,
    },
    /// `data::recovery` chose a switch-class action for a frame whose
    /// playout deadline was already inside the switch setup time: the
    /// frame cannot be saved (certain failure), the switch only helps
    /// frames behind it.
    RecoveryDeadlineBlown {
        /// Frame timestamp.
        dts_ms: u64,
        /// The doomed action label.
        action: &'static str,
    },
    /// A racing recovery policy issued a hedged retransmission batch:
    /// `fanout` concurrent best-effort attempts for one frame, first
    /// win cancels the rest.
    HedgeIssued {
        /// Frame timestamp.
        dts_ms: u64,
        /// Concurrent attempts issued.
        fanout: u32,
    },
    /// A hedge race was decided and the losing attempts were cancelled.
    HedgeCancelled {
        /// Frame timestamp.
        dts_ms: u64,
        /// Attempts still in flight when the race was decided.
        remaining: u32,
    },
    /// A hedged retransmission race was won by one attempt.
    HedgeWon {
        /// Frame timestamp.
        dts_ms: u64,
        /// Zero-based index of the winning attempt within its batch.
        attempt: u32,
    },
}

impl TraceEvent {
    /// Every kind label in [`TraceEvent::kind`] order — the row space of
    /// a behavioural coverage matrix (see [`crate::coverage`]). Keep in
    /// sync with the variant list; `coverage::tests` cross-checks the
    /// count against the `kind()` mapping.
    pub const ALL_KINDS: [&'static str; 16] = [
        "scheduler_recommendation",
        "adviser_cost_trigger",
        "adviser_qos_trigger",
        "recovery_decision",
        "reorder_head_skip",
        "churn",
        "mode_switch",
        "session_join",
        "session_depart",
        "cdn_prefill",
        "multi_source_promotion",
        "recovery_outcome",
        "recovery_deadline_blown",
        "hedge_issued",
        "hedge_cancelled",
        "hedge_won",
    ];

    /// Short machine-readable kind label, e.g. for counting or filtering.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SchedulerRecommendation { .. } => "scheduler_recommendation",
            TraceEvent::AdviserCostTrigger { .. } => "adviser_cost_trigger",
            TraceEvent::AdviserQosTrigger { .. } => "adviser_qos_trigger",
            TraceEvent::RecoveryDecision { .. } => "recovery_decision",
            TraceEvent::ReorderHeadSkip { .. } => "reorder_head_skip",
            TraceEvent::Churn { .. } => "churn",
            TraceEvent::ModeSwitch { .. } => "mode_switch",
            TraceEvent::SessionJoin { .. } => "session_join",
            TraceEvent::SessionDepart { .. } => "session_depart",
            TraceEvent::CdnPrefill { .. } => "cdn_prefill",
            TraceEvent::MultiSourcePromotion { .. } => "multi_source_promotion",
            TraceEvent::RecoveryOutcome { .. } => "recovery_outcome",
            TraceEvent::RecoveryDeadlineBlown { .. } => "recovery_deadline_blown",
            TraceEvent::HedgeIssued { .. } => "hedge_issued",
            TraceEvent::HedgeCancelled { .. } => "hedge_cancelled",
            TraceEvent::HedgeWon { .. } => "hedge_won",
        }
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::SchedulerRecommendation {
                stream,
                substream,
                candidates,
                service_time_ms,
            } => write!(
                f,
                "scheduler_recommendation stream={stream} ss={substream} candidates={candidates} service={service_time_ms:.1}ms"
            ),
            TraceEvent::AdviserCostTrigger {
                node,
                node_util,
                stream_util,
            } => write!(
                f,
                "adviser_cost_trigger node={node} u_node={node_util:.3} u_stream={stream_util:.3}"
            ),
            TraceEvent::AdviserQosTrigger { node, outliers } => {
                write!(f, "adviser_qos_trigger node={node} outliers={outliers}")
            }
            TraceEvent::RecoveryDecision {
                dts_ms,
                action,
                loss,
                failure_probability,
            } => write!(
                f,
                "recovery_decision dts={dts_ms} action={action} loss={loss:.3} p_fail={failure_probability:.3}"
            ),
            TraceEvent::ReorderHeadSkip { dts_ms, released } => {
                write!(f, "reorder_head_skip dts={dts_ms} released={released}")
            }
            TraceEvent::Churn { node, online } => {
                write!(
                    f,
                    "churn node={node} {}",
                    if *online { "online" } else { "offline" }
                )
            }
            TraceEvent::ModeSwitch { from, to, reason } => {
                write!(f, "mode_switch {from} -> {to} ({reason})")
            }
            TraceEvent::SessionJoin {
                stream,
                group,
                mode,
            } => write!(f, "session_join stream={stream} group={group} mode={mode}"),
            TraceEvent::SessionDepart {
                frames_played,
                rebuffer_events,
            } => write!(
                f,
                "session_depart frames={frames_played} rebuffers={rebuffer_events}"
            ),
            TraceEvent::CdnPrefill { frames } => write!(f, "cdn_prefill frames={frames}"),
            TraceEvent::MultiSourcePromotion { granted, relays } => {
                write!(f, "multi_source_promotion granted={granted} relays={relays}")
            }
            TraceEvent::RecoveryOutcome {
                dts_ms,
                action,
                success,
            } => write!(
                f,
                "recovery_outcome dts={dts_ms} action={action} success={success}"
            ),
            TraceEvent::RecoveryDeadlineBlown { dts_ms, action } => {
                write!(f, "recovery_deadline_blown dts={dts_ms} action={action}")
            }
            TraceEvent::HedgeIssued { dts_ms, fanout } => {
                write!(f, "hedge_issued dts={dts_ms} fanout={fanout}")
            }
            TraceEvent::HedgeCancelled { dts_ms, remaining } => {
                write!(f, "hedge_cancelled dts={dts_ms} remaining={remaining}")
            }
            TraceEvent::HedgeWon { dts_ms, attempt } => {
                write!(f, "hedge_won dts={dts_ms} attempt={attempt}")
            }
        }
    }
}

/// One recorded [`TraceEvent`] with its timestamp and (optional)
/// session attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Position of this record in its world's trace stream (0-based,
    /// gap-free across evictions).
    ///
    /// **Ordering invariant:** `seq` is assigned when a record enters a
    /// world's primary ring — for records staged in a worker-local
    /// [`TraceSink::staging`] buffer that means at *merge* time
    /// ([`TraceSink::absorb`]), never at emission. Wall-clock emission
    /// order on worker threads is nondeterministic; merge order (batch
    /// index order) is not. Anything that consumes drained records —
    /// golden tests, timeline rendering, the shard-invariance battery —
    /// may therefore rely on `seq` (and record order) being a pure
    /// function of the seed, for any worker count.
    pub seq: u64,
    /// When the event was emitted.
    pub at: SimTime,
    /// The emitting session (client id), or `None` for node/world-level
    /// events such as churn and adviser triggers.
    pub session: Option<u64>,
    /// The event payload.
    pub event: TraceEvent,
}

#[derive(Debug)]
struct TraceRingInner {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
    /// Next `seq` to assign; counts every record ever appended to this
    /// ring (including later-evicted ones).
    next_seq: u64,
}

impl TraceRingInner {
    /// Appends one record, assigning its `seq` and evicting the oldest
    /// record when full.
    fn append(&mut self, mut record: TraceRecord) {
        record.seq = self.next_seq;
        self.next_seq += 1;
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

/// A cloneable handle to a bounded, typed trace ring — or a disabled
/// no-op sink (the default).
///
/// Every component of a world (scheduler, advisers, reorder buffers,
/// the world itself) holds a clone; all clones feed one ring. Ring
/// content — record order and [`TraceRecord::seq`] included — is a pure
/// function of the seed: sequential phases emit directly, and sharded
/// phases stage per-event records in worker-local [`TraceSink::staging`]
/// buffers that the merge thread [`TraceSink::absorb`]s in batch-index
/// order (see the `seq` field docs for the full invariant). The handle
/// is `Send` so a traced world can still run as a runner cell on any
/// worker thread.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<TraceRingInner>>>,
}

impl TraceSink {
    /// A disabled sink: `emit` is a no-op. This is the default wired
    /// into every component, so tracing costs nothing unless enabled.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// Creates an enabled sink retaining the most recent `capacity`
    /// records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        TraceSink {
            inner: Some(Arc::new(Mutex::new(TraceRingInner {
                records: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
                next_seq: 0,
            }))),
        }
    }

    /// Creates an unbounded staging buffer for one sharded event: the
    /// worker points its actor's emitters here, runs the handler, and
    /// ships the drained records back in the event's outbox. Staged
    /// records carry a placeholder `seq`; the real one is assigned when
    /// the merge thread [`TraceSink::absorb`]s them into the world ring.
    pub fn staging() -> Self {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(TraceRingInner {
                records: VecDeque::new(),
                capacity: usize::MAX,
                dropped: 0,
                next_seq: 0,
            }))),
        }
    }

    /// Creates an enabled sink that never evicts.
    ///
    /// The observability layer aggregates over the *complete* trace
    /// stream, so a bounded ring would silently under-count early
    /// windows once it wraps; obs-enabled worlds use an unbounded sink
    /// instead. (Identical to [`TraceSink::staging`] today, but named
    /// for the intent: primary ring, not per-event scratch buffer.)
    pub fn unbounded() -> Self {
        TraceSink::staging()
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event, evicting the oldest record when full.
    pub fn emit(&self, at: SimTime, session: Option<u64>, event: TraceEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut ring = inner.lock().expect("trace ring poisoned");
        ring.append(TraceRecord {
            seq: 0,
            at,
            session,
            event,
        });
    }

    /// Appends already-recorded (staged) records, re-assigning each
    /// one's `seq` as it enters this ring. This is the merge half of the
    /// ordering invariant documented on [`TraceRecord::seq`]: calling
    /// `absorb` on per-event staging buffers in batch-index order makes
    /// ring content identical to what direct sequential emission would
    /// have produced, regardless of which worker threads emitted when.
    pub fn absorb(&self, records: Vec<TraceRecord>) {
        if records.is_empty() {
            return;
        }
        let Some(inner) = &self.inner else {
            return;
        };
        let mut ring = inner.lock().expect("trace ring poisoned");
        for record in records {
            ring.append(record);
        }
    }

    /// Takes every retained record out of the ring, oldest first. The
    /// drop counter is *not* reset: [`TraceSink::dropped`] describes the
    /// ring's whole lifetime.
    pub fn drain(&self) -> Vec<TraceRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .lock()
                .expect("trace ring poisoned")
                .records
                .drain(..)
                .collect(),
        }
    }

    /// Copies the retained records without clearing the ring.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let ring = inner.lock().expect("trace ring poisoned");
                ring.records.iter().cloned().collect()
            }
        }
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.lock().expect("trace ring poisoned").dropped,
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.lock().expect("trace ring poisoned").records.len(),
        }
    }

    /// Whether nothing is retained (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = TraceCounters::new();
        a.add("frame", 1);
        a.add("frame", 1);
        a.add("packet", 10);
        assert_eq!(a.get("frame"), 2);
        assert_eq!(a.get("packet"), 10);
        assert_eq!(a.get("never"), 0);
        assert_eq!(a.total(), 12);

        let mut b = TraceCounters::new();
        b.add("frame", 1);
        b.add("stall", 1);
        a.merge(&b);
        assert_eq!(a.get("frame"), 3);
        assert_eq!(a.get("stall"), 1);
    }

    #[test]
    fn counters_display_sorted() {
        let mut c = TraceCounters::new();
        c.add("zebra", 1);
        c.add("alpha", 1);
        let text = c.to_string();
        let za = text.find("zebra").expect("zebra present");
        let al = text.find("alpha").expect("alpha present");
        assert!(al < za, "sorted by name");
    }

    #[test]
    fn disabled_sink_is_noop() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.emit(
            SimTime::ZERO,
            None,
            TraceEvent::Churn {
                node: 1,
                online: false,
            },
        );
        assert!(sink.is_empty());
        assert_eq!(sink.drain(), Vec::new());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn sink_ring_retains_and_evicts() {
        let sink = TraceSink::ring(2);
        let clone = sink.clone();
        for i in 0..3u64 {
            clone.emit(
                SimTime::from_secs(i),
                Some(i),
                TraceEvent::CdnPrefill { frames: i as u32 },
            );
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        let records = sink.drain();
        assert_eq!(records[0].at, SimTime::from_secs(1));
        assert_eq!(records[1].session, Some(2));
        assert!(sink.is_empty());
    }

    #[test]
    fn seq_is_assigned_at_ring_entry_and_survives_eviction() {
        let sink = TraceSink::ring(2);
        for i in 0..4u64 {
            sink.emit(
                SimTime::from_secs(i),
                None,
                TraceEvent::CdnPrefill { frames: i as u32 },
            );
        }
        let records = sink.drain();
        // Two were evicted; the survivors keep their entry-order seqs.
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(sink.dropped(), 2);
    }

    /// The ordering hazard the staging/absorb protocol exists to fix:
    /// two emitters racing on worker threads would interleave records in
    /// wall-clock completion order. Staging per emitter and absorbing in
    /// merge (batch-index) order must yield the order a sequential run
    /// would have produced — with `seq` assigned at merge, NOT at
    /// emission.
    #[test]
    fn interleaved_emission_is_reordered_by_merge_order_absorb() {
        let event = |dts_ms: u64| TraceEvent::ReorderHeadSkip {
            dts_ms,
            released: 0,
        };
        // Sequential reference: event A's records, then event B's.
        let reference = TraceSink::ring(16);
        for dts in [0, 1] {
            reference.emit(SimTime::from_secs(1), Some(10), event(dts));
        }
        for dts in [2, 3] {
            reference.emit(SimTime::from_secs(1), Some(11), event(dts));
        }

        // Sharded run: the two events execute concurrently and happen to
        // *finish* emitting in the interleaved order B, A, B, A. Each
        // stages into its own buffer, so the interleaving is invisible.
        let staged_a = TraceSink::staging();
        let staged_b = TraceSink::staging();
        staged_b.emit(SimTime::from_secs(1), Some(11), event(2));
        staged_a.emit(SimTime::from_secs(1), Some(10), event(0));
        staged_b.emit(SimTime::from_secs(1), Some(11), event(3));
        staged_a.emit(SimTime::from_secs(1), Some(10), event(1));

        // Merge in batch-index order: A before B.
        let merged = TraceSink::ring(16);
        merged.absorb(staged_a.drain());
        merged.absorb(staged_b.drain());

        assert_eq!(merged.drain(), reference.drain());
    }

    /// Had `seq` (or record order) been taken from emission instead of
    /// merge, the interleaving above would be observable. This pins the
    /// counterfactual so the invariant has a witness: absorbing in the
    /// wrong (completion) order really does produce a different stream.
    #[test]
    fn absorbing_out_of_batch_order_is_observable() {
        let event = |dts_ms: u64| TraceEvent::ReorderHeadSkip {
            dts_ms,
            released: 0,
        };
        let reference = TraceSink::ring(16);
        reference.emit(SimTime::ZERO, Some(10), event(0));
        reference.emit(SimTime::ZERO, Some(11), event(1));

        let staged_a = TraceSink::staging();
        let staged_b = TraceSink::staging();
        staged_a.emit(SimTime::ZERO, Some(10), event(0));
        staged_b.emit(SimTime::ZERO, Some(11), event(1));
        let wrong_order = TraceSink::ring(16);
        wrong_order.absorb(staged_b.drain());
        wrong_order.absorb(staged_a.drain());

        assert_ne!(wrong_order.drain(), reference.drain());
    }

    #[test]
    fn drain_keeps_the_lifetime_drop_count() {
        let sink = TraceSink::ring(2);
        for i in 0..5u64 {
            sink.emit(
                SimTime::from_secs(i),
                None,
                TraceEvent::CdnPrefill { frames: i as u32 },
            );
        }
        assert_eq!(sink.drain().len(), 2);
        // The counter describes the ring's lifetime, not one drain.
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn unbounded_sink_never_drops() {
        let sink = TraceSink::unbounded();
        for i in 0..10_000u64 {
            sink.emit(SimTime::ZERO, None, TraceEvent::CdnPrefill { frames: 0 });
            let _ = i;
        }
        assert_eq!(sink.len(), 10_000);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn absorb_into_disabled_sink_is_noop() {
        let staged = TraceSink::staging();
        staged.emit(SimTime::ZERO, None, TraceEvent::CdnPrefill { frames: 1 });
        let disabled = TraceSink::disabled();
        disabled.absorb(staged.drain());
        assert!(disabled.is_empty());
    }

    #[test]
    fn event_kind_and_display() {
        let e = TraceEvent::ModeSwitch {
            from: "cdn",
            to: "multi",
            reason: "promotion",
        };
        assert_eq!(e.kind(), "mode_switch");
        assert_eq!(e.to_string(), "mode_switch cdn -> multi (promotion)");
    }
}
