//! Boundary pins of the recovery model: where a blown switch deadline
//! turns into certain failure, which trace event calls a doomed frame
//! out, what the dedicated-latency CDF returns at its edges, and how the
//! racing policy widens and caps its hedges. They use only the public
//! API of `rlive_data::recovery`.

use rlive_data::recovery::{
    Decision, FrameState, QoeEdfPolicy, RacingPolicy, RecoveryAction, RecoveryConfig,
    RecoveryDecider, RecoveryPolicy, RecoveryStats,
};
use rlive_media::frame::FrameType;
use rlive_sim::rng::EmpiricalCdf;
use rlive_sim::trace::{TraceEvent, TraceSink};
use rlive_sim::{SimDuration, SimTime};
use std::sync::Arc;

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
fn blown_switch_deadline_is_certain_failure_at_the_boundary() {
    let d = decider();
    // An EDF that claims probability mass at zero latency: without
    // the explicit blown-deadline branch, a saturated zero budget
    // would read `1 - cdf(0) = 0.5` — "escalate with zero budget" —
    // instead of certain failure.
    let mut stats = RecoveryStats::default();
    stats.dedicated_latency = Arc::new(EmpiricalCdf::from_points(&[(0.0, 0.5), (100.0, 1.0)]));
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
    let mut policy = QoeEdfPolicy::new(RecoveryConfig::default());
    let plans = policy.plan(&frames, &stats, &[], &sink, SimTime::from_secs(1), 42);
    let decisions: Vec<Decision> = plans.iter().map(|p| p.decision.clone()).collect();
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
