//! Property-based tests of the simulation substrate invariants.

use proptest::prelude::*;
use rlive_sim::link::{Link, LinkConfig, TxOutcome};
use rlive_sim::metrics::{Percentiles, Summary};
use rlive_sim::obs::{top_ratio_windows, WindowRatio};
use rlive_sim::rng::EmpiricalCdf;
use rlive_sim::slo::{AlertEvent, AlertState, Severity, SloReport};
use rlive_sim::trace::TraceEvent;
use rlive_sim::{EventQueue, SimDuration, SimRng, SimTime};

/// `SimDuration::from_secs_f64` as it was written with `f64::round`.
fn micros_by_round(s: f64) -> u64 {
    if s <= 0.0 || !s.is_finite() {
        return 0;
    }
    (s * 1e6).round() as u64
}

/// Rounding to the microsecond agrees with `f64::round` on a million
/// bit patterns, and on halves of microseconds and their neighbours
/// from 0 to 2^54 µs, where the fraction vanishes.
#[test]
fn from_secs_f64_rounds_like_f64_round() {
    let mut rng = SimRng::new(2026);
    for _ in 0..1_000_000 {
        let bits = f64::from_bits(rng.next_u64());
        let whole = (rng.next_u64() >> (10 + rng.below(54))) as f64;
        let half = whole + 0.5;
        for s in [bits, half.next_down(), half, half.next_up(), whole]
            .into_iter()
            .flat_map(|us| [us / 1e6, us * 1e-6])
        {
            assert_eq!(
                SimDuration::from_secs_f64(s).as_micros(),
                micros_by_round(s),
                "{s:e} s"
            );
        }
    }
    for s in [
        f64::MAX,
        1.8e13,
        u64::MAX as f64 / 1e6,
        f64::MIN_POSITIVE,
        5e-324,
    ] {
        assert_eq!(
            SimDuration::from_secs_f64(s).as_micros(),
            micros_by_round(s),
            "{s:e} s"
        );
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, whatever the
    /// schedule order, and ties preserve scheduling order.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_seq_at_time: Option<usize> = None;
        while let Some((at, seq)) = q.pop() {
            prop_assert!(at >= last_time);
            if at == last_time {
                if let Some(prev) = last_seq_at_time {
                    if times[prev] == times[seq] {
                        prop_assert!(seq > prev, "FIFO broken within an instant");
                    }
                }
            }
            last_time = at;
            last_seq_at_time = Some(seq);
        }
        prop_assert!(q.is_empty());
    }

    /// Scheduling interleaved with peeks, pops and drains agrees with a
    /// plain model of the pending set: pops and peeks follow (time,
    /// schedule order), drains return the pending events in schedule
    /// order, and `len` tracks all of it.
    #[test]
    fn event_queue_matches_model(ops in prop::collection::vec((0u8..6, 0u64..1_000), 1..200)) {
        let mut q = EventQueue::new();
        let mut scheduled = 0;
        // id (= schedule order) -> effective time, while pending.
        let mut pending = std::collections::BTreeMap::new();
        for (op, x) in ops {
            let head = pending.iter().min_by_key(|&(&id, &at)| (at, id)).map(|(&id, &at)| (at, id));
            match op {
                0 | 1 => {
                    let id = scheduled;
                    scheduled += 1;
                    q.schedule(SimTime::from_micros(x), id);
                    pending.insert(id, SimTime::from_micros(x).max(q.now()));
                }
                2 => prop_assert_eq!(q.peek().map(|(at, &id)| (at, id)), head),
                3 | 4 => {
                    prop_assert_eq!(q.pop(), head);
                    if let Some((_, id)) = head {
                        pending.remove(&id);
                    }
                }
                5 => {
                    let expected: Vec<_> = pending.iter().map(|(&id, &at)| (at, id)).collect();
                    prop_assert_eq!(q.drain_ordered(), expected);
                    pending.clear();
                }
                _ => {}
            }
            prop_assert_eq!(q.len(), pending.len());
        }
    }

    /// A FIFO link delivers packets in send order (no reordering within
    /// one link) and queueing delay never goes negative.
    #[test]
    fn link_is_fifo(sizes in prop::collection::vec(64usize..1_500, 1..100)) {
        let cfg = LinkConfig {
            bandwidth_bps: 5_000_000,
            propagation: SimDuration::from_millis(10),
            max_queue_delay: SimDuration::from_secs(60),
            loss_good: 0.0,
            loss_bad: 0.0,
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            jitter_episode_mean_gap: SimDuration::ZERO,
            jitter_episode_mean_len: SimDuration::ZERO,
            jitter_peak: SimDuration::ZERO,
        };
        let mut link = Link::new(cfg, SimRng::new(1));
        let mut last = SimTime::ZERO;
        for (i, &sz) in sizes.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            match link.transmit(now, sz) {
                TxOutcome::Delivered(at) => {
                    prop_assert!(at >= last, "reordered delivery");
                    prop_assert!(at >= now, "delivery before send");
                    last = at;
                }
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }

    /// Percentile quantiles are monotone in q and bounded by min/max.
    #[test]
    fn percentiles_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut p = Percentiles::new();
        let mut s = Summary::new();
        for &x in &samples {
            p.add(x);
            s.add(x);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = p.quantile(i as f64 / 20.0);
            prop_assert!(q >= last - 1e-9);
            prop_assert!(q >= s.min() - 1e-9 && q <= s.max() + 1e-9);
            last = q;
        }
        prop_assert!((p.quantile(0.0) - s.min()).abs() < 1e-9);
        prop_assert!((p.quantile(1.0) - s.max()).abs() < 1e-9);
    }

    /// Summary::merge is equivalent to adding all samples to one summary.
    #[test]
    fn summary_merge_equivalence(
        a in prop::collection::vec(-1e3f64..1e3, 0..100),
        b in prop::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut all = Summary::new();
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &a {
            all.add(x);
            left.add(x);
        }
        for &x in &b {
            all.add(x);
            right.add(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        if all.count() > 0 {
            prop_assert!((left.mean() - all.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - all.variance()).abs() < 1e-3);
        }
    }

    /// EmpiricalCdf: quantile and cdf are inverse-ish and bounded.
    #[test]
    fn empirical_cdf_inverse(qs in prop::collection::vec(0.0f64..1.0, 1..50)) {
        let cdf = EmpiricalCdf::from_points(&[(1.0, 0.0), (5.0, 0.4), (20.0, 0.9), (100.0, 1.0)]);
        for &q in &qs {
            let v = cdf.quantile(q);
            prop_assert!((1.0..=100.0).contains(&v));
            let back = cdf.cdf(v);
            prop_assert!((back - q).abs() < 1e-6, "q {q} -> v {v} -> {back}");
        }
    }

    /// The RNG's bounded integer sampler is always in range.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }
}

#[test]
fn all_kinds_matches_the_kind_mapping() {
    // One witness per variant, mapped through kind(): the constant
    // and the mapping must agree, in order.
    let witnesses = [
        TraceEvent::SchedulerRecommendation {
            stream: 0,
            substream: 0,
            candidates: 0,
            service_time_ms: 0.0,
        },
        TraceEvent::AdviserCostTrigger {
            node: 0,
            node_util: 0.0,
            stream_util: 0.0,
        },
        TraceEvent::AdviserQosTrigger {
            node: 0,
            outliers: 0,
        },
        TraceEvent::RecoveryDecision {
            dts_ms: 0,
            action: "a",
            loss: 0.0,
            failure_probability: 0.0,
        },
        TraceEvent::ReorderHeadSkip {
            dts_ms: 0,
            released: 0,
        },
        TraceEvent::Churn {
            node: 0,
            online: true,
        },
        TraceEvent::ModeSwitch {
            from: "a",
            to: "b",
            reason: "r",
        },
        TraceEvent::SessionJoin {
            stream: 0,
            group: "g",
            mode: "m",
        },
        TraceEvent::SessionDepart {
            frames_played: 0,
            rebuffer_events: 0,
        },
        TraceEvent::CdnPrefill { frames: 0 },
        TraceEvent::MultiSourcePromotion {
            granted: true,
            relays: 0,
        },
        TraceEvent::RecoveryOutcome {
            dts_ms: 0,
            action: "a",
            success: true,
        },
        TraceEvent::RecoveryDeadlineBlown {
            dts_ms: 0,
            action: "a",
        },
        TraceEvent::HedgeIssued {
            dts_ms: 0,
            fanout: 2,
        },
        TraceEvent::HedgeCancelled {
            dts_ms: 0,
            remaining: 1,
        },
        TraceEvent::HedgeWon {
            dts_ms: 0,
            attempt: 0,
        },
    ];
    assert_eq!(witnesses.len(), TraceEvent::ALL_KINDS.len());
    for (w, expect) in witnesses.iter().zip(TraceEvent::ALL_KINDS) {
        assert_eq!(w.kind(), expect);
    }
}

#[test]
fn empty_denominator_window_excluded_from_ratio_ranking() {
    // Window 1 is a real spike (2/2 failures); window 2 has a
    // numerator artifact but zero denominator (no evidence). The
    // ranking must surface the spike and skip the 0-den window
    // entirely instead of comparing it as rate 0.0.
    let windows = [
        WindowRatio {
            window: 0,
            start_ms: 0,
            num: 0,
            den: 4,
        },
        WindowRatio {
            window: 1,
            start_ms: 1000,
            num: 2,
            den: 2,
        },
        WindowRatio {
            window: 2,
            start_ms: 2000,
            num: 1,
            den: 0,
        },
    ];
    assert!(!windows[2].has_samples());
    let top = top_ratio_windows(&windows, 3);
    assert_eq!(
        top.iter().map(|w| w.window).collect::<Vec<_>>(),
        vec![1, 0],
        "0-den window must not appear in the ranking"
    );
    // Even when k would admit it, the empty window stays out.
    let top1 = top_ratio_windows(&windows, 1);
    assert_eq!(top1.len(), 1);
    assert_eq!(top1[0].window, 1);
    // All-empty input ranks to nothing.
    assert!(top_ratio_windows(
        &[WindowRatio {
            window: 5,
            start_ms: 5000,
            num: 0,
            den: 0,
        }],
        2
    )
    .is_empty());
}

#[test]
fn report_merge_is_window_ordered_stable_and_associative() {
    let ev = |window: u64, rule: &'static str| AlertEvent {
        window,
        start_ms: window * 1000,
        rule,
        severity: Severity::Warning,
        state: AlertState::Fired,
        value: 1.0,
        threshold: 0.5,
    };
    let a = SloReport {
        alerts: vec![ev(1, "a1"), ev(5, "a5")],
        windows: 6,
    };
    let b = SloReport {
        alerts: vec![ev(1, "b1"), ev(3, "b3")],
        windows: 6,
    };
    let c = SloReport {
        alerts: vec![ev(5, "c5")],
        windows: 6,
    };
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left, right);
    assert_eq!(
        left.alerts.iter().map(|e| e.rule).collect::<Vec<_>>(),
        vec!["a1", "b1", "b3", "a5", "c5"],
        "sorted by window, left operand first on ties"
    );
    assert_eq!(left.windows, 18);
}
