//! Incident spans built from a scripted schedule, an alert stream and
//! scheduler demotions, through the public API only (moved out of
//! `incident.rs`).

use rlive::{build_incidents, ScriptedEvent};
use rlive_sim::obs::MetricRegistry;
use rlive_sim::slo::{AlertEvent, AlertState, Severity, SloReport};
use rlive_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

fn obs_1s() -> MetricRegistry {
    MetricRegistry::new(SimDuration::from_secs(1))
}

fn fired(window: u64, rule: &'static str, severity: Severity) -> AlertEvent {
    AlertEvent {
        window,
        start_ms: window * 1000,
        rule,
        severity,
        state: AlertState::Fired,
        value: 1.0,
        threshold: 0.5,
    }
}

fn resolved(window: u64, rule: &'static str) -> AlertEvent {
    AlertEvent {
        state: AlertState::Resolved,
        ..fired(window, rule, Severity::Warning)
    }
}

#[test]
fn detection_latency_and_span_attribution() {
    let schedule = [
        ScriptedEvent::MassOutage {
            at: SimTime::from_secs(15),
            duration: SimDuration::from_secs(20),
            fraction: 0.6,
        },
        ScriptedEvent::ChurnStorm {
            at: SimTime::from_secs(38),
            duration: SimDuration::from_secs(12),
            fraction: 0.4,
        },
    ];
    let slo = SloReport {
        alerts: vec![
            fired(17, "recovery-failure-rate", Severity::Critical),
            fired(18, "deadline-blown", Severity::Warning),
            resolved(30, "recovery-failure-rate"),
            fired(40, "reorder-stalls", Severity::Warning),
        ],
        windows: 60,
    };
    let demotions: BTreeMap<u64, u64> = [(16, 2), (39, 1)].into_iter().collect();
    let incidents = build_incidents(&schedule, &slo, &obs_1s(), &demotions);
    assert_eq!(incidents.len(), 2);
    let outage = &incidents[0];
    assert_eq!(outage.injection_window, 15);
    assert_eq!(outage.span_end, 38, "span runs to the next injection");
    assert_eq!(outage.first_fire_window, Some(17));
    assert_eq!(outage.detection_latency, Some(2));
    assert_eq!(outage.peak_severity, Some(Severity::Critical));
    assert_eq!(outage.resolve_window, Some(30));
    assert_eq!(outage.alerts_fired, 2);
    assert_eq!(outage.demotions, 2);
    let storm = &incidents[1];
    assert_eq!(storm.span_end, 60, "last span runs to the window count");
    assert_eq!(storm.detection_latency, Some(2));
    assert_eq!(storm.peak_severity, Some(Severity::Warning));
    assert_eq!(storm.resolve_window, None, "never cleared");
    assert_eq!(storm.demotions, 1);
}
