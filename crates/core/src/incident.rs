//! Incident timelines: correlating fired SLO alerts with scripted
//! disruptions, scheduler demotions, and hedge activity.
//!
//! The paper's operational loop closes with postmortems: every
//! production incident is reconstructed as *injection → detection →
//! mitigation → resolution*. This module rebuilds that record from the
//! pieces a run already carries — the scripted-event schedule (the
//! ground-truth injections), the sealed-window alert stream
//! ([`rlive_sim::SloReport`]), the windowed obs registry, and the
//! adaptive scheduler's demotion history:
//!
//! - each scripted event opens an incident **span** at its injection
//!   window, running until the next injection (or the end of the run);
//! - alerts whose window falls inside the span are attributed to it;
//!   the first `FIRED` edge gives the **detection latency in windows**
//!   (the §7.1.2 detection-and-reaction measure);
//! - scheduler demotions and issued hedges inside the span quantify the
//!   mitigation response.
//!
//! Everything here is a pure function of already-deterministic inputs,
//! so incident tables are byte-identical across `--jobs` and
//! `--world-jobs` and safe for golden stdout.

use rlive_sim::obs::MetricRegistry;
use rlive_sim::slo::{AlertState, Severity, SloReport};
use rlive_workload::dsl::ScriptedEvent;
use std::collections::BTreeMap;

/// One reconstructed incident: a scripted injection and everything the
/// delivery system did about it.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Human-readable injection label, e.g.
    /// `mass_outage t=15s frac=0.60`.
    pub label: String,
    /// Window the injection landed in.
    pub injection_window: u64,
    /// Exclusive end of the attribution span (the next injection's
    /// window, or one past the last evaluated window).
    pub span_end: u64,
    /// Window of the first `FIRED` alert inside the span, if any.
    pub first_fire_window: Option<u64>,
    /// Detection latency in windows (`first_fire - injection`).
    pub detection_latency: Option<u64>,
    /// Highest severity among alerts fired inside the span.
    pub peak_severity: Option<Severity>,
    /// Window of the last `resolved` edge after the first fire, if the
    /// alerts cleared before the span (and run) ended.
    pub resolve_window: Option<u64>,
    /// `FIRED` edges attributed to the span.
    pub alerts_fired: u64,
    /// Scheduler demotions inside the span (adaptive policy only).
    pub demotions: u64,
    /// Hedged recovery attempts issued inside the span.
    pub hedges: u64,
}

/// The injection window of a scripted event under the registry's
/// window width.
fn injection_window(ev: &ScriptedEvent, obs: &MetricRegistry) -> u64 {
    let at = match ev {
        ScriptedEvent::MassOutage { at, .. }
        | ScriptedEvent::RegionalOutage { at, .. }
        | ScriptedEvent::ChurnStorm { at, .. } => *at,
    };
    obs.window_of(at)
}

/// Renders the injection label shown in incident tables.
fn injection_label(ev: &ScriptedEvent) -> String {
    match ev {
        ScriptedEvent::MassOutage { at, fraction, .. } => {
            format!(
                "mass_outage t={}s frac={fraction:.2}",
                at.as_millis() / 1000
            )
        }
        ScriptedEvent::RegionalOutage { at, region, .. } => {
            format!(
                "regional_outage t={}s region={region}",
                at.as_millis() / 1000
            )
        }
        ScriptedEvent::ChurnStorm { at, fraction, .. } => {
            format!(
                "churn_storm t={}s frac={fraction:.2}",
                at.as_millis() / 1000
            )
        }
    }
}

/// Reconstructs the incident table of one run (or a fleet fold whose
/// worlds shared the schedule).
///
/// `slo.windows` bounds the final span; `sched_demotions` comes from
/// [`crate::world::RunReport::sched_demotions`] (or the fleet sum).
/// Returns an empty table when the obs layer is disabled or nothing was
/// injected.
pub fn build_incidents(
    schedule: &[ScriptedEvent],
    slo: &SloReport,
    obs: &MetricRegistry,
    sched_demotions: &BTreeMap<u64, u64>,
) -> Vec<Incident> {
    if !obs.is_enabled() || schedule.is_empty() {
        return Vec::new();
    }
    // Injection windows in schedule order, then sorted so spans nest:
    // schedules are usually time-ordered already, but the DSL does not
    // promise it.
    let mut injections: Vec<(u64, String)> = schedule
        .iter()
        .map(|ev| (injection_window(ev, obs), injection_label(ev)))
        .collect();
    injections.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let hedges = obs.windowed_totals_where("hedges_issued", |_| true);
    let mut out = Vec::with_capacity(injections.len());
    for (i, (start, label)) in injections.iter().enumerate() {
        let span_end = injections
            .get(i + 1)
            .map(|(w, _)| *w)
            .unwrap_or_else(|| slo.windows.max(start + 1));
        let in_span = |w: u64| w >= *start && w < span_end;
        let fired: Vec<_> = slo
            .alerts
            .iter()
            .filter(|a| a.state == AlertState::Fired && in_span(a.window))
            .collect();
        let first_fire_window = fired.first().map(|a| a.window);
        let resolve_window = first_fire_window.and_then(|ff| {
            slo.alerts
                .iter()
                .filter(|a| a.state == AlertState::Resolved && a.window >= ff && in_span(a.window))
                .map(|a| a.window)
                .next_back()
        });
        out.push(Incident {
            label: label.clone(),
            injection_window: *start,
            span_end,
            first_fire_window,
            detection_latency: first_fire_window.map(|w| w - start),
            peak_severity: fired.iter().map(|a| a.severity).max(),
            resolve_window,
            alerts_fired: fired.len() as u64,
            demotions: sched_demotions
                .iter()
                .filter(|(w, _)| in_span(**w))
                .map(|(_, n)| *n)
                .sum(),
            hedges: hedges
                .iter()
                .filter(|(w, _)| in_span(**w))
                .map(|(_, n)| *n)
                .sum(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlive_sim::{SimDuration, SimTime};

    fn obs_1s() -> MetricRegistry {
        MetricRegistry::new(SimDuration::from_secs(1))
    }

    #[test]
    fn disabled_obs_or_empty_schedule_yields_no_incidents() {
        let slo = SloReport::default();
        let none = BTreeMap::new();
        assert!(build_incidents(&[], &slo, &obs_1s(), &none).is_empty());
        let schedule = [ScriptedEvent::MassOutage {
            at: SimTime::from_secs(15),
            duration: SimDuration::from_secs(20),
            fraction: 0.6,
        }];
        assert!(build_incidents(&schedule, &slo, &MetricRegistry::disabled(), &none).is_empty());
    }

    #[test]
    fn undetected_incident_has_no_latency() {
        let schedule = [ScriptedEvent::RegionalOutage {
            at: SimTime::from_secs(10),
            duration: SimDuration::from_secs(5),
            region: 3,
        }];
        let slo = SloReport {
            alerts: Vec::new(),
            windows: 30,
        };
        let incidents = build_incidents(&schedule, &slo, &obs_1s(), &BTreeMap::new());
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].label, "regional_outage t=10s region=3");
        assert_eq!(incidents[0].first_fire_window, None);
        assert_eq!(incidents[0].detection_latency, None);
        assert_eq!(incidents[0].peak_severity, None);
        assert_eq!(incidents[0].alerts_fired, 0);
    }
}
