//! Behavioural coverage cataloguing over the trace stream.
//!
//! A scenario exercises the delivery system along dimensions that end
//! metrics flatten away: which [`TraceEvent`] kinds fired at all, which
//! client mode transitions occurred, which recovery outcomes (including
//! deadline-blown switches) were reached. [`CoverageCatalog`] folds a
//! trace stream into the *set* of behaviours it touched, so a scenario
//! fuzzer can ask "did this mutant reach anything new?" instead of
//! "did a mean move?".
//!
//! Everything here is set algebra over `&'static str` labels drawn from
//! the trace taxonomy, stored in `BTreeSet`s — iteration order, merge
//! results and the rendered matrix are deterministic by construction,
//! independent of the order records were ingested (the stream itself is
//! already a pure function of the seed; see [`TraceRecord::seq`]).

use crate::trace::{TraceEvent, TraceRecord};
use std::collections::BTreeSet;

/// The set of behaviours a trace stream touched, along three axes:
/// event kinds, client mode transitions (`from -> to`), and recovery
/// outcomes (action × success, plus deadline-blown actions).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageCatalog {
    /// Event kinds that fired at least once.
    kinds: BTreeSet<&'static str>,
    /// Observed client mode transitions as `(from, to)` pairs.
    transitions: BTreeSet<(&'static str, &'static str)>,
    /// Observed recovery outcomes as `(action, success)` pairs.
    recovery: BTreeSet<(&'static str, bool)>,
    /// Actions that blew their recovery deadline at least once.
    deadline_blown: BTreeSet<&'static str>,
}

impl CoverageCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record into the catalog.
    pub fn ingest(&mut self, record: &TraceRecord) {
        self.kinds.insert(record.event.kind());
        match &record.event {
            TraceEvent::ModeSwitch { from, to, .. } => {
                self.transitions.insert((from, to));
            }
            TraceEvent::RecoveryOutcome {
                action, success, ..
            } => {
                self.recovery.insert((action, *success));
            }
            TraceEvent::RecoveryDeadlineBlown { action, .. } => {
                self.deadline_blown.insert(action);
            }
            _ => {}
        }
    }

    /// Folds a whole stream.
    pub fn ingest_all(&mut self, records: &[TraceRecord]) {
        for r in records {
            self.ingest(r);
        }
    }

    /// Builds a catalog from a stream.
    pub fn from_records(records: &[TraceRecord]) -> Self {
        let mut c = CoverageCatalog::new();
        c.ingest_all(records);
        c
    }

    /// Set union with another catalog.
    pub fn merge(&mut self, other: &CoverageCatalog) {
        self.kinds.extend(&other.kinds);
        self.transitions.extend(&other.transitions);
        self.recovery.extend(&other.recovery);
        self.deadline_blown.extend(&other.deadline_blown);
    }

    /// Total coverage points across all axes.
    pub fn len(&self) -> usize {
        self.kinds.len() + self.transitions.len() + self.recovery.len() + self.deadline_blown.len()
    }

    /// Whether nothing was covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of points in `self` that `other` does not have — the
    /// fuzzer's "did this mutant reach anything new?" query.
    pub fn new_points_vs(&self, other: &CoverageCatalog) -> usize {
        self.kinds.difference(&other.kinds).count()
            + self.transitions.difference(&other.transitions).count()
            + self.recovery.difference(&other.recovery).count()
            + self
                .deadline_blown
                .difference(&other.deadline_blown)
                .count()
    }

    /// Whether a point (by rendered label) is covered.
    pub fn covers(&self, label: &str) -> bool {
        self.labels().iter().any(|l| l == label)
    }

    /// Event kinds covered.
    pub fn kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.kinds.iter().copied()
    }

    /// Every covered point as a deterministic, human-readable label:
    /// `kind:*`, `mode:from->to`, `recovery:action:ok|fail`,
    /// `deadline:action` — sorted within each axis, axes in that order.
    /// This is the row space of the fuzz report's coverage matrix.
    pub fn labels(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len());
        for k in &self.kinds {
            out.push(format!("kind:{k}"));
        }
        for (from, to) in &self.transitions {
            out.push(format!("mode:{from}->{to}"));
        }
        for (action, success) in &self.recovery {
            out.push(format!(
                "recovery:{action}:{}",
                if *success { "ok" } else { "fail" }
            ));
        }
        for action in &self.deadline_blown {
            out.push(format!("deadline:{action}"));
        }
        out
    }

    /// Per-axis point counts: (kinds, transitions, recovery outcomes,
    /// deadline-blown actions).
    pub fn axis_counts(&self) -> (usize, usize, usize, usize) {
        (
            self.kinds.len(),
            self.transitions.len(),
            self.recovery.len(),
            self.deadline_blown.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn record(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq: 0,
            at: SimTime::ZERO,
            session: None,
            event,
        }
    }

    #[test]
    fn ingest_catalogues_all_three_axes() {
        let mut c = CoverageCatalog::new();
        c.ingest(&record(TraceEvent::ModeSwitch {
            from: "cdn",
            to: "multi",
            reason: "promotion",
        }));
        c.ingest(&record(TraceEvent::RecoveryOutcome {
            dts_ms: 1,
            action: "nack",
            success: false,
        }));
        c.ingest(&record(TraceEvent::RecoveryDeadlineBlown {
            dts_ms: 2,
            action: "cdn_switch",
        }));
        c.ingest(&record(TraceEvent::CdnPrefill { frames: 3 }));
        assert_eq!(c.axis_counts(), (4, 1, 1, 1));
        assert_eq!(c.len(), 7);
        assert!(c.covers("kind:mode_switch"));
        assert!(c.covers("mode:cdn->multi"));
        assert!(c.covers("recovery:nack:fail"));
        assert!(c.covers("deadline:cdn_switch"));
        assert!(!c.covers("recovery:nack:ok"));
    }

    #[test]
    fn duplicate_points_do_not_grow_the_set() {
        let mut c = CoverageCatalog::new();
        for _ in 0..5 {
            c.ingest(&record(TraceEvent::Churn {
                node: 9,
                online: false,
            }));
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn merge_is_union_and_new_points_counts_the_difference() {
        let mut a = CoverageCatalog::new();
        a.ingest(&record(TraceEvent::CdnPrefill { frames: 1 }));
        let mut b = CoverageCatalog::new();
        b.ingest(&record(TraceEvent::CdnPrefill { frames: 1 }));
        b.ingest(&record(TraceEvent::ModeSwitch {
            from: "multi",
            to: "cdn",
            reason: "fallback",
        }));
        assert_eq!(b.new_points_vs(&a), 2); // mode_switch kind + the pair
        assert_eq!(a.new_points_vs(&b), 0);
        a.merge(&b);
        assert_eq!(a.new_points_vs(&b), 0);
        assert_eq!(b.new_points_vs(&a), 0);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn labels_are_sorted_and_stable() {
        let mut c = CoverageCatalog::new();
        c.ingest(&record(TraceEvent::SessionDepart {
            frames_played: 0,
            rebuffer_events: 0,
        }));
        c.ingest(&record(TraceEvent::CdnPrefill { frames: 0 }));
        assert_eq!(c.labels(), vec!["kind:cdn_prefill", "kind:session_depart"]);
        assert!(CoverageCatalog::new().is_empty());
    }
}
