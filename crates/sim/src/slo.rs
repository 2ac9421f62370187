//! Deterministic SLO / alerting engine over sealed observability
//! windows.
//!
//! The paper's operational story is detection-and-reaction: production
//! RLive watches windowed failure-rate telemetry and pages when a burn
//! persists. This module reproduces that layer for the simulator as a
//! pure function of the sealed window sequence:
//!
//! - [`SloRule`] — a declarative rule: a windowed ratio
//!   (`num / den`, with a minimum-denominator evidence floor) or a
//!   counter threshold, a breach direction, and burn-rate hysteresis
//!   (`burn_windows` consecutive breaches to fire, `clear_windows`
//!   consecutive clean windows to resolve) with a severity tier.
//! - [`SloEngine`] — feeds sealed windows
//!   ([`crate::obs::SealedWindow`], in ascending window order) through
//!   every rule's state machine and collects [`AlertEvent`]s.
//! - [`SloReport`] — the resulting alert stream; merges associatively
//!   in window order so fleet folds across `--jobs × --world-jobs` are
//!   byte-identical for any worker split.
//!
//! # Determinism rules
//!
//! The engine only ever sees **sealed** windows — windows the world
//! clock (and every shard) has advanced past — so its input is a pure
//! function of the seed. Rules are evaluated in rulebook order within a
//! window, and [`SloReport::merge`] is a stable window-ordered merge
//! (left operand first on ties), which makes the fleet fold exactly
//! associative. Windows with no evidence (a ratio denominator below the
//! rule's floor) hold both hysteresis streaks rather than counting as
//! clean or breaching; counter rules always have evidence (no events is
//! a real zero).

use crate::obs::SealedWindow;
use std::fmt;

/// Alert severity tier, ordered (`Critical` > `Warning`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Degradation worth watching.
    Warning,
    /// SLO-breaking; would page.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad`, not `write_str`: report tables rely on width flags.
        f.pad(match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        })
    }
}

/// Alert lifecycle edge carried by an [`AlertEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// The rule's burn streak reached `burn_windows`.
    Fired,
    /// The rule's clean streak reached `clear_windows` while active.
    Resolved,
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad`, not `write_str`: report tables rely on width flags.
        f.pad(match self {
            AlertState::Fired => "FIRED",
            AlertState::Resolved => "resolved",
        })
    }
}

/// What a rule measures in each sealed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// `num / den` over the window's counter totals. Windows whose
    /// denominator is below `min_den` carry no evidence: they hold both
    /// hysteresis streaks instead of resetting either.
    Ratio {
        /// Numerator counter name.
        num: &'static str,
        /// Denominator counter name.
        den: &'static str,
        /// Evidence floor for the denominator.
        min_den: u64,
    },
    /// The window total of one counter (0 when absent — always
    /// evidence).
    Counter {
        /// Counter name.
        name: &'static str,
    },
}

/// Which side of the threshold breaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Breach when the value exceeds the threshold.
    Above,
    /// Breach when the value falls below the threshold (e.g. scheduler
    /// candidate yield drying up).
    Below,
}

/// One declarative SLO rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloRule {
    /// Stable rule name (alert streams and reports key on it).
    pub name: &'static str,
    /// Severity tier of alerts this rule emits.
    pub severity: Severity,
    /// The windowed measurement.
    pub kind: RuleKind,
    /// Breach direction relative to `threshold`.
    pub direction: Direction,
    /// Breach threshold (strict inequality).
    pub threshold: f64,
    /// Consecutive breaching windows required to fire.
    pub burn_windows: u32,
    /// Consecutive clean windows required to resolve once fired.
    pub clear_windows: u32,
}

impl SloRule {
    /// The rule's value in one sealed window, or `None` when the window
    /// carries no evidence for it.
    pub fn value(&self, sw: &SealedWindow) -> Option<f64> {
        match self.kind {
            RuleKind::Counter { name } => Some(sw.total(name) as f64),
            RuleKind::Ratio { num, den, min_den } => {
                let d = sw.total(den);
                if d < min_den.max(1) {
                    None
                } else {
                    Some(sw.total(num) as f64 / d as f64)
                }
            }
        }
    }

    /// Whether a measured value breaches this rule.
    pub fn breaches(&self, value: f64) -> bool {
        match self.direction {
            Direction::Above => value > self.threshold,
            Direction::Below => value < self.threshold,
        }
    }
}

/// The default rulebook: the windowed failure regimes the paper (and
/// PLVER / AutoRec) reason about, phrased over the registry's counter
/// vocabulary. Thresholds are tuned for the storm worlds the `slo`
/// subcommand runs — strict enough to stay quiet in steady state, loose
/// enough that a scripted mass outage fires within a few windows.
pub fn default_rulebook() -> Vec<SloRule> {
    vec![
        SloRule {
            name: "recovery-failure-rate",
            severity: Severity::Critical,
            kind: RuleKind::Ratio {
                num: "recovery_failures",
                den: "recovery_outcomes",
                min_den: 8,
            },
            direction: Direction::Above,
            threshold: 0.12,
            burn_windows: 2,
            clear_windows: 3,
        },
        SloRule {
            name: "candidate-yield",
            severity: Severity::Warning,
            kind: RuleKind::Ratio {
                num: "scheduler_candidates",
                den: "scheduler_recommendations",
                min_den: 4,
            },
            direction: Direction::Below,
            threshold: 1.5,
            burn_windows: 3,
            clear_windows: 3,
        },
        SloRule {
            name: "deadline-blown",
            severity: Severity::Warning,
            kind: RuleKind::Counter {
                name: "recovery_deadline_blown",
            },
            direction: Direction::Above,
            threshold: 0.5,
            burn_windows: 1,
            clear_windows: 2,
        },
        SloRule {
            name: "hedge-cancel-ratio",
            severity: Severity::Warning,
            kind: RuleKind::Ratio {
                num: "hedge_cancelled_attempts",
                den: "hedge_attempts",
                min_den: 6,
            },
            direction: Direction::Above,
            threshold: 0.45,
            burn_windows: 2,
            clear_windows: 2,
        },
        SloRule {
            name: "reorder-stalls",
            severity: Severity::Warning,
            kind: RuleKind::Counter {
                name: "reorder_stalls",
            },
            direction: Direction::Above,
            threshold: 2.5,
            burn_windows: 2,
            clear_windows: 2,
        },
    ]
}

/// One alert lifecycle edge: a rule firing or resolving at a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertEvent {
    /// The sealed window the edge occurred in.
    pub window: u64,
    /// Window start in sim milliseconds.
    pub start_ms: u64,
    /// Rule name.
    pub rule: &'static str,
    /// Rule severity.
    pub severity: Severity,
    /// Fired or resolved.
    pub state: AlertState,
    /// The rule's measured value in that window.
    pub value: f64,
    /// The rule's threshold, for self-contained rendering.
    pub threshold: f64,
}

/// The alert stream of one world (or a fleet fold of several).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloReport {
    /// Alert edges in ascending window order (rulebook order within a
    /// window; operand order across a merge).
    pub alerts: Vec<AlertEvent>,
    /// Sealed windows evaluated (summed across worlds under merge).
    pub windows: u64,
}

impl SloReport {
    /// Alerts that fired (not resolutions).
    pub fn fired(&self) -> impl Iterator<Item = &AlertEvent> {
        self.alerts.iter().filter(|a| a.state == AlertState::Fired)
    }

    /// Stable window-ordered merge: the result is sorted by window, and
    /// among equal windows the left operand's events come first — which
    /// makes folding in spec order exactly associative.
    pub fn merge(&mut self, other: &SloReport) {
        if other.alerts.is_empty() {
            self.windows += other.windows;
            return;
        }
        let left = std::mem::take(&mut self.alerts);
        let mut merged = Vec::with_capacity(left.len() + other.alerts.len());
        let mut l = left.into_iter().peekable();
        let mut r = other.alerts.iter().copied().peekable();
        loop {
            match (l.peek(), r.peek()) {
                (Some(a), Some(b)) => {
                    if b.window < a.window {
                        merged.push(r.next().unwrap());
                    } else {
                        merged.push(l.next().unwrap());
                    }
                }
                (Some(_), None) => merged.push(l.next().unwrap()),
                (None, Some(_)) => merged.push(r.next().unwrap()),
                (None, None) => break,
            }
        }
        self.alerts = merged;
        self.windows += other.windows;
    }
}

/// Per-rule hysteresis state.
#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    breach_streak: u32,
    clean_streak: u32,
    active: bool,
}

/// The engine: rulebook + per-rule state machines, fed sealed windows in
/// ascending order.
#[derive(Debug, Clone)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    states: Vec<RuleState>,
    report: SloReport,
    last_window: Option<u64>,
}

impl SloEngine {
    /// An engine over the given rulebook.
    pub fn new(rules: Vec<SloRule>) -> SloEngine {
        let states = vec![RuleState::default(); rules.len()];
        SloEngine {
            rules,
            states,
            report: SloReport::default(),
            last_window: None,
        }
    }

    /// An engine over [`default_rulebook`].
    pub fn with_default_rules() -> SloEngine {
        SloEngine::new(default_rulebook())
    }

    /// The rulebook, in evaluation order.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Evaluates every rule against one sealed window. Windows must
    /// arrive in strictly ascending order.
    pub fn observe(&mut self, sw: &SealedWindow) {
        debug_assert!(
            self.last_window.is_none_or(|w| sw.window > w),
            "sealed windows must arrive in ascending order"
        );
        self.last_window = Some(sw.window);
        self.report.windows += 1;
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let Some(value) = rule.value(sw) else {
                // No evidence: hold both streaks. A quiet window must
                // neither extend a burn nor count toward resolution.
                continue;
            };
            if rule.breaches(value) {
                state.breach_streak += 1;
                state.clean_streak = 0;
            } else {
                state.clean_streak += 1;
                state.breach_streak = 0;
            }
            if !state.active && state.breach_streak >= rule.burn_windows {
                state.active = true;
                self.report.alerts.push(AlertEvent {
                    window: sw.window,
                    start_ms: sw.start_ms,
                    rule: rule.name,
                    severity: rule.severity,
                    state: AlertState::Fired,
                    value,
                    threshold: rule.threshold,
                });
            } else if state.active && state.clean_streak >= rule.clear_windows {
                state.active = false;
                self.report.alerts.push(AlertEvent {
                    window: sw.window,
                    start_ms: sw.start_ms,
                    rule: rule.name,
                    severity: rule.severity,
                    state: AlertState::Resolved,
                    value,
                    threshold: rule.threshold,
                });
            }
        }
    }

    /// Consumes the engine and returns the collected alert stream.
    /// Rules still active at the end of the run simply never emit a
    /// resolution — the incident layer reports them as unresolved.
    pub fn finish(self) -> SloReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn window(w: u64, counters: &[(&'static str, u64)]) -> SealedWindow {
        SealedWindow {
            window: w,
            start_ms: w * 1000,
            counters: counters.iter().copied().collect::<BTreeMap<_, _>>(),
        }
    }

    fn ratio_rule(burn: u32, clear: u32) -> SloRule {
        SloRule {
            name: "fail-rate",
            severity: Severity::Critical,
            kind: RuleKind::Ratio {
                num: "fail",
                den: "total",
                min_den: 4,
            },
            direction: Direction::Above,
            threshold: 0.5,
            burn_windows: burn,
            clear_windows: clear,
        }
    }

    #[test]
    fn burn_rate_fires_only_after_consecutive_breaches() {
        let mut engine = SloEngine::new(vec![ratio_rule(3, 2)]);
        // Two breaches, a clean window, then three breaches: the streak
        // reset at the boundary means only the second run fires.
        engine.observe(&window(0, &[("fail", 4), ("total", 4)]));
        engine.observe(&window(1, &[("fail", 4), ("total", 4)]));
        engine.observe(&window(2, &[("fail", 0), ("total", 4)]));
        engine.observe(&window(3, &[("fail", 4), ("total", 4)]));
        engine.observe(&window(4, &[("fail", 4), ("total", 4)]));
        engine.observe(&window(5, &[("fail", 4), ("total", 4)]));
        let report = engine.finish();
        assert_eq!(report.alerts.len(), 1);
        let alert = report.alerts[0];
        assert_eq!(alert.window, 5);
        assert_eq!(alert.state, AlertState::Fired);
        assert_eq!(alert.rule, "fail-rate");
        assert_eq!(report.windows, 6);
    }

    #[test]
    fn resolve_requires_consecutive_clean_windows() {
        let mut engine = SloEngine::new(vec![ratio_rule(1, 2)]);
        engine.observe(&window(0, &[("fail", 4), ("total", 4)])); // fires
        engine.observe(&window(1, &[("fail", 0), ("total", 4)])); // clean 1
        engine.observe(&window(2, &[("fail", 4), ("total", 4)])); // breach: reset
        engine.observe(&window(3, &[("fail", 0), ("total", 4)])); // clean 1
        engine.observe(&window(4, &[("fail", 0), ("total", 4)])); // clean 2: resolves
        let report = engine.finish();
        let states: Vec<AlertState> = report.alerts.iter().map(|a| a.state).collect();
        assert_eq!(states, vec![AlertState::Fired, AlertState::Resolved]);
        assert_eq!(report.alerts[1].window, 4);
        // No re-fire: the rule was already active during window 2.
        assert_eq!(report.fired().count(), 1);
    }

    #[test]
    fn no_evidence_windows_hold_both_streaks_at_the_boundary() {
        let mut engine = SloEngine::new(vec![ratio_rule(2, 2)]);
        // Breach, then a window below the evidence floor, then breach:
        // the empty window must not reset the burn streak, so the
        // second breach completes the burn and fires.
        engine.observe(&window(0, &[("fail", 4), ("total", 4)]));
        engine.observe(&window(1, &[("fail", 1), ("total", 2)])); // den < min_den
        engine.observe(&window(2, &[("fail", 4), ("total", 4)]));
        // Now active. Evidence-free windows must not count as clean.
        engine.observe(&window(3, &[]));
        engine.observe(&window(4, &[]));
        engine.observe(&window(5, &[("fail", 0), ("total", 4)]));
        engine.observe(&window(6, &[("fail", 0), ("total", 4)]));
        let report = engine.finish();
        let edges: Vec<(u64, AlertState)> =
            report.alerts.iter().map(|a| (a.window, a.state)).collect();
        assert_eq!(
            edges,
            vec![(2, AlertState::Fired), (6, AlertState::Resolved)]
        );
    }

    #[test]
    fn counter_rule_treats_missing_counter_as_zero_evidence() {
        let rule = SloRule {
            name: "stalls",
            severity: Severity::Warning,
            kind: RuleKind::Counter { name: "stalls" },
            direction: Direction::Above,
            threshold: 2.5,
            burn_windows: 1,
            clear_windows: 1,
        };
        let mut engine = SloEngine::new(vec![rule]);
        engine.observe(&window(0, &[("stalls", 3)])); // fires
        engine.observe(&window(1, &[])); // 0 stalls: resolves
        let report = engine.finish();
        let states: Vec<AlertState> = report.alerts.iter().map(|a| a.state).collect();
        assert_eq!(states, vec![AlertState::Fired, AlertState::Resolved]);
        assert_eq!(report.alerts[1].value, 0.0);
    }

    #[test]
    fn below_direction_fires_on_starvation() {
        let rule = SloRule {
            name: "yield",
            severity: Severity::Warning,
            kind: RuleKind::Ratio {
                num: "candidates",
                den: "recommendations",
                min_den: 2,
            },
            direction: Direction::Below,
            threshold: 1.5,
            burn_windows: 1,
            clear_windows: 1,
        };
        let mut engine = SloEngine::new(vec![rule]);
        engine.observe(&window(0, &[("candidates", 2), ("recommendations", 2)]));
        let report = engine.finish();
        assert_eq!(report.fired().count(), 1);
        assert_eq!(report.alerts[0].value, 1.0);
    }

    #[test]
    fn default_rulebook_names_are_unique() {
        let rules = default_rulebook();
        let mut names: Vec<&str> = rules.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rules.len());
    }
}
