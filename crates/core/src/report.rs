//! Human-readable formatting of run reports.
//!
//! Examples and ad-hoc experiments all want the same summary blocks;
//! this module renders a [`RunReport`] (or one
//! group of it) into aligned text without every caller hand-rolling
//! `println!` tables.

use crate::incident::Incident;
use crate::qoe::GroupQoe;
use crate::world::RunReport;
use rlive_sim::obs::{MetricRegistry, WindowRatio};
use rlive_sim::slo::{Direction, RuleKind, SloReport, SloRule};
use std::fmt::Write;

/// Renders the QoE block of one group.
pub fn format_qoe(title: &str, qoe: &GroupQoe) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== QoE: {title} ===");
    let _ = writeln!(out, "views                    {}", qoe.views);
    let _ = writeln!(out, "viewers                  {}", qoe.viewers);
    let _ = writeln!(out, "watch time               {:.0} s", qoe.watch_secs);
    let _ = writeln!(
        out,
        "rebuffer events /100s    {:.2}",
        qoe.rebuffers_per_100s.mean()
    );
    let _ = writeln!(
        out,
        "rebuffer ms /100s        {:.0}",
        qoe.rebuffer_ms_per_100s.mean()
    );
    let _ = writeln!(
        out,
        "skipped frames /100s     {:.2}",
        qoe.skips_per_100s.mean()
    );
    let _ = writeln!(
        out,
        "mean bitrate             {:.2} Mbps",
        qoe.bitrate_bps.mean() / 1e6
    );
    let _ = writeln!(
        out,
        "mean E2E latency         {:.0} ms",
        qoe.e2e_latency_ms.mean()
    );
    let _ = writeln!(out, "CDN fallbacks            {}", qoe.cdn_fallbacks);
    out
}

/// Renders the traffic block of one group.
pub fn format_traffic(title: &str, report: &RunReport, dedicated_unit_cost: f64) -> String {
    let t = &report.test_traffic;
    let mut out = String::new();
    let _ = writeln!(out, "=== Traffic: {title} ===");
    let _ = writeln!(
        out,
        "dedicated serving        {:.1} MB",
        t.dedicated_serving as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "dedicated backhaul       {:.1} MB",
        t.dedicated_backhaul as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "best-effort serving      {:.1} MB",
        t.best_effort_serving as f64 / 1e6
    );
    if let Some(g) = t.expansion_rate() {
        let _ = writeln!(out, "aggregate expansion γ    {g:.2}");
    }
    let _ = writeln!(
        out,
        "equivalent traffic       {:.1} MB-units",
        t.equivalent_traffic(dedicated_unit_cost) / 1e6
    );
    out
}

/// Renders the control-plane block.
pub fn format_control_plane(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Control plane ===");
    let _ = writeln!(
        out,
        "scheduler requests       {}",
        report.scheduler_requests
    );
    let _ = writeln!(
        out,
        "invalid candidates       {:.1} %",
        report.invalid_candidate_fraction * 100.0
    );
    let lat = &report.scheduler_latency_ms;
    if lat.len() > 90 {
        let _ = writeln!(out, "recommendation P50       {:.1} ms", lat[50]);
        let _ = writeln!(out, "recommendation P90       {:.1} ms", lat[90]);
    }
    out
}

/// Renders the summary block of a windowed metric registry: window
/// width, ingest volume, and run-wide totals of every counter series
/// (one line per metric name, labels folded together).
///
/// The output is a pure function of the registry, which is itself a
/// pure function of the seed, so this text is safe for golden stdout.
pub fn format_obs_summary(reg: &MetricRegistry) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Observability: summary ===");
    let _ = writeln!(out, "window width             {} ms", reg.window_ms());
    let _ = writeln!(out, "trace records ingested   {}", reg.records());
    let _ = writeln!(out, "series                   {}", reg.series_count());
    for name in reg.counter_names() {
        let _ = writeln!(out, "  {:<28} {}", name, reg.counter_total(name));
    }
    if reg.skipped_samples() > 0 {
        let _ = writeln!(out, "skipped samples          {}", reg.skipped_samples());
    }
    out
}

/// Renders the top-`k` windows of a ratio series, ranked by rate
/// descending with ties broken toward the earlier window (so the
/// ordering is total and deterministic). Windows with an all-zero
/// denominator carry no evidence and are excluded from the ranking
/// (see [`rlive_sim::obs::top_ratio_windows`]). Keeps the integer
/// numerator/denominator next to the rendered rate so readers can judge
/// how well-supported each window's ratio is.
pub fn format_obs_windows(title: &str, windows: &[WindowRatio], k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Observability: {title} (top {k}) ===");
    let ranked = rlive_sim::obs::top_ratio_windows(windows, k);
    if ranked.is_empty() {
        let _ = writeln!(out, "(no windows)");
        return out;
    }
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>8} {:>8} {:>8}",
        "window", "start_ms", "num", "den", "rate"
    );
    for w in ranked {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>8} {:>8} {:>8.4}",
            w.window,
            w.start_ms,
            w.num,
            w.den,
            w.rate()
        );
    }
    out
}

/// Renders the rulebook table: one line per rule with its measurement,
/// breach condition, and hysteresis. Pure function of the rulebook, so
/// safe for golden stdout.
pub fn format_slo_rules(rules: &[SloRule]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== SLO rulebook ===");
    for r in rules {
        let measure = match r.kind {
            RuleKind::Ratio { num, den, min_den } => {
                format!("{num}/{den} (min_den {min_den})")
            }
            RuleKind::Counter { name } => format!("count({name})"),
        };
        let dir = match r.direction {
            Direction::Above => '>',
            Direction::Below => '<',
        };
        let _ = writeln!(
            out,
            "{:<22} {:<9} {:<52} {} {:<6} burn {} clear {}",
            r.name, r.severity, measure, dir, r.threshold, r.burn_windows, r.clear_windows
        );
    }
    out
}

/// Renders the alert log: every fire/resolve edge in window order, plus
/// the evaluated-window count. Deterministic across `--jobs` and
/// `--world-jobs` because the alert stream merges associatively in
/// window order.
pub fn format_slo_alerts(slo: &SloReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== SLO alert log ===");
    let _ = writeln!(out, "windows evaluated        {}", slo.windows);
    let _ = writeln!(out, "alerts fired             {}", slo.fired().count());
    if slo.alerts.is_empty() {
        let _ = writeln!(out, "(no alerts)");
        return out;
    }
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:<22} {:<9} {:<9} {:>8} {:>8}",
        "window", "start_ms", "rule", "severity", "state", "value", "thresh"
    );
    for a in &slo.alerts {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:<22} {:<9} {:<9} {:>8.4} {:>8.4}",
            a.window, a.start_ms, a.rule, a.severity, a.state, a.value, a.threshold
        );
    }
    out
}

/// Renders the incident table built by
/// [`crate::incident::build_incidents`]: one line per scripted
/// injection with its detection latency (in windows), peak severity,
/// resolution, and the mitigation counters attributed to its span.
pub fn format_incidents(incidents: &[Incident]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Incident timeline ===");
    if incidents.is_empty() {
        let _ = writeln!(out, "(no scripted incidents)");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<34} {:>6} {:>6} {:>7} {:>8} {:>8} {:>6} {:>9} {:>7}",
        "injection", "window", "fire", "latency", "peak", "resolve", "fired", "demotions", "hedges"
    );
    for i in incidents {
        let opt = |v: Option<u64>| v.map(|w| w.to_string()).unwrap_or_else(|| "-".into());
        let peak = i
            .peak_severity
            .map(|s| s.to_string())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<34} {:>6} {:>6} {:>7} {:>8} {:>8} {:>6} {:>9} {:>7}",
            i.label,
            i.injection_window,
            opt(i.first_fire_window),
            opt(i.detection_latency),
            peak,
            opt(i.resolve_window),
            i.alerts_fired,
            i.demotions,
            i.hedges
        );
    }
    out
}

/// Renders everything: QoE of both groups (when they differ), traffic,
/// control plane, and event counters.
pub fn format_full(report: &RunReport, dedicated_unit_cost: f64) -> String {
    let mut out = String::new();
    if report.control_qoe.views > 0 {
        out.push_str(&format_qoe("control", &report.control_qoe));
        out.push('\n');
    }
    out.push_str(&format_qoe("test", &report.test_qoe));
    out.push('\n');
    out.push_str(&format_traffic("test", report, dedicated_unit_cost));
    out.push('\n');
    out.push_str(&format_control_plane(report));
    out.push('\n');
    out.push_str("=== Simulator event counts ===\n");
    let _ = write!(out, "{}", report.event_counts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeliveryMode, SystemConfig};
    use crate::world::{GroupPolicy, World};
    use rlive_sim::SimDuration;
    use rlive_workload::scenario::Scenario;

    fn small_report() -> RunReport {
        let mut s = Scenario::evening_peak().scaled(0.05);
        s.duration = SimDuration::from_secs(40);
        s.streams = 2;
        let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
        cfg.multi_source_after = SimDuration::from_secs(5);
        cfg.popularity_threshold = 1;
        cfg.cdn_edge_mbps = 80;
        World::new(s, cfg, GroupPolicy::uniform(DeliveryMode::RLive), 5).run()
    }

    #[test]
    fn full_report_contains_all_sections() {
        let r = small_report();
        let text = format_full(&r, 1.35);
        for needle in [
            "=== QoE: test ===",
            "=== Traffic: test ===",
            "=== Control plane ===",
            "=== Simulator event counts ===",
            "views",
            "scheduler requests",
            "player_tick",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn qoe_block_formats_numbers() {
        let r = small_report();
        let text = format_qoe("test", &r.test_qoe);
        assert!(text.contains("Mbps"));
        assert!(text.lines().count() >= 9);
    }

    #[test]
    fn obs_summary_lists_counter_totals() {
        let mut s = Scenario::evening_peak().scaled(0.05);
        s.duration = SimDuration::from_secs(40);
        s.streams = 2;
        let mut cfg = SystemConfig::for_mode(DeliveryMode::RLive);
        cfg.multi_source_after = SimDuration::from_secs(5);
        cfg.popularity_threshold = 1;
        cfg.cdn_edge_mbps = 80;
        cfg.obs_window_ms = 1000;
        let r = World::new(s, cfg, GroupPolicy::uniform(DeliveryMode::RLive), 5).run();
        let text = format_obs_summary(&r.obs);
        assert!(text.contains("=== Observability: summary ==="));
        assert!(text.contains("window width             1000 ms"));
        assert!(
            text.contains("session_joins"),
            "counter totals listed:\n{text}"
        );
        assert!(
            !text.contains("warning:"),
            "unbounded sink must not drop:\n{text}"
        );
    }

    #[test]
    fn obs_windows_table_ranks_by_rate_then_window() {
        use rlive_sim::obs::WindowRatio;
        let windows = [
            WindowRatio {
                window: 0,
                start_ms: 0,
                num: 1,
                den: 2,
            },
            WindowRatio {
                window: 1,
                start_ms: 1000,
                num: 3,
                den: 3,
            },
            WindowRatio {
                window: 2,
                start_ms: 2000,
                num: 2,
                den: 2,
            },
        ];
        let text = format_obs_windows("recovery failure rate", &windows, 2);
        let w1 = text.find("1000").expect("window 1 shown");
        let w2 = text.find("2000").expect("tie broken toward earlier window");
        assert!(w1 < w2, "rate-1.0 windows in index order:\n{text}");
        assert!(!text.contains("  0.5000"), "top-2 cut drops the 0.5 window");
        assert!(format_obs_windows("empty", &[], 3).contains("(no windows)"));
    }

    #[test]
    fn obs_windows_table_skips_empty_denominator_windows() {
        use rlive_sim::obs::WindowRatio;
        // A 0/0 window right next to a real spike: it must neither rank
        // nor render — it is "no data", not "rate 0.0".
        let windows = [
            WindowRatio {
                window: 0,
                start_ms: 0,
                num: 0,
                den: 0,
            },
            WindowRatio {
                window: 1,
                start_ms: 1000,
                num: 3,
                den: 4,
            },
        ];
        let text = format_obs_windows("recovery failure rate", &windows, 5);
        assert!(text.contains("0.7500"), "spike window rendered:\n{text}");
        assert!(
            !text.lines().any(|l| l.trim_start().starts_with("0 ")),
            "0-den window leaked into the table:\n{text}"
        );
        // All windows empty-den → same rendering as no windows at all.
        let all_empty = [WindowRatio {
            window: 2,
            start_ms: 2000,
            num: 0,
            den: 0,
        }];
        assert!(format_obs_windows("x", &all_empty, 3).contains("(no windows)"));
    }

    #[test]
    fn slo_blocks_render_rules_alerts_and_incidents() {
        use crate::incident::Incident;
        use rlive_sim::slo::{default_rulebook, AlertEvent, AlertState, Severity, SloReport};
        let rules = format_slo_rules(&default_rulebook());
        assert!(rules.contains("=== SLO rulebook ==="));
        assert!(rules.contains("recovery-failure-rate"));
        assert!(rules.contains("recovery_failures/recovery_outcomes"));
        assert!(rules.contains("count(reorder_stalls)"));

        let empty = format_slo_alerts(&SloReport::default());
        assert!(empty.contains("(no alerts)"));
        let slo = SloReport {
            alerts: vec![AlertEvent {
                window: 17,
                start_ms: 17_000,
                rule: "deadline-blown",
                severity: Severity::Warning,
                state: AlertState::Fired,
                value: 3.0,
                threshold: 0.5,
            }],
            windows: 60,
        };
        let log = format_slo_alerts(&slo);
        assert!(log.contains("windows evaluated        60"));
        assert!(log.contains("alerts fired             1"));
        assert!(log.contains("FIRED"));

        assert!(format_incidents(&[]).contains("(no scripted incidents)"));
        let table = format_incidents(&[Incident {
            label: "mass_outage t=15s frac=0.60".into(),
            injection_window: 15,
            span_end: 38,
            first_fire_window: Some(17),
            detection_latency: Some(2),
            peak_severity: Some(Severity::Critical),
            resolve_window: None,
            alerts_fired: 2,
            demotions: 3,
            hedges: 40,
        }]);
        assert!(table.contains("mass_outage t=15s frac=0.60"));
        assert!(table.contains("critical"));
        assert!(
            table.lines().nth(2).unwrap().contains(" 2 "),
            "latency column rendered:\n{table}"
        );
    }

    #[test]
    fn traffic_block_shows_expansion_when_present() {
        let r = small_report();
        let text = format_traffic("test", &r, 1.35);
        if r.test_traffic.expansion_rate().is_some() {
            assert!(text.contains('γ'));
        }
        assert!(text.contains("equivalent traffic"));
    }
}
