//! The A/B test harness (§7.1).
//!
//! The paper validates RLive with two production A/B tests: users are
//! split by ID hash into control and test groups served under different
//! delivery policies inside the same live system. The simulator
//! reproduces the methodology with one shared world whose
//! [`GroupPolicy::ab`](crate::world::GroupPolicy::ab) assigns each user
//! to a group; [`AbReport::from_run`] turns its per-group
//! QoE/traffic/energy aggregates into relative differences against the
//! control group.

use crate::qoe::GroupQoe;
use crate::world::RunReport;
use rlive_data::recovery::DEDICATED_UNIT_COST;

/// Relative QoE differences of test vs control, in percent.
#[derive(Debug, Clone, Copy)]
pub struct QoeDiff {
    /// Rebuffering events per 100 s.
    pub rebuffer_events_pct: f64,
    /// Rebuffering duration per 100 s.
    pub rebuffer_duration_pct: f64,
    /// Mean bitrate.
    pub bitrate_pct: f64,
    /// Mean E2E latency.
    pub e2e_latency_pct: f64,
}

/// Result of an A/B run.
#[derive(Debug, Clone)]
pub struct AbReport {
    /// The raw world report.
    pub run: RunReport,
    /// Relative differences (test vs control).
    pub diff: QoeDiff,
    /// View-count split fairness: `(test - control) / control` in %.
    pub view_split_pct: f64,
    /// Equivalent-traffic difference in % (test vs control).
    pub eqt_pct: f64,
    /// Energy deltas (cpu, mem, temp, battery) in percentage points.
    pub energy_delta: (f64, f64, f64, f64),
}

impl AbReport {
    /// Derives the A/B differences from a finished world run, pricing
    /// dedicated traffic at [`DEDICATED_UNIT_COST`].
    pub fn from_run(run: RunReport) -> AbReport {
        let diff = QoeDiff {
            rebuffer_events_pct: GroupQoe::diff_pct(
                run.test_qoe.rebuffers_per_100s.mean(),
                run.control_qoe.rebuffers_per_100s.mean(),
            ),
            rebuffer_duration_pct: GroupQoe::diff_pct(
                run.test_qoe.rebuffer_ms_per_100s.mean(),
                run.control_qoe.rebuffer_ms_per_100s.mean(),
            ),
            bitrate_pct: GroupQoe::diff_pct(
                run.test_qoe.bitrate_bps.mean(),
                run.control_qoe.bitrate_bps.mean(),
            ),
            e2e_latency_pct: GroupQoe::diff_pct(
                run.test_qoe.e2e_latency_ms.mean(),
                run.control_qoe.e2e_latency_ms.mean(),
            ),
        };
        let view_split_pct = GroupQoe::diff_pct(
            run.test_qoe.views as f64,
            run.control_qoe.views.max(1) as f64,
        );
        // Normalise EqT by watch time so group sizes cancel.
        let eqt_test = run.test_traffic.equivalent_traffic(DEDICATED_UNIT_COST)
            / run.test_qoe.watch_secs.max(1.0);
        let eqt_control = run.control_traffic.equivalent_traffic(DEDICATED_UNIT_COST)
            / run.control_qoe.watch_secs.max(1.0);
        let eqt_pct = GroupQoe::diff_pct(eqt_test, eqt_control);
        let energy_delta = (
            run.test_energy.0 - run.control_energy.0,
            run.test_energy.1 - run.control_energy.1,
            run.test_energy.2 - run.control_energy.2,
            run.test_energy.3 - run.control_energy.3,
        );
        AbReport {
            run,
            diff,
            view_split_pct,
            eqt_pct,
            energy_delta,
        }
    }
}

// The parallel experiment runner sends each world's report back over a
// channel; pin the auto-traits at compile time so report state can't
// silently regress per-cell isolation.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AbReport>();
    assert_send::<QoeDiff>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeliveryMode, SystemConfig};
    use crate::fleet::WorldSpec;
    use crate::world::GroupPolicy;
    use rlive_sim::SimDuration;
    use rlive_workload::scenario::Scenario;

    fn small_test(seed: u64) -> AbReport {
        let mut scenario = Scenario::evening_peak().scaled(0.12);
        scenario.duration = SimDuration::from_secs(120);
        scenario.streams = 4;
        let config = SystemConfig {
            multi_source_after: SimDuration::from_secs(5),
            popularity_threshold: 1,
            cdn_edge_mbps: 140,
            ..SystemConfig::default()
        };
        let spec = WorldSpec {
            seed,
            scenario,
            config,
            policy: GroupPolicy::ab(DeliveryMode::CdnOnly, DeliveryMode::RLive),
            schedule: Vec::new(),
        };
        AbReport::from_run(spec.run())
    }

    #[test]
    fn ab_groups_both_active() {
        let report = small_test(11);
        assert!(report.run.control_qoe.views > 5);
        assert!(report.run.test_qoe.views > 5);
        assert!(report.view_split_pct.abs() < 90.0);
    }

    #[test]
    fn test_group_offloads_traffic() {
        let report = small_test(12);
        assert_eq!(report.run.control_traffic.best_effort_serving, 0);
        assert!(report.run.test_traffic.best_effort_serving > 0);
    }

    #[test]
    fn energy_delta_is_small_and_positive_leaning() {
        let report = small_test(13);
        let (cpu, mem, temp, bat) = report.energy_delta;
        // RLive clients do strictly more work, but marginally (Fig 10).
        assert!(cpu > -0.5, "cpu delta {cpu}");
        assert!(cpu < 5.0, "cpu delta {cpu}");
        assert!(mem.abs() < 5.0);
        assert!(temp.abs() < 1.0);
        assert!(bat.abs() < 2.0);
    }
}
