//! Property-based tests of the workload generators.

use proptest::prelude::*;
use rlive_sim::SimRng;
use rlive_workload::nodes::{NodePopulation, PopulationConfig};
use rlive_workload::scenario::Scenario;
use rlive_workload::streams::{sample_view_duration_secs, DiurnalModel, StreamPopularity};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated node attributes always respect the configuration.
    #[test]
    fn population_attributes_in_range(
        seed in any::<u64>(),
        count in 10usize..500,
        isps in 1u16..8,
        regions in 1u16..16,
    ) {
        let cfg = PopulationConfig {
            count,
            isps,
            regions,
            prefixes_per_region: 4,
            high_quality_fraction: 0.05,
            ..PopulationConfig::default()
        };
        let mut rng = SimRng::new(seed);
        let pop = NodePopulation::generate(&cfg, &mut rng);
        prop_assert_eq!(pop.len(), count);
        for n in &pop.nodes {
            prop_assert!(n.isp < isps);
            prop_assert!(n.region < regions);
            prop_assert!(n.capacity_mbps > 0.0);
            prop_assert!(n.bgp_prefix < regions as u32 * 4);
        }
        // The high-quality tier is never empty and never the whole pool.
        let hq = pop.high_quality().count();
        prop_assert!(hq >= 1);
        prop_assert!(hq < count);
    }

    /// The high-quality tier always dominates non-members by capacity.
    #[test]
    fn high_quality_tier_is_top(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let pop = NodePopulation::generate(
            &PopulationConfig {
                count: 200,
                ..PopulationConfig::default()
            },
            &mut rng,
        );
        let min_hq = pop
            .high_quality()
            .map(|n| n.capacity_mbps)
            .fold(f64::INFINITY, f64::min);
        for n in pop.nodes.iter().filter(|n| !n.high_quality) {
            prop_assert!(n.capacity_mbps <= min_hq + 1e-9);
        }
    }

    /// The high-quality tier is the prefix of a stable sort by capacity,
    /// descending: among equal capacities the lower ids get in. Scaling
    /// by the smallest subnormal rounds every capacity to a whole number
    /// of subnormals, so capacities of 1-2 000 Mbps tie in bulk; a zero
    /// scale ties them all.
    #[test]
    fn high_quality_tier_matches_a_stable_sort(
        seed in any::<u64>(),
        count in 1usize..600,
        percent in 0u32..101,
        scale in 0usize..4,
    ) {
        let mut rng = SimRng::new(seed);
        let pop = NodePopulation::generate(
            &PopulationConfig {
                count,
                high_quality_fraction: percent as f64 / 100.0,
                capacity_scale: [1.0, 0.0, f64::from_bits(1), f64::from_bits(7)][scale],
                ..PopulationConfig::default()
            },
            &mut rng,
        );
        let mut by_cap: Vec<usize> = (0..count).collect();
        by_cap.sort_by(|&a, &b| pop.nodes[b].capacity_mbps.total_cmp(&pop.nodes[a].capacity_mbps));
        let hq_count = ((count as f64 * percent as f64 / 100.0).round() as usize).max(1);
        let mut expected: Vec<usize> = by_cap.into_iter().take(hq_count).collect();
        expected.sort_unstable();
        let hq: Vec<usize> = (0..count).filter(|&i| pop.nodes[i].high_quality).collect();
        prop_assert_eq!(hq, expected);
    }

    /// Diurnal load is always within (0, 1] and 24 h-periodic.
    #[test]
    fn diurnal_bounded_and_periodic(hour in -100.0f64..100.0) {
        let m = DiurnalModel::default();
        let v = m.load_at(hour);
        prop_assert!(v > 0.0 && v <= 1.0, "load {v}");
        prop_assert!((m.load_at(hour) - m.load_at(hour + 24.0)).abs() < 1e-9);
    }

    /// Zipf popularity: pmf sums to one and is non-increasing in rank.
    #[test]
    fn popularity_is_a_distribution(n in 2usize..500, s in 0.5f64..1.5) {
        let pop = StreamPopularity::new(n, s);
        let total = pop.top_k_share(n);
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Top-1 share exceeds the uniform share.
        prop_assert!(pop.top_k_share(1) > 1.0 / n as f64);
    }

    /// View durations always respect the clamp bounds.
    #[test]
    fn view_durations_bounded(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let d = sample_view_duration_secs(&mut rng);
            prop_assert!((5.0..=7_200.0).contains(&d));
        }
    }

    /// Scenario scaling preserves structure and never zeroes counts.
    #[test]
    fn scenario_scaling_safe(factor in 0.001f64..4.0) {
        let s = Scenario::evening_peak().scaled(factor);
        prop_assert!(s.peak_viewers >= 1);
        prop_assert!(s.population.count >= 1);
        prop_assert_eq!(s.start_hour, 21.0);
    }
}
