//! Best-effort node population generation.
//!
//! Fits the population statistics the paper reports: Fig 1(b) — ~29 % of
//! nodes below 10 Mbps, ~12 % above 100 Mbps, spanning 1–1000+ Mbps;
//! Fig 2(c) — median lifespan 25.4 h; plus the production NAT mix and a
//! high-quality top tier (the ~1 % the strawman system used, §2.2).

use rlive_sim::churn::ChurnModel;
use rlive_sim::nat::{NatMix, NatType};
use rlive_sim::rng::EmpiricalCdf;
use rlive_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Configuration of a generated node population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of best-effort nodes.
    pub count: usize,
    /// Number of ISPs nodes spread across.
    pub isps: u16,
    /// Number of geographic regions.
    pub regions: u16,
    /// BGP prefixes per region (same-prefix clients get the N-term
    /// scoring bonus).
    pub prefixes_per_region: u32,
    /// Fraction of nodes in the high-quality tier (paper: top ~1 %).
    pub high_quality_fraction: f64,
    /// Uniform multiplier on every sampled uplink capacity (1.0 = the
    /// Fig 1(b) distribution unchanged — an exact float identity, so
    /// default populations are bit-identical to the pre-knob model).
    /// The scenario DSL's capacity-tiers phase lowers or raises it to
    /// model constrained or over-provisioned swarms.
    pub capacity_scale: f64,
    /// Overrides the hard-NAT share of the production NAT mix
    /// ([`NatMix::with_hard_fraction`]); `None` keeps the production
    /// mix, including its RNG draw sequence.
    pub nat_hard_fraction: Option<f64>,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            count: 2_000,
            isps: 4,
            regions: 16,
            prefixes_per_region: 8,
            high_quality_fraction: 0.01,
            capacity_scale: 1.0,
            nat_hard_fraction: None,
        }
    }
}

/// One generated best-effort node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node identifier (dense, starting at 0).
    pub id: u64,
    /// Uplink capacity in Mbps.
    pub capacity_mbps: f64,
    /// ISP.
    pub isp: u16,
    /// Region.
    pub region: u16,
    /// BGP prefix group.
    pub bgp_prefix: u32,
    /// Coordinates within the region grid.
    pub geo: (f64, f64),
    /// NAT behaviour.
    pub nat: NatType,
    /// Whether the node is in the high-quality tier.
    pub high_quality: bool,
    /// Base RTT from a same-region client, in ms.
    pub base_rtt_ms: u64,
}

/// The Fig 1(b) bandwidth capacity distribution: anchor points read off
/// the published CDF (log-scale x-axis from 1 to beyond 1000 Mbps).
pub fn capacity_cdf() -> EmpiricalCdf {
    EmpiricalCdf::from_points(&[
        (1.0, 0.0),
        (5.0, 0.17),
        (10.0, 0.29),
        (20.0, 0.46),
        (50.0, 0.74),
        (100.0, 0.88),
        (300.0, 0.96),
        (1000.0, 0.995),
        (2000.0, 1.0),
    ])
}

/// A generated population of best-effort nodes.
#[derive(Debug, Clone)]
pub struct NodePopulation {
    /// The nodes.
    pub nodes: Vec<NodeSpec>,
    /// The churn model shared by all nodes.
    pub churn: ChurnModel,
}

impl NodePopulation {
    /// Generates a population.
    pub fn generate(cfg: &PopulationConfig, rng: &mut SimRng) -> Self {
        let capacity = capacity_cdf();
        let nat_mix = match cfg.nat_hard_fraction {
            None => NatMix::production(),
            Some(h) => NatMix::with_hard_fraction(h),
        };
        let mut nodes = Vec::with_capacity(cfg.count);
        for id in 0..cfg.count as u64 {
            // One capacity draw either way; the scale multiplies after
            // sampling so the draw sequence is knob-invariant.
            let cap = capacity.sample(rng) * cfg.capacity_scale;
            let isp = rng.below(cfg.isps as u64) as u16;
            let region = rng.below(cfg.regions as u64) as u16;
            let bgp_prefix = region as u32 * cfg.prefixes_per_region
                + rng.below(cfg.prefixes_per_region as u64) as u32;
            // Regions are laid out on a grid; nodes scatter within one.
            let rx = (region % 4) as f64 * 10.0 + rng.range_f64(0.0, 10.0);
            let ry = (region / 4) as f64 * 10.0 + rng.range_f64(0.0, 10.0);
            let nat = nat_mix.sample(rng);
            // Best-effort nodes sit close to users: short RTTs (§2.1).
            let base_rtt_ms = 4 + rng.below(22);
            nodes.push(NodeSpec {
                id,
                capacity_mbps: cap,
                isp,
                region,
                bgp_prefix,
                geo: (rx, ry),
                nat,
                high_quality: false,
                base_rtt_ms,
            });
        }
        // The high-quality tier: top fraction by capacity, favouring
        // easy NATs (the nodes the strawman system would have picked).
        // Ties go to the lower id, as a stable sort by capacity has it.
        let mut by_cap: Vec<usize> = (0..nodes.len()).collect();
        let hq_count = ((cfg.count as f64 * cfg.high_quality_fraction).round() as usize).max(1);
        if hq_count < by_cap.len() {
            by_cap.select_nth_unstable_by(hq_count, |&a, &b| {
                nodes[b]
                    .capacity_mbps
                    .partial_cmp(&nodes[a].capacity_mbps)
                    .expect("capacities are finite")
                    .then(a.cmp(&b))
            });
        }
        for &i in by_cap.iter().take(hq_count) {
            nodes[i].high_quality = true;
        }
        NodePopulation {
            nodes,
            churn: ChurnModel::production(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The high-quality subset.
    pub fn high_quality(&self) -> impl Iterator<Item = &NodeSpec> {
        self.nodes.iter().filter(|n| n.high_quality)
    }

    /// Fraction of nodes with capacity below `mbps`.
    pub fn fraction_below(&self, mbps: f64) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().filter(|n| n.capacity_mbps < mbps).count() as f64
            / self.nodes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(n: usize) -> NodePopulation {
        let mut rng = SimRng::new(77);
        NodePopulation::generate(
            &PopulationConfig {
                count: n,
                ..PopulationConfig::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn capacity_distribution_matches_fig1b() {
        let pop = population(20_000);
        // ~29 % below 10 Mbps, ~12 % above 100 Mbps.
        let below10 = pop.fraction_below(10.0);
        let above100 = 1.0 - pop.fraction_below(100.0);
        assert!((below10 - 0.29).abs() < 0.02, "below10 {below10}");
        assert!((above100 - 0.12).abs() < 0.02, "above100 {above100}");
    }

    #[test]
    fn high_quality_tier_is_top_capacity() {
        let pop = population(5_000);
        let hq: Vec<f64> = pop.high_quality().map(|n| n.capacity_mbps).collect();
        assert_eq!(hq.len(), 50);
        let min_hq = hq.iter().cloned().fold(f64::INFINITY, f64::min);
        // Every non-HQ node is at most the weakest HQ node.
        for n in &pop.nodes {
            if !n.high_quality {
                assert!(n.capacity_mbps <= min_hq);
            }
        }
    }

    #[test]
    fn attributes_within_configured_ranges() {
        let cfg = PopulationConfig::default();
        let pop = population(1_000);
        for n in &pop.nodes {
            assert!(n.isp < cfg.isps);
            assert!(n.region < cfg.regions);
            assert!(n.capacity_mbps >= 1.0);
            assert!((4..26).contains(&n.base_rtt_ms));
            assert!(n.bgp_prefix < cfg.regions as u32 * cfg.prefixes_per_region);
        }
    }

    #[test]
    fn population_is_deterministic() {
        let a = population(100);
        let b = population(100);
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.capacity_mbps, y.capacity_mbps);
            assert_eq!(x.nat, y.nat);
        }
    }

    #[test]
    fn hard_nats_present() {
        let pop = population(2_000);
        let hard = pop.nodes.iter().filter(|n| n.nat.is_hard()).count();
        let frac = hard as f64 / 2_000.0;
        // Production mix has ~55 % hard NAT types.
        assert!((0.45..0.65).contains(&frac), "hard frac {frac}");
    }

    #[test]
    fn capacity_scale_multiplies_every_node() {
        let mut rng_a = SimRng::new(5);
        let mut rng_b = SimRng::new(5);
        let base = NodePopulation::generate(
            &PopulationConfig {
                count: 200,
                ..PopulationConfig::default()
            },
            &mut rng_a,
        );
        let scaled = NodePopulation::generate(
            &PopulationConfig {
                count: 200,
                capacity_scale: 0.25,
                ..PopulationConfig::default()
            },
            &mut rng_b,
        );
        for (a, b) in base.nodes.iter().zip(&scaled.nodes) {
            assert_eq!(b.capacity_mbps, a.capacity_mbps * 0.25);
            // The knob never perturbs the other draws.
            assert_eq!(a.nat, b.nat);
            assert_eq!(a.region, b.region);
        }
    }

    #[test]
    fn nat_hard_fraction_shifts_the_mix() {
        let mut rng = SimRng::new(6);
        let pop = NodePopulation::generate(
            &PopulationConfig {
                count: 4_000,
                nat_hard_fraction: Some(0.9),
                ..PopulationConfig::default()
            },
            &mut rng,
        );
        let hard = pop.nodes.iter().filter(|n| n.nat.is_hard()).count() as f64 / 4_000.0;
        assert!((0.85..0.95).contains(&hard), "hard frac {hard}");
    }

    #[test]
    fn churn_model_matches_paper() {
        let pop = population(10);
        let p50 = pop.churn.lifespan_quantile(0.5);
        assert!((p50 - 25.4).abs() < 1.0);
    }
}
