//! Traffic and cost accounting (equivalent traffic, §7.1.3).
//!
//! Equivalent traffic (EqT) is the normalised unit cost of a resource
//! multiplied by the traffic volume it carried — a billing-independent
//! proxy for bandwidth cost. Best-effort bandwidth is 20–40 % cheaper
//! per unit than dedicated bandwidth (§2.1), so shifting traffic from
//! dedicated edges to best-effort relays reduces EqT even when total
//! bytes stay the same.

use serde::{Deserialize, Serialize};

/// Which resource class carried some traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Dedicated CDN edge → client (full streams, frame recovery).
    DedicatedServing,
    /// Dedicated CDN edge → best-effort node (back-to-CDN feeds).
    DedicatedBackhaul,
    /// Best-effort node → client (substream pushes, retransmissions).
    BestEffortServing,
}

/// Accumulates bytes per traffic class and computes EqT.
///
/// # Examples
///
/// ```
/// use rlive::cost::{TrafficClass, TrafficLedger};
///
/// let mut ledger = TrafficLedger::new();
/// ledger.add(TrafficClass::DedicatedBackhaul, 100);
/// ledger.add(TrafficClass::BestEffortServing, 370);
/// assert_eq!(ledger.expansion_rate(), Some(3.7));
/// // Dedicated bytes carry a 35 % price premium.
/// assert_eq!(ledger.equivalent_traffic(1.35), 100.0 * 1.35 + 370.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrafficLedger {
    /// Bytes served by dedicated edges directly to clients.
    pub dedicated_serving: u64,
    /// Bytes fed from dedicated edges to best-effort relays.
    pub dedicated_backhaul: u64,
    /// Bytes served by best-effort relays to clients.
    pub best_effort_serving: u64,
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` of the given class.
    pub fn add(&mut self, class: TrafficClass, bytes: u64) {
        match class {
            TrafficClass::DedicatedServing => self.dedicated_serving += bytes,
            TrafficClass::DedicatedBackhaul => self.dedicated_backhaul += bytes,
            TrafficClass::BestEffortServing => self.best_effort_serving += bytes,
        }
    }

    /// Total bytes that crossed dedicated infrastructure.
    pub fn dedicated_bytes(&self) -> u64 {
        self.dedicated_serving + self.dedicated_backhaul
    }

    /// Total bytes delivered to clients.
    pub fn client_bytes(&self) -> u64 {
        self.dedicated_serving + self.best_effort_serving
    }

    /// Equivalent traffic: `unit_cost × volume`, with best-effort as
    /// the cost unit and `dedicated_price` the dedicated multiplier
    /// (the simulator prices it at
    /// [`DEDICATED_UNIT_COST`](rlive_data::recovery::DEDICATED_UNIT_COST)).
    pub fn equivalent_traffic(&self, dedicated_price: f64) -> f64 {
        self.dedicated_bytes() as f64 * dedicated_price + self.best_effort_serving as f64
    }

    /// The §2.2 traffic expansion rate γ = serving / backward for the
    /// best-effort layer as a whole. `None` when no backhaul flowed.
    pub fn expansion_rate(&self) -> Option<f64> {
        if self.dedicated_backhaul == 0 {
            None
        } else {
            Some(self.best_effort_serving as f64 / self.dedicated_backhaul as f64)
        }
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &TrafficLedger) {
        self.dedicated_serving += other.dedicated_serving;
        self.dedicated_backhaul += other.dedicated_backhaul;
        self.best_effort_serving += other.best_effort_serving;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eqt_prices_dedicated_higher() {
        let mut cdn_only = TrafficLedger::new();
        cdn_only.add(TrafficClass::DedicatedServing, 1_000);

        let mut rlive = TrafficLedger::new();
        // Same client bytes, mostly via best-effort with a 1:4 backhaul.
        rlive.add(TrafficClass::BestEffortServing, 800);
        rlive.add(TrafficClass::DedicatedServing, 200);
        rlive.add(TrafficClass::DedicatedBackhaul, 200);

        assert_eq!(cdn_only.client_bytes(), rlive.client_bytes());
        let c = 1.35;
        assert!(rlive.equivalent_traffic(c) < cdn_only.equivalent_traffic(c));
    }

    #[test]
    fn expansion_rate() {
        let mut l = TrafficLedger::new();
        assert_eq!(l.expansion_rate(), None);
        l.add(TrafficClass::DedicatedBackhaul, 100);
        l.add(TrafficClass::BestEffortServing, 370);
        assert!((l.expansion_rate().expect("has backhaul") - 3.7).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = TrafficLedger::new();
        a.add(TrafficClass::DedicatedServing, 10);
        let mut b = TrafficLedger::new();
        b.add(TrafficClass::DedicatedServing, 5);
        b.add(TrafficClass::BestEffortServing, 7);
        a.merge(&b);
        assert_eq!(a.dedicated_serving, 15);
        assert_eq!(a.best_effort_serving, 7);
    }
}
