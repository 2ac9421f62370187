//! RLive: a robust delivery system for scaling live streaming services.
//!
//! This crate is a from-scratch reproduction of the EuroSys'26 paper
//! *RLive: Robust Delivery System for Scaling Live Streaming Services*.
//! RLive scales a live CDN by recruiting unstable, bandwidth-limited
//! "best-effort" edge nodes as relays, combining:
//!
//! - a **redundancy-free multi-source data plane**: streams split into
//!   frame-level substreams, distributed frame sequencing via footprint
//!   chains, and QoE-driven loss recovery (`rlive-data`, `rlive-media`);
//! - a **multi-layer collaborative control plane**: global scheduler,
//!   edge advisers, and client controllers (`rlive-control`).
//!
//! This crate wires those components onto a deterministic discrete-event
//! network simulator (`rlive-sim`) so the paper's production experiments
//! can be reproduced on a laptop:
//!
//! ```
//! use rlive::config::{DeliveryMode, SystemConfig};
//! use rlive::world::{GroupPolicy, World};
//! use rlive_sim::SimDuration;
//! use rlive_workload::scenario::Scenario;
//!
//! let mut scenario = Scenario::evening_peak().scaled(0.05);
//! scenario.duration = SimDuration::from_secs(30);
//! let cfg = SystemConfig::for_mode(DeliveryMode::RLive);
//! let report = World::new(scenario, cfg, GroupPolicy::uniform(DeliveryMode::RLive), 42).run();
//! assert!(report.test_qoe.views > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abr;
pub mod abtest;
pub(crate) mod actors;
pub(crate) mod arena;
pub mod config;
pub mod cost;
pub mod energy;
pub mod events;
pub mod fleet;
pub mod fuzz;
pub mod incident;
pub mod qoe;
pub mod report;
pub(crate) mod session;
pub(crate) mod shard;
pub mod telemetry;
pub mod world;

pub use abtest::AbReport;
pub use config::{DeliveryMode, SystemConfig, TransportProfile};
pub use cost::{TrafficClass, TrafficLedger};
pub use fleet::{Dispersion, Fleet, FleetReport, WorldSpec};
pub use incident::{build_incidents, Incident};
pub use qoe::{GroupQoe, SessionMetrics};
pub use rlive_workload::dsl::ScriptedEvent;
pub use world::{Group, GroupPolicy, RunReport, World};
