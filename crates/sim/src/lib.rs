//! Deterministic discrete-event network simulation substrate for RLive.
//!
//! This crate provides the pieces of "testbed" that the RLive paper takes
//! for granted in its production deployment and that we must synthesise:
//!
//! - a virtual clock ([`time::SimTime`]) and an event queue with
//!   cancellation ([`event::EventQueue`]),
//! - a deterministic random number generator and the statistical
//!   distributions used to model node populations and network dynamics
//!   ([`rng`]),
//! - a packet-level link model with bandwidth-induced queueing,
//!   propagation delay, jitter episodes and Gilbert–Elliott loss
//!   ([`link`]),
//! - NAT behaviour classification and a traversal success model
//!   ([`nat`]),
//! - node churn (lifespan / offline episodes) modelling ([`churn`]),
//! - event counters and typed trace rings ([`trace`]),
//! - behavioural coverage cataloguing over trace streams ([`coverage`]),
//! - metric accumulators: streaming histograms, percentile estimation,
//!   CDFs and time series ([`metrics`]),
//! - a deterministic windowed observability layer — metric registry,
//!   trace-fed time-series aggregation, incremental window sealing,
//!   JSONL/CSV exporters and a wall-clock stage profiler ([`obs`]),
//! - a deterministic SLO / alerting engine evaluated over sealed
//!   observability windows ([`slo`]),
//! - deterministic scoped-thread work pools shared by the experiment
//!   runner and sharded world execution ([`runner`]).
//!
//! Everything is seeded and never consults the wall clock, so simulation
//! runs are reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod coverage;
pub mod event;
pub mod link;
pub mod metrics;
pub mod nat;
pub mod obs;
pub mod rng;
pub mod runner;
pub mod slo;
pub mod time;
pub mod trace;

pub use coverage::CoverageCatalog;
pub use event::{EventHandle, EventQueue};
pub use link::{Link, LinkConfig};
pub use obs::{MetricRegistry, SealedWindow, Stage, StageTable};
pub use rng::SimRng;
pub use slo::{AlertEvent, AlertState, Severity, SloEngine, SloReport, SloRule};
pub use time::{SimDuration, SimTime};
