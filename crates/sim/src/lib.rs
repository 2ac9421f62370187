//! Deterministic discrete-event network simulation substrate for RLive.
//!
//! This crate provides the pieces of "testbed" that the RLive paper takes
//! for granted in its production deployment and that we must synthesise:
//!
//! - a virtual clock ([`time::SimTime`]) and an event queue
//!   ([`event::EventQueue`]),
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
pub use event::EventQueue;
pub use link::{Link, LinkConfig};
pub use obs::{MetricRegistry, SealedWindow, Stage, StageTable};
pub use rng::SimRng;
pub use slo::{AlertEvent, AlertState, Severity, SloEngine, SloReport, SloRule};
pub use time::{SimDuration, SimTime};

use std::hash::{BuildHasherDefault, Hasher};

/// Hashes one simulator-assigned id (a `u64` node or client id, or a
/// `u32` slot) by one multiplication. Ids never come from outside
/// input, so there is nobody to defend against with a keyed hash, and
/// a fixed hasher keeps every map's layout — and so its allocation
/// count — the same from one process to the next.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("an id hashes as a single integer");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, id: u32) {
        self.write_u64(id.into());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `HashMap` / `HashSet` hasher builder over [`IdHasher`].
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;
