//! RLive collaborative control plane (§4 of the paper).
//!
//! User-to-node mapping in RLive is performed by three layers with
//! different views and update timescales:
//!
//! - the **global scheduler** ([`scheduler`]) sees static and
//!   second-granularity temporal attributes of every node (via
//!   lightweight heartbeats, [`features`]), retrieves candidates from a
//!   tree-based hash structure with progressive relaxation
//!   ([`registry`]), and ranks them with a personalised score
//!   ([`scoring`]);
//! - the **client controller** ([`client`]) probes candidates at
//!   millisecond granularity, picks the first responder, and switches
//!   publishers when `RTT_cur > min_i(RTT_i + t_change)`;
//! - the **edge adviser** ([`adviser`]) aggregates subscriber reports at
//!   hundred-millisecond granularity and proactively suggests switches
//!   on cost (under-utilisation) or QoS (per-connection Z-score
//!   outliers) triggers.
//!
//! Quota-based availability (§8.1) lives in [`quota`]; scheduler fleet
//! sizing for the paper's multi-MQPS load (Fig 12c) in [`capacity`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adviser;
pub mod capacity;
pub mod client;
pub mod features;
pub mod policy;
pub mod quota;
pub mod registry;
pub mod scheduler;
pub mod scoring;

pub use adviser::{AdviserConfig, EdgeAdviser, SwitchSuggestion};
pub use client::{ClientController, ClientControllerConfig, ProbeOutcome};
pub use features::{ClientInfo, NodeClass, NodeId, NodeStatus, StaticFeatures, StreamKey};
pub use policy::{AdaptivePolicy, SchedulerPolicy, SchedulerPolicyKind, StaticScorePolicy};
pub use registry::HashTreeRegistry;
pub use scheduler::{GlobalScheduler, SchedulerConfig};
pub use scoring::{Platform, ScoreWeights};
