//! RLive robust data plane (§5 of the paper).
//!
//! - [`sequencing`]: the client-side global frame chain and the
//!   chain-matching algorithm (Algorithm 1) that merges per-relay local
//!   chains into one playout order, with CRC validation and a pool of
//!   not-yet-matchable chains;
//! - [`reorder`]: the packet-level reorder buffer that tracks frame
//!   completeness and feeds the global chain, plus the client playback
//!   buffer with its CDN-fallback threshold (§7.4);
//! - [`recovery`]: the QoE-driven loss recovery decision framework
//!   (§5.3) — four actions, a probabilistic loss function combining
//!   bandwidth cost and unplayability risk, EDF-based failure models;
//! - [`ring`]: the sequence-indexed ring buffer ([`ring::SeqRing`])
//!   that backs the reorder/sequencing state — flat storage, zero
//!   steady-state allocation, explicit eviction accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recovery;
pub mod reorder;
pub mod ring;
pub mod sequencing;

pub use recovery::{RecoveryAction, RecoveryConfig, RecoveryDecider};
pub use reorder::{PlaybackBuffer, ReorderBuffer};
pub use sequencing::{GlobalChain, LinkStatus, MatchResult};
