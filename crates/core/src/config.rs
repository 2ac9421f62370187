//! System configuration for end-to-end simulations.

use rlive_control::adviser::AdviserConfig;
use rlive_control::{ClientControllerConfig, SchedulerConfig};
use rlive_data::recovery::{RecoveryConfig, RecoveryPolicyKind};
use rlive_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default for [`SystemConfig::world_jobs`], set once from
/// the CLI (`--world-jobs N`). Worlds whose config leaves `world_jobs`
/// at 0 inherit this value; the built-in default of 1 keeps every world
/// on the sequential (reference) path unless sharding is requested.
static DEFAULT_WORLD_JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide default shard worker count used by worlds whose
/// [`SystemConfig::world_jobs`] is 0. A value of 0 restores the built-in
/// default of 1 (sequential execution).
pub fn set_default_world_jobs(n: usize) {
    DEFAULT_WORLD_JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The current process-wide default shard worker count (≥ 1).
pub fn default_world_jobs() -> usize {
    DEFAULT_WORLD_JOBS.load(Ordering::Relaxed).max(1)
}

/// How a client population is served — the paper's deployment stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryMode {
    /// Traditional CDN-only delivery (the §7.1 control group).
    CdnOnly,
    /// The §2.2 strawman: one high-quality best-effort node relays the
    /// full stream per client.
    SingleSource,
    /// RLive: redundancy-free multi-source multi-substream delivery.
    RLive,
    /// Prior-work style multi-source with redundant replication: every
    /// substream is pushed by two relays simultaneously (§2.3 contrast).
    RedundantMulti,
    /// RLive but with the early centralised frame sequencing via super
    /// nodes (§7.3.2 / Table 3 comparison).
    RLiveCentralSequencing,
}

/// One row of the delivery table: what a session of one
/// [`DeliveryMode`] does. [`DeliveryMode::spec`] is the only place that
/// tells the modes apart; every session decision reads the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ModeSpec {
    /// Draws on best-effort relays at all.
    pub best_effort: bool,
    /// Splits the stream into K substreams, one slot each; otherwise
    /// one slot carries the whole stream.
    pub split: bool,
    /// Pushes every substream from a second relay as well.
    pub redundant: bool,
    /// The §2.2 strawman (best-effort on one slot): high-quality relays
    /// only, no QoE-driven recovery, and a degraded session re-maps to
    /// another relay instead of falling back to the CDN.
    pub strawman: bool,
    /// A central super node ships the sequencing metadata (§7.3.2).
    pub central_sequencing: bool,
    /// Trace label.
    pub label: &'static str,
}

impl DeliveryMode {
    /// The mode's row of the delivery table.
    pub(crate) const fn spec(self) -> ModeSpec {
        let (best_effort, split, redundant, central_sequencing, label) = match self {
            DeliveryMode::CdnOnly => (false, false, false, false, "cdn_only"),
            DeliveryMode::SingleSource => (true, false, false, false, "single_source"),
            DeliveryMode::RLive => (true, true, false, false, "rlive"),
            DeliveryMode::RedundantMulti => (true, true, true, false, "redundant_multi"),
            DeliveryMode::RLiveCentralSequencing => (true, true, false, true, "central_sequencing"),
        };
        ModeSpec {
            best_effort,
            split,
            redundant,
            strawman: best_effort && !split,
            central_sequencing,
            label,
        }
    }
}

/// The ABR bitrate ladder, in bits per second. The top rung is the
/// source encoding rate — live ladders only transcode downward.
pub const BITRATE_LADDER: [u64; 3] = [800_000, 1_500_000, 3_000_000];

/// The ladder rung streams are encoded at (scale factor 1.0).
pub const BASE_RUNG: usize = 2;

/// The CDN-to-edge transport profile (§7.4): FLV in production, with an
/// RTM (WebRTC-based) prototype for protocol generality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportProfile {
    /// FLV pull: the production default.
    Flv,
    /// RTM: slightly higher per-packet overhead, marginally higher E2E
    /// latency (~1 % in Fig 13), same QoE otherwise.
    Rtm,
}

impl TransportProfile {
    /// Per-packet header overhead in bytes beyond the payload.
    pub fn packet_overhead(self) -> usize {
        match self {
            TransportProfile::Flv => 47,
            TransportProfile::Rtm => 59,
        }
    }

    /// Fixed extra processing latency per hop.
    pub fn hop_overhead(self) -> SimDuration {
        match self {
            TransportProfile::Flv => SimDuration::from_micros(300),
            TransportProfile::Rtm => SimDuration::from_micros(800),
        }
    }
}

/// Full system configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Delivery mode for the (test) population.
    pub mode: DeliveryMode,
    /// Number of substreams K per stream.
    pub substreams: u16,
    /// Uplink capacity of each CDN edge, Mbps.
    pub cdn_edge_mbps: u64,
    /// Viewing time before a client may upgrade to multi-source (§7.1.1:
    /// 30 s in deployment).
    pub multi_source_after: SimDuration,
    /// Minimum concurrent viewers of a stream before multi-source pays
    /// off (§7.1.1 popularity gate).
    pub popularity_threshold: usize,
    /// CDN fallback threshold (§7.4, deployed 400 ms).
    pub fallback_threshold: SimDuration,
    /// Scheduler settings.
    pub scheduler: SchedulerConfig,
    /// Client controller settings.
    pub client_controller: ClientControllerConfig,
    /// Edge adviser settings.
    pub adviser: AdviserConfig,
    /// Recovery settings.
    pub recovery: RecoveryConfig,
    /// Which recovery policy drives loss recovery (`data::recovery`
    /// seam): the classic §5.3 QoE-EDF decider, or AutoRec-style
    /// racing with hedged retransmissions.
    pub recovery_policy: RecoveryPolicyKind,
    /// Transport profile (§7.4).
    pub transport: TransportProfile,
    /// Frame-to-substream partition strategy: the deployed static hash
    /// (§6) or the §8.3 criticality-aware extension.
    pub partition: rlive_media::substream::PartitionStrategy,
    /// Chunk-based relay forwarding (§5.1's contrast): when set, relays
    /// accumulate this many frames before pushing, like multi-second HLS
    /// segments. `None` is RLive's frame-level transmission.
    pub chunk_frames: Option<u32>,
    /// §8.1 "Accelerating Frame Recovery via DNS Bypass": best-effort
    /// nodes embed the publisher's IP in data packets so recovery
    /// connections skip DNS resolution. Disabling adds a lookup delay to
    /// every dedicated recovery request.
    pub dns_bypass: bool,
    /// §7.2.1 two-tier deployment: multi-source clients use only the
    /// limited-bandwidth (non-high-quality) nodes, leaving the
    /// high-capacity tier to single-source delivery.
    pub multi_on_weak_tier: bool,
    /// Fraction of CDN edge capacity consumed by other services /
    /// cross traffic at the evening peak (scales with the diurnal
    /// curve; models the peak-hour CDN bandwidth bottlenecks of
    /// §7.1.2). Zero disables background load.
    pub cdn_background_peak_frac: f64,
    /// Worker threads used to shard relay/client event processing
    /// inside `World::run`. 0 inherits the process-wide default set via
    /// [`set_default_world_jobs`] (the `--world-jobs` CLI knob); 1 is
    /// the sequential reference execution. Any value produces
    /// byte-identical `RunReport`s and traces — see DESIGN.md "Sharded
    /// world execution".
    pub world_jobs: usize,
    /// Observability window width in **simulated** milliseconds (the
    /// `--obs-window` CLI knob). When non-zero the world auto-attaches
    /// an unbounded trace sink and its `RunReport` carries a windowed
    /// [`rlive_sim::MetricRegistry`] built from the trace stream; 0
    /// (the default) disables the obs layer entirely. See DESIGN.md
    /// "Observability".
    pub obs_window_ms: u64,
    /// Runs the deterministic SLO/alert engine over sealed obs windows
    /// (the `--slo` CLI knob; requires `obs_window_ms` to be set). The
    /// `RunReport` then carries the rule-book alert stream. See
    /// DESIGN.md "SLO & alerting".
    pub slo_enabled: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            mode: DeliveryMode::RLive,
            substreams: 4,
            cdn_edge_mbps: 420,
            multi_source_after: SimDuration::from_secs(30),
            popularity_threshold: 5,
            fallback_threshold: SimDuration::from_millis(400),
            scheduler: SchedulerConfig::default(),
            client_controller: ClientControllerConfig::default(),
            adviser: AdviserConfig::default(),
            recovery: RecoveryConfig::default(),
            recovery_policy: RecoveryPolicyKind::default(),
            transport: TransportProfile::Flv,
            cdn_background_peak_frac: 0.30,
            multi_on_weak_tier: false,
            dns_bypass: true,
            chunk_frames: None,
            partition: rlive_media::substream::PartitionStrategy::StaticHash,
            world_jobs: 0,
            obs_window_ms: 0,
            slo_enabled: false,
        }
    }
}

impl SystemConfig {
    /// A configuration for the given delivery mode with defaults.
    pub fn for_mode(mode: DeliveryMode) -> Self {
        SystemConfig {
            mode,
            ..SystemConfig::default()
        }
    }

    /// The effective shard worker count for a world built from this
    /// config: the explicit [`world_jobs`](Self::world_jobs) when
    /// non-zero, otherwise the process-wide default (≥ 1).
    pub fn effective_world_jobs(&self) -> usize {
        match self.world_jobs {
            0 => default_world_jobs(),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The delivery table, row by row.
    #[test]
    fn mode_classification() {
        use DeliveryMode::*;
        let row = |m: DeliveryMode| {
            let s = m.spec();
            let flags = [s.best_effort, s.split, s.redundant, s.strawman];
            (flags, s.central_sequencing, s.label)
        };
        let f = false;
        assert_eq!(row(CdnOnly), ([f, f, f, f], f, "cdn_only"));
        assert_eq!(row(SingleSource), ([true, f, f, true], f, "single_source"));
        assert_eq!(row(RLive), ([true, true, f, f], f, "rlive"));
        let redundant = row(RedundantMulti);
        assert_eq!(redundant, ([true, true, true, f], f, "redundant_multi"));
        let central = row(RLiveCentralSequencing);
        assert_eq!(central, ([true, true, f, f], true, "central_sequencing"));
    }

    #[test]
    fn rtm_has_more_overhead_than_flv() {
        assert!(TransportProfile::Rtm.packet_overhead() > TransportProfile::Flv.packet_overhead());
        assert!(TransportProfile::Rtm.hop_overhead() > TransportProfile::Flv.hop_overhead());
    }

    #[test]
    fn world_jobs_zero_inherits_process_default() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.world_jobs, 0, "default config inherits");
        assert!(cfg.effective_world_jobs() >= 1);
        let explicit = SystemConfig {
            world_jobs: 3,
            ..SystemConfig::default()
        };
        assert_eq!(explicit.effective_world_jobs(), 3);
    }

    #[test]
    fn ladder_is_sorted() {
        for w in BITRATE_LADDER.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(BITRATE_LADDER[BASE_RUNG], 3_000_000);
    }
}
