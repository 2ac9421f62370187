//! Deterministic windowed observability: a metric registry fed by the
//! trace stream, plus a wall-clock stage profiler.
//!
//! The paper justifies every control-plane policy with windowed
//! production telemetry (per-window recovery failure rates, scheduler
//! yield, adviser trigger counts). This module reproduces that layer for
//! the simulator:
//!
//! - [`MetricRegistry`] — `Counter` / `Gauge` / `Histogram` series keyed
//!   by metric name + a small label set ([`Labels`]: stream, node,
//!   mode), with counter and gauge series bucketed into fixed-width
//!   tumbling windows of **simulated** time.
//! - [`MetricRegistry::ingest`] — the trace-fed aggregator: it maps each
//!   [`TraceEvent`] onto the series it contributes to, so a drained
//!   trace ring becomes a queryable time-series set.
//! - JSONL / CSV exporters ([`MetricRegistry::to_jsonl`],
//!   [`MetricRegistry::to_csv`]) that iterate sorted maps only, so the
//!   bytes are a pure function of the registry content.
//! - A [`Stage`] profiler — scoped wall-clock span timers around the
//!   runner's real phases, aggregated into a [`StageTable`].
//!
//! # Determinism rules
//!
//! Sim-time series are derived exclusively from deterministic inputs
//! (the trace stream, whose record order is a pure function of the seed
//! for any `--jobs` / `--world-jobs` setting — see
//! [`crate::trace::TraceRecord::seq`]), and every container is a
//! `BTreeMap` keyed by `Ord` types, so `Debug` output and export bytes
//! are byte-identical across worker counts. The stage profiler measures
//! **wall-clock** time and is therefore nondeterministic by nature; its
//! output must only ever reach stderr or `RunnerStats`, never golden
//! stdout. The two halves share this module so the segregation rule is
//! written down exactly once, next to both implementations.

use crate::metrics::FixedHistogram;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Default tumbling-window width: 1 s of simulated time, matching the
/// per-second aggregation of the paper's production dashboards.
pub const DEFAULT_WINDOW_MS: u64 = 1000;

/// The small fixed label set every series is keyed by.
///
/// Keeping the label space closed (rather than free-form string maps)
/// keeps keys `Ord` + allocation-free and makes cardinality explicit:
/// a series is at most per-stream × per-node × per-mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    /// Stream id, when the event is stream-scoped.
    pub stream: Option<u64>,
    /// Node (relay) id, when the event is node-scoped.
    pub node: Option<u64>,
    /// Mode / action / group label, when the event is mode-scoped.
    pub mode: Option<&'static str>,
}

impl Labels {
    /// No labels: a world-global series.
    pub const NONE: Labels = Labels {
        stream: None,
        node: None,
        mode: None,
    };

    /// Stream-scoped labels.
    pub fn stream(stream: u64) -> Labels {
        Labels {
            stream: Some(stream),
            ..Labels::NONE
        }
    }

    /// Node-scoped labels.
    pub fn node(node: u64) -> Labels {
        Labels {
            node: Some(node),
            ..Labels::NONE
        }
    }

    /// Mode-scoped labels.
    pub fn mode(mode: &'static str) -> Labels {
        Labels {
            mode: Some(mode),
            ..Labels::NONE
        }
    }

    /// Renders the label set as a stable `k=v` list (empty string when
    /// unlabelled) — the form used by both exporters and tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(s) = self.stream {
            let _ = write!(out, "stream={s}");
        }
        if let Some(n) = self.node {
            if !out.is_empty() {
                out.push(',');
            }
            let _ = write!(out, "node={n}");
        }
        if let Some(m) = self.mode {
            if !out.is_empty() {
                out.push(',');
            }
            let _ = write!(out, "mode={m}");
        }
        out
    }
}

/// A series identity: metric name + label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name (static registry vocabulary).
    pub name: &'static str,
    /// Label set.
    pub labels: Labels,
}

impl SeriesKey {
    /// Builds a key.
    pub fn new(name: &'static str, labels: Labels) -> SeriesKey {
        SeriesKey { name, labels }
    }
}

/// One gauge window: sample count, sum and last-written value.
///
/// `last` follows "later operand wins" under [`MetricRegistry::merge`],
/// which is associative as long as parts are folded in a fixed order
/// (spec-index order for fleets, trace order within a world).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GaugeWindow {
    /// Samples written into this window.
    pub count: u64,
    /// Sum of samples (for window means).
    pub sum: f64,
    /// Most recent sample.
    pub last: f64,
}

impl GaugeWindow {
    /// Mean of the window's samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Numerator/denominator totals for one window of a ratio query such as
/// recovery-failure-rate; keeping the integer parts (rather than the
/// division) is what lets fleet roll-ups stay exactly associative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRatio {
    /// Window index (window `w` covers `[w·W, (w+1)·W)` sim-time).
    pub window: u64,
    /// Window start in sim milliseconds.
    pub start_ms: u64,
    /// Numerator total over the window.
    pub num: u64,
    /// Denominator total over the window.
    pub den: u64,
}

impl WindowRatio {
    /// The ratio itself (0 when the denominator is empty, never NaN).
    pub fn rate(&self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }

    /// Whether the window carries any evidence at all. A `0/0` window
    /// means "no data", not "rate 0.0"; rankings must skip it rather
    /// than compare it against windows that actually saw samples.
    pub fn has_samples(&self) -> bool {
        self.den > 0
    }
}

/// Ranks ratio windows by rate descending, ties broken toward the
/// earlier window (total order), and keeps the top `k`. Windows with an
/// all-zero denominator are excluded from the ranking entirely — see
/// [`WindowRatio::has_samples`].
pub fn top_ratio_windows(windows: &[WindowRatio], k: usize) -> Vec<WindowRatio> {
    let mut ranked: Vec<WindowRatio> = windows
        .iter()
        .filter(|w| w.has_samples())
        .copied()
        .collect();
    ranked.sort_by(|a, b| {
        b.rate()
            .partial_cmp(&a.rate())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.window.cmp(&b.window))
    });
    ranked.truncate(k);
    ranked
}

/// Histogram bounds for modelled scheduler service time (milliseconds).
pub const SERVICE_TIME_BOUNDS_MS: [f64; 8] = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0];
/// Histogram bounds for frames played per departed session.
pub const SESSION_FRAMES_BOUNDS: [f64; 6] = [10.0, 100.0, 500.0, 1000.0, 5000.0, 20000.0];

/// The deterministic windowed metric registry.
///
/// Updates are driven by simulated time: every write carries a
/// [`SimTime`] and lands in tumbling window `at_ms / window_ms`. A
/// registry built from the same trace stream is bit-identical regardless
/// of how the world that produced the stream was parallelised. The
/// disabled registry (window width 0) ignores all writes, so worlds
/// without `--obs-window` pay only a branch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricRegistry {
    window_ms: u64,
    records: u64,
    skipped_samples: u64,
    /// Sealing watermark: every window `< sealed_below` is final — no
    /// later write may land in it (enforced by a debug assertion on the
    /// write paths). Advanced only by [`MetricRegistry::seal_until`].
    sealed_below: u64,
    counters: BTreeMap<SeriesKey, BTreeMap<u64, u64>>,
    gauges: BTreeMap<SeriesKey, BTreeMap<u64, GaugeWindow>>,
    histograms: BTreeMap<SeriesKey, FixedHistogram>,
}

/// One finalized window, as produced by [`MetricRegistry::seal_until`]:
/// the per-name counter totals (summed across label sets) for a window
/// the sim clock has advanced past. Sealed windows are the only input
/// the SLO engine evaluates, so alert streams are a pure function of the
/// sealed sequence regardless of how the world was parallelised.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SealedWindow {
    /// Window index (window `w` covers `[w·W, (w+1)·W)` sim-time).
    pub window: u64,
    /// Window start in sim milliseconds.
    pub start_ms: u64,
    /// Per-name counter totals across all label sets; names with no
    /// samples in the window are absent (read via
    /// [`SealedWindow::total`], which defaults to 0).
    pub counters: BTreeMap<&'static str, u64>,
}

impl SealedWindow {
    /// Total for one counter name in this window (0 when absent — an
    /// empty window is evidence of zero events, not missing data).
    pub fn total(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl MetricRegistry {
    /// Creates an enabled registry with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(
            window > SimDuration::ZERO,
            "obs window width must be positive"
        );
        MetricRegistry {
            window_ms: window.as_millis().max(1),
            ..MetricRegistry::default()
        }
    }

    /// A disabled registry: every write is a no-op, every query empty.
    pub fn disabled() -> Self {
        MetricRegistry::default()
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.window_ms > 0
    }

    /// Window width in sim milliseconds (0 when disabled).
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    /// Trace records ingested so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Non-finite gauge/histogram samples skipped.
    pub fn skipped_samples(&self) -> u64 {
        self.skipped_samples
    }

    /// The tumbling window an instant falls into. Window `w` covers
    /// `[w·W, (w+1)·W)`: an event exactly on a boundary opens the new
    /// window.
    pub fn window_of(&self, at: SimTime) -> u64 {
        debug_assert!(self.window_ms > 0, "window_of on a disabled registry");
        at.as_millis() / self.window_ms.max(1)
    }

    /// Start of window `w` in sim milliseconds.
    pub fn window_start_ms(&self, window: u64) -> u64 {
        window.saturating_mul(self.window_ms)
    }

    /// The sealing watermark: every window below this index is final.
    pub fn sealed_below(&self) -> u64 {
        self.sealed_below
    }

    /// Seals every window in `[sealed_below, upto)` in ascending order —
    /// including empty ones — and returns them. A sealed window is
    /// final: the write paths debug-assert that no later sample lands
    /// below the watermark. Callers seal window `w` only once the world
    /// clock (and, under `--world-jobs`, every shard) has advanced past
    /// `w`'s end boundary.
    pub fn seal_until(&mut self, upto: u64) -> Vec<SealedWindow> {
        let mut out = Vec::new();
        if !self.is_enabled() {
            return out;
        }
        while self.sealed_below < upto {
            let w = self.sealed_below;
            let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
            for (key, windows) in &self.counters {
                if let Some(&v) = windows.get(&w) {
                    *totals.entry(key.name).or_insert(0) += v;
                }
            }
            out.push(SealedWindow {
                window: w,
                start_ms: self.window_start_ms(w),
                counters: totals,
            });
            self.sealed_below += 1;
        }
        out
    }

    /// Adds `n` to a counter series at `at`.
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, at: SimTime, n: u64) {
        if !self.is_enabled() {
            return;
        }
        let w = self.window_of(at);
        debug_assert!(
            w >= self.sealed_below,
            "counter write into sealed window {w} (watermark {})",
            self.sealed_below
        );
        *self
            .counters
            .entry(SeriesKey::new(name, labels))
            .or_default()
            .entry(w)
            .or_insert(0) += n;
    }

    /// Writes a gauge sample at `at`. Non-finite values are skipped and
    /// counted, matching the metric-accumulator contract.
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, at: SimTime, value: f64) {
        if !self.is_enabled() {
            return;
        }
        if !value.is_finite() {
            self.skipped_samples += 1;
            return;
        }
        let w = self.window_of(at);
        debug_assert!(
            w >= self.sealed_below,
            "gauge write into sealed window {w} (watermark {})",
            self.sealed_below
        );
        let cell = self
            .gauges
            .entry(SeriesKey::new(name, labels))
            .or_default()
            .entry(w)
            .or_default();
        cell.count += 1;
        cell.sum += value;
        cell.last = value;
    }

    /// Records a histogram sample. Histograms aggregate over the whole
    /// run (they answer distribution questions, not rate questions), so
    /// no window is involved. `bounds` applies on first touch of the
    /// series; later observations reuse the existing bounds.
    pub fn histogram_observe(
        &mut self,
        name: &'static str,
        labels: Labels,
        bounds: &[f64],
        value: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        if !value.is_finite() {
            self.skipped_samples += 1;
            return;
        }
        self.histograms
            .entry(SeriesKey::new(name, labels))
            .or_insert_with(|| FixedHistogram::new(bounds))
            .observe(value);
    }

    /// The trace-fed aggregator: maps one trace record onto the series
    /// it contributes to. The full mapping is the registry's vocabulary;
    /// DESIGN.md documents it series by series.
    pub fn ingest(&mut self, record: &TraceRecord) {
        if !self.is_enabled() {
            return;
        }
        self.records += 1;
        let at = record.at;
        match &record.event {
            TraceEvent::SchedulerRecommendation {
                stream,
                candidates,
                service_time_ms,
                ..
            } => {
                self.counter_add("scheduler_recommendations", Labels::stream(*stream), at, 1);
                self.counter_add(
                    "scheduler_candidates",
                    Labels::stream(*stream),
                    at,
                    u64::from(*candidates),
                );
                self.histogram_observe(
                    "scheduler_service_time_ms",
                    Labels::NONE,
                    &SERVICE_TIME_BOUNDS_MS,
                    *service_time_ms,
                );
            }
            TraceEvent::AdviserCostTrigger {
                node, node_util, ..
            } => {
                self.counter_add("adviser_cost_triggers", Labels::node(*node), at, 1);
                self.gauge_set("adviser_node_util", Labels::node(*node), at, *node_util);
            }
            TraceEvent::AdviserQosTrigger { node, outliers } => {
                self.counter_add("adviser_qos_triggers", Labels::node(*node), at, 1);
                self.counter_add(
                    "adviser_qos_outliers",
                    Labels::node(*node),
                    at,
                    u64::from(*outliers),
                );
            }
            TraceEvent::RecoveryDecision {
                action,
                failure_probability,
                ..
            } => {
                self.counter_add("recovery_decisions", Labels::mode(action), at, 1);
                self.gauge_set(
                    "recovery_failure_probability",
                    Labels::mode(action),
                    at,
                    *failure_probability,
                );
            }
            TraceEvent::ReorderHeadSkip { released, .. } => {
                self.counter_add("reorder_stalls", Labels::NONE, at, 1);
                self.counter_add(
                    "reorder_released_after_skip",
                    Labels::NONE,
                    at,
                    u64::from(*released),
                );
            }
            TraceEvent::Churn { node, online } => {
                self.counter_add("churn_transitions", Labels::node(*node), at, 1);
                self.gauge_set(
                    "node_online",
                    Labels::node(*node),
                    at,
                    if *online { 1.0 } else { 0.0 },
                );
            }
            TraceEvent::ModeSwitch { to, .. } => {
                self.counter_add("mode_switches", Labels::mode(to), at, 1);
            }
            TraceEvent::SessionJoin { stream, mode, .. } => {
                self.counter_add(
                    "session_joins",
                    Labels {
                        stream: Some(*stream),
                        node: None,
                        mode: Some(mode),
                    },
                    at,
                    1,
                );
            }
            TraceEvent::SessionDepart { frames_played, .. } => {
                self.counter_add("session_departs", Labels::NONE, at, 1);
                self.histogram_observe(
                    "session_frames_played",
                    Labels::NONE,
                    &SESSION_FRAMES_BOUNDS,
                    *frames_played as f64,
                );
            }
            TraceEvent::CdnPrefill { frames } => {
                self.counter_add("cdn_prefill_frames", Labels::NONE, at, u64::from(*frames));
            }
            TraceEvent::MultiSourcePromotion { granted, relays } => {
                let outcome = if *granted { "granted" } else { "denied" };
                self.counter_add("promotions", Labels::mode(outcome), at, 1);
                self.counter_add("promotion_relays", Labels::NONE, at, u64::from(*relays));
            }
            TraceEvent::RecoveryOutcome {
                action, success, ..
            } => {
                self.counter_add("recovery_outcomes", Labels::mode(action), at, 1);
                if !success {
                    self.counter_add("recovery_failures", Labels::mode(action), at, 1);
                }
            }
            TraceEvent::RecoveryDeadlineBlown { action, .. } => {
                self.counter_add("recovery_deadline_blown", Labels::mode(action), at, 1);
            }
            TraceEvent::HedgeIssued { fanout, .. } => {
                self.counter_add("hedges_issued", Labels::NONE, at, 1);
                self.counter_add("hedge_attempts", Labels::NONE, at, u64::from(*fanout));
            }
            TraceEvent::HedgeCancelled { remaining, .. } => {
                self.counter_add("hedges_cancelled", Labels::NONE, at, 1);
                self.counter_add(
                    "hedge_cancelled_attempts",
                    Labels::NONE,
                    at,
                    u64::from(*remaining),
                );
            }
            TraceEvent::HedgeWon { .. } => {
                self.counter_add("hedge_wins", Labels::NONE, at, 1);
            }
        }
    }

    /// Ingests a whole drained/snapshotted trace stream, in order.
    pub fn ingest_all(&mut self, records: &[TraceRecord]) {
        for r in records {
            self.ingest(r);
        }
    }

    /// Merges another registry into this one: counters and gauge
    /// count/sum add element-wise per window, gauge `last` takes the
    /// later operand, histograms add per bucket. The integer parts make
    /// the fold exactly associative; callers must still fold in a fixed
    /// order (spec-index order for fleets) for the float parts.
    ///
    /// A disabled side adopts the other; both enabled requires equal
    /// window widths.
    ///
    /// # Panics
    ///
    /// Panics if both registries are enabled with different window
    /// widths.
    pub fn merge(&mut self, other: &MetricRegistry) {
        if !other.is_enabled() {
            self.skipped_samples += other.skipped_samples;
            return;
        }
        if !self.is_enabled() {
            let skipped = self.skipped_samples;
            *self = other.clone();
            self.skipped_samples += skipped;
            return;
        }
        assert_eq!(
            self.window_ms, other.window_ms,
            "cannot merge obs registries with different window widths"
        );
        self.records += other.records;
        self.skipped_samples += other.skipped_samples;
        // A merged window is only final once both operands have sealed
        // it, so the watermark takes the minimum.
        self.sealed_below = self.sealed_below.min(other.sealed_below);
        for (key, windows) in &other.counters {
            let mine = self.counters.entry(*key).or_default();
            for (&w, &v) in windows {
                *mine.entry(w).or_insert(0) += v;
            }
        }
        for (key, windows) in &other.gauges {
            let mine = self.gauges.entry(*key).or_default();
            for (&w, cell) in windows {
                let slot = mine.entry(w).or_default();
                slot.count += cell.count;
                slot.sum += cell.sum;
                slot.last = cell.last;
            }
        }
        for (key, hist) in &other.histograms {
            self.histograms.entry(*key).or_default().merge(hist);
        }
    }

    /// Whether no series have any data.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Number of distinct series (counter + gauge + histogram keys).
    pub fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// All counter series, sorted by key.
    pub fn counters(&self) -> impl Iterator<Item = (&SeriesKey, &BTreeMap<u64, u64>)> {
        self.counters.iter()
    }

    /// All gauge series, sorted by key.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, &BTreeMap<u64, GaugeWindow>)> {
        self.gauges.iter()
    }

    /// All histogram series, sorted by key.
    pub fn histograms(&self) -> impl Iterator<Item = (&SeriesKey, &FixedHistogram)> {
        self.histograms.iter()
    }

    /// One counter window's value (0 when absent).
    pub fn counter_at(&self, name: &'static str, labels: Labels, window: u64) -> u64 {
        self.counters
            .get(&SeriesKey::new(name, labels))
            .and_then(|w| w.get(&window))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of a counter over all windows and label sets matching
    /// `filter`.
    pub fn counter_total_where(&self, name: &str, filter: impl Fn(&Labels) -> bool) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name && filter(&k.labels))
            .flat_map(|(_, windows)| windows.values())
            .sum()
    }

    /// Total of a counter over all windows and labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counter_total_where(name, |_| true)
    }

    /// Per-window totals of one counter summed across label sets
    /// matching `filter`.
    pub fn windowed_totals_where(
        &self,
        name: &str,
        filter: impl Fn(&Labels) -> bool,
    ) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for (key, windows) in &self.counters {
            if key.name != name || !filter(&key.labels) {
                continue;
            }
            for (&w, &v) in windows {
                *out.entry(w).or_insert(0) += v;
            }
        }
        out
    }

    /// Per-window `num / den` totals across matching label sets; a
    /// window present on either side appears in the output.
    pub fn windowed_ratio_where(
        &self,
        num: &str,
        den: &str,
        filter: impl Fn(&Labels) -> bool + Copy,
    ) -> Vec<WindowRatio> {
        let nums = self.windowed_totals_where(num, filter);
        let dens = self.windowed_totals_where(den, filter);
        let mut windows: Vec<u64> = nums.keys().chain(dens.keys()).copied().collect();
        windows.sort_unstable();
        windows.dedup();
        windows
            .into_iter()
            .map(|w| WindowRatio {
                window: w,
                start_ms: self.window_start_ms(w),
                num: nums.get(&w).copied().unwrap_or(0),
                den: dens.get(&w).copied().unwrap_or(0),
            })
            .collect()
    }

    /// Per-window recovery failure rate — failed recovery outcomes over
    /// all outcomes, summed across actions. The exact series the
    /// ROADMAP's adaptive-scheduling item needs as feedback input.
    pub fn recovery_failure_rate(&self) -> Vec<WindowRatio> {
        self.windowed_ratio_where("recovery_failures", "recovery_outcomes", |_| true)
    }

    /// Per-window candidate yield — candidates returned per scheduler
    /// recommendation — optionally restricted to one stream.
    pub fn candidate_yield(&self, stream: Option<u64>) -> Vec<WindowRatio> {
        self.windowed_ratio_where("scheduler_candidates", "scheduler_recommendations", |l| {
            stream.is_none() || l.stream == stream
        })
    }

    /// The `k` windows with the largest totals for one counter (summed
    /// across matching labels), largest first; ties break toward the
    /// earlier window so the ranking is total-ordered.
    pub fn top_windows_where(
        &self,
        name: &str,
        k: usize,
        filter: impl Fn(&Labels) -> bool,
    ) -> Vec<(u64, u64)> {
        let mut rows: Vec<(u64, u64)> = self
            .windowed_totals_where(name, filter)
            .into_iter()
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Distinct counter metric names, sorted.
    pub fn counter_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.counters.keys().map(|k| k.name).collect();
        names.dedup();
        names
    }

    /// Window indices with any counter or gauge data, ascending.
    fn populated_windows(&self) -> Vec<u64> {
        let mut ws: Vec<u64> = self
            .counters
            .values()
            .flat_map(|m| m.keys().copied())
            .chain(self.gauges.values().flat_map(|m| m.keys().copied()))
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }

    /// Serialises the registry as JSON Lines: one `meta` line, then each
    /// populated window's counter and gauge lines in window-major,
    /// sorted-key order, then run-scoped histogram lines and one
    /// deterministic `footer` line (`records` / `skipped_samples`) —
    /// deterministic bytes for a deterministic registry.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!("{{\"kind\":\"meta\",\"window_ms\":{}}}\n", self.window_ms);
        for window in self.populated_windows() {
            for (key, windows) in &self.counters {
                if let Some(&v) = windows.get(&window) {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"counter\",\"name\":\"{}\",\"labels\":\"{}\",\"window\":{},\"start_ms\":{},\"value\":{}}}",
                        key.name,
                        key.labels.render(),
                        window,
                        self.window_start_ms(window),
                        v
                    );
                }
            }
            for (key, windows) in &self.gauges {
                if let Some(cell) = windows.get(&window) {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"gauge\",\"name\":\"{}\",\"labels\":\"{}\",\"window\":{},\"start_ms\":{},\"count\":{},\"sum\":{},\"last\":{}}}",
                        key.name,
                        key.labels.render(),
                        window,
                        self.window_start_ms(window),
                        cell.count,
                        fmt_f64(cell.sum),
                        fmt_f64(cell.last)
                    );
                }
            }
        }
        for (key, hist) in &self.histograms {
            let bounds: Vec<String> = hist.bounds().iter().map(|&b| fmt_f64(b)).collect();
            let counts: Vec<String> = hist.counts().iter().map(|c| c.to_string()).collect();
            let _ = writeln!(
                out,
                "{{\"kind\":\"histogram\",\"name\":\"{}\",\"labels\":\"{}\",\"le\":[{}],\"counts\":[{}],\"total\":{},\"sum\":{}}}",
                key.name,
                key.labels.render(),
                bounds.join(","),
                counts.join(","),
                hist.total(),
                fmt_f64(hist.sum())
            );
        }
        let _ = writeln!(
            out,
            "{{\"kind\":\"footer\",\"records\":{},\"skipped_samples\":{}}}",
            self.records, self.skipped_samples
        );
        out
    }

    /// Serialises the registry as CSV with a fixed header, window-major
    /// like [`MetricRegistry::to_jsonl`], then histogram bucket rows
    /// (bucket bound in the `window` column position, `le=<bound>`) and
    /// two `footer` rows carrying the run totals — same six-column shape
    /// as every other row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,labels,window,start_ms,value\n");
        for window in self.populated_windows() {
            for (key, windows) in &self.counters {
                if let Some(&v) = windows.get(&window) {
                    let _ = writeln!(
                        out,
                        "counter,{},{},{},{},{}",
                        key.name,
                        csv_labels(&key.labels),
                        window,
                        self.window_start_ms(window),
                        v
                    );
                }
            }
            for (key, windows) in &self.gauges {
                if let Some(cell) = windows.get(&window) {
                    let _ = writeln!(
                        out,
                        "gauge,{},{},{},{},{}",
                        key.name,
                        csv_labels(&key.labels),
                        window,
                        self.window_start_ms(window),
                        fmt_f64(cell.last)
                    );
                }
            }
        }
        for (key, hist) in &self.histograms {
            let mut bounds: Vec<String> = hist.bounds().iter().map(|&b| fmt_f64(b)).collect();
            bounds.push("+inf".to_string());
            for (le, &count) in bounds.iter().zip(hist.counts()) {
                let _ = writeln!(
                    out,
                    "histogram,{},{},le={},,{}",
                    key.name,
                    csv_labels(&key.labels),
                    le,
                    count
                );
            }
        }
        let _ = writeln!(out, "footer,records,-,,,{}", self.records);
        let _ = writeln!(out, "footer,skipped_samples,-,,,{}", self.skipped_samples);
        out
    }
}

/// Deterministic float rendering shared by both exporters: integral
/// values print without a fraction, everything else with six decimals.
fn fmt_f64(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.6}")
    }
}

/// Labels in CSV cells use `;` as the pair separator so the cell never
/// needs quoting; empty label sets render as `-`.
fn csv_labels(labels: &Labels) -> String {
    let rendered = labels.render().replace(',', ";");
    if rendered.is_empty() {
        "-".to_string()
    } else {
        rendered
    }
}

// ---------------------------------------------------------------------
// Wall-clock stage profiler
// ---------------------------------------------------------------------

/// The runner's real phases, profiled with scoped wall-clock span
/// timers. Wall-clock times are **nondeterministic** — they may appear
/// in stderr and `RunnerStats`, never in golden stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `control::scheduler` candidate recommendation.
    SchedulerCall,
    /// `data::recovery` action decision.
    RecoveryDecision,
    /// `data::reorder` blocked-head drain.
    ReorderDrain,
    /// Sharded batch execution on worker threads.
    ShardExecute,
    /// Deterministic merge of shard outcomes.
    ShardMerge,
    /// Fleet report fold across worlds.
    FleetFold,
    /// `core::session` hedge-outcome resolution (win/cancel bookkeeping).
    HedgeResolve,
    /// `core::fuzz` candidate world evaluation.
    FuzzEval,
    /// Incremental obs window sealing (drain + ingest + seal).
    WindowSeal,
    /// SLO rule evaluation over sealed windows.
    AlertEval,
}

impl Stage {
    /// Every stage, in table order.
    pub const ALL: [Stage; 10] = [
        Stage::SchedulerCall,
        Stage::RecoveryDecision,
        Stage::ReorderDrain,
        Stage::ShardExecute,
        Stage::ShardMerge,
        Stage::FleetFold,
        Stage::HedgeResolve,
        Stage::FuzzEval,
        Stage::WindowSeal,
        Stage::AlertEval,
    ];

    /// Stable table label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::SchedulerCall => "scheduler_call",
            Stage::RecoveryDecision => "recovery_decision",
            Stage::ReorderDrain => "reorder_drain",
            Stage::ShardExecute => "shard_execute",
            Stage::ShardMerge => "shard_merge",
            Stage::FleetFold => "fleet_fold",
            Stage::HedgeResolve => "hedge_resolve",
            Stage::FuzzEval => "fuzz_eval",
            Stage::WindowSeal => "window_seal",
            Stage::AlertEval => "alert_eval",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::SchedulerCall => 0,
            Stage::RecoveryDecision => 1,
            Stage::ReorderDrain => 2,
            Stage::ShardExecute => 3,
            Stage::ShardMerge => 4,
            Stage::FleetFold => 5,
            Stage::HedgeResolve => 6,
            Stage::FuzzEval => 7,
            Stage::WindowSeal => 8,
            Stage::AlertEval => 9,
        }
    }
}

const STAGE_COUNT: usize = Stage::ALL.len();

static PROFILER_ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ATOMIC_ZERO: AtomicU64 = AtomicU64::new(0);
static STAGE_SELF_NANOS: [AtomicU64; STAGE_COUNT] = [ATOMIC_ZERO; STAGE_COUNT];
static STAGE_CALLS: [AtomicU64; STAGE_COUNT] = [ATOMIC_ZERO; STAGE_COUNT];

thread_local! {
    /// Per-thread stack of open spans: (stage index, child nanos
    /// accumulated so far). Used to subtract nested spans so the table
    /// reports *self* time.
    static SPAN_STACK: std::cell::RefCell<Vec<(usize, u64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Turns the stage profiler on or off process-wide. Off (the default)
/// makes [`time_stage`] cost a single relaxed atomic load, so profiled
/// hot paths (recovery decisions, reorder drains) stay essentially free
/// in library use.
pub fn profiler_enable(on: bool) {
    PROFILER_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the stage profiler is currently recording.
pub fn profiler_enabled() -> bool {
    PROFILER_ENABLED.load(Ordering::Relaxed)
}

/// A scoped stage span: created by [`time_stage`], records on drop.
#[derive(Debug)]
pub struct StageGuard {
    open: Option<(usize, Instant)>,
}

impl StageGuard {
    fn disabled() -> StageGuard {
        StageGuard { open: None }
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let Some((idx, started)) = self.open.take() else {
            return;
        };
        let elapsed = started.elapsed().as_nanos() as u64;
        let child = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let child = match stack.pop() {
                Some((top, child)) if top == idx => child,
                // Mismatched or missing frame (profiler toggled while a
                // span was open): attribute the whole elapsed time.
                other => {
                    if let Some(frame) = other {
                        stack.push(frame);
                    }
                    0
                }
            };
            if let Some((_, parent_child)) = stack.last_mut() {
                *parent_child += elapsed;
            }
            child
        });
        STAGE_SELF_NANOS[idx].fetch_add(elapsed.saturating_sub(child), Ordering::Relaxed);
        STAGE_CALLS[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// Opens a scoped wall-clock span for `stage`; the span records into the
/// process-wide stage table when the returned guard drops. Nested spans
/// on the same thread subtract from their parent, so the table shows
/// self time per stage.
pub fn time_stage(stage: Stage) -> StageGuard {
    if !profiler_enabled() {
        return StageGuard::disabled();
    }
    let idx = stage.index();
    SPAN_STACK.with(|stack| stack.borrow_mut().push((idx, 0)));
    StageGuard {
        open: Some((idx, Instant::now())),
    }
}

/// One row of the stage table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageRow {
    /// Spans recorded.
    pub calls: u64,
    /// Wall-clock self time (nested spans subtracted), in nanoseconds.
    pub self_nanos: u64,
}

/// A snapshot of the process-wide per-stage self-time table.
///
/// Wall-clock data: nondeterministic, for stderr / `RunnerStats` only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTable {
    rows: [StageRow; STAGE_COUNT],
}

impl StageTable {
    /// Reads the current process-wide totals.
    pub fn snapshot() -> StageTable {
        let mut rows = [StageRow::default(); STAGE_COUNT];
        for (i, row) in rows.iter_mut().enumerate() {
            row.calls = STAGE_CALLS[i].load(Ordering::Relaxed);
            row.self_nanos = STAGE_SELF_NANOS[i].load(Ordering::Relaxed);
        }
        StageTable { rows }
    }

    /// The table of activity since an `earlier` snapshot.
    pub fn delta_since(&self, earlier: &StageTable) -> StageTable {
        let mut rows = [StageRow::default(); STAGE_COUNT];
        for (i, row) in rows.iter_mut().enumerate() {
            row.calls = self.rows[i].calls.saturating_sub(earlier.rows[i].calls);
            row.self_nanos = self.rows[i]
                .self_nanos
                .saturating_sub(earlier.rows[i].self_nanos);
        }
        StageTable { rows }
    }

    /// One stage's row.
    pub fn row(&self, stage: Stage) -> StageRow {
        self.rows[stage.index()]
    }

    /// Rows with any recorded calls, in table order.
    pub fn active_rows(&self) -> impl Iterator<Item = (Stage, StageRow)> + '_ {
        Stage::ALL
            .into_iter()
            .map(|s| (s, self.row(s)))
            .filter(|(_, r)| r.calls > 0)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|r| r.calls == 0)
    }

    /// Total self time across stages, in nanoseconds.
    pub fn total_self_nanos(&self) -> u64 {
        self.rows.iter().map(|r| r.self_nanos).sum()
    }

    /// Renders the table for stderr (never stdout: wall-clock numbers
    /// are nondeterministic and must stay out of golden output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>10} {:>12} {:>10}",
            "stage", "calls", "self ms", "ns/call"
        );
        for (stage, row) in self.active_rows() {
            let per_call = row.self_nanos / row.calls.max(1);
            let _ = writeln!(
                out,
                "{:<20} {:>10} {:>12.3} {:>10}",
                stage.label(),
                row.calls,
                row.self_nanos as f64 / 1e6,
                per_call
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn rec(at_ms: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq: 0,
            at: SimTime::from_millis(at_ms),
            session: None,
            event,
        }
    }

    fn outcome(at_ms: u64, success: bool) -> TraceRecord {
        rec(
            at_ms,
            TraceEvent::RecoveryOutcome {
                dts_ms: at_ms,
                action: "arq",
                success,
            },
        )
    }

    #[test]
    fn boundary_event_opens_the_new_window() {
        let mut reg = MetricRegistry::new(SimDuration::from_millis(1000));
        reg.ingest(&outcome(999, true));
        reg.ingest(&outcome(1000, true)); // exactly on the boundary
        reg.ingest(&outcome(1001, false));
        let w0 = reg.counter_at("recovery_outcomes", Labels::mode("arq"), 0);
        let w1 = reg.counter_at("recovery_outcomes", Labels::mode("arq"), 1);
        assert_eq!((w0, w1), (1, 2));
    }

    #[test]
    fn empty_windows_are_absent_not_zero() {
        let mut reg = MetricRegistry::new(SimDuration::from_millis(100));
        reg.ingest(&outcome(50, true));
        reg.ingest(&outcome(950, false));
        // Windows 1..=8 saw nothing and must not materialise.
        let totals = reg.windowed_totals_where("recovery_outcomes", |_| true);
        assert_eq!(totals.keys().copied().collect::<Vec<_>>(), vec![0, 9]);
        // But the ratio query surfaces both populated windows.
        let rate = reg.recovery_failure_rate();
        assert_eq!(rate.len(), 2);
        assert_eq!(rate[0].rate(), 0.0);
        assert_eq!(rate[1].rate(), 1.0);
        assert_eq!(rate[1].start_ms, 900);
    }

    #[test]
    fn empty_denominator_window_excluded_from_ratio_ranking() {
        // Window 1 is a real spike (2/2 failures); window 2 has a
        // numerator artifact but zero denominator (no evidence). The
        // ranking must surface the spike and skip the 0-den window
        // entirely instead of comparing it as rate 0.0.
        let windows = [
            WindowRatio {
                window: 0,
                start_ms: 0,
                num: 0,
                den: 4,
            },
            WindowRatio {
                window: 1,
                start_ms: 1000,
                num: 2,
                den: 2,
            },
            WindowRatio {
                window: 2,
                start_ms: 2000,
                num: 1,
                den: 0,
            },
        ];
        assert!(!windows[2].has_samples());
        let top = top_ratio_windows(&windows, 3);
        assert_eq!(
            top.iter().map(|w| w.window).collect::<Vec<_>>(),
            vec![1, 0],
            "0-den window must not appear in the ranking"
        );
        // Even when k would admit it, the empty window stays out.
        let top1 = top_ratio_windows(&windows, 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].window, 1);
        // All-empty input ranks to nothing.
        assert!(top_ratio_windows(
            &[WindowRatio {
                window: 5,
                start_ms: 5000,
                num: 0,
                den: 0,
            }],
            2
        )
        .is_empty());
    }

    #[test]
    fn per_node_window_queries_filter_on_node_label() {
        let mut reg = MetricRegistry::new(SimDuration::from_millis(1000));
        reg.counter_add(
            "churn_transitions",
            Labels::node(3),
            SimTime::from_millis(100),
            1,
        );
        reg.counter_add(
            "churn_transitions",
            Labels::node(3),
            SimTime::from_millis(1100),
            2,
        );
        reg.counter_add(
            "churn_transitions",
            Labels::node(9),
            SimTime::from_millis(100),
            7,
        );
        let n3 = reg.windowed_totals_where("churn_transitions", |l| l.node == Some(3));
        assert_eq!(n3.get(&0), Some(&1));
        assert_eq!(n3.get(&1), Some(&2));
        assert!(reg
            .windowed_totals_where("churn_transitions", |l| l.node == Some(4))
            .is_empty());
        let ratio = reg.windowed_ratio_where("churn_transitions", "churn_transitions", |l| {
            l.node == Some(9)
        });
        assert_eq!(ratio.len(), 1);
        assert_eq!((ratio[0].num, ratio[0].den), (7, 7));
    }

    #[test]
    fn zero_length_run_has_no_windows() {
        let reg = MetricRegistry::new(SimDuration::from_millis(1000));
        assert!(reg.is_empty());
        assert_eq!(reg.series_count(), 0);
        assert!(reg.recovery_failure_rate().is_empty());
        assert!(reg.candidate_yield(None).is_empty());
        // Exporters still produce the meta/footer frame and header.
        assert_eq!(reg.to_jsonl().lines().count(), 2);
        assert_eq!(reg.to_csv().lines().count(), 3);
    }

    #[test]
    fn disabled_registry_ignores_everything() {
        let mut reg = MetricRegistry::disabled();
        assert!(!reg.is_enabled());
        reg.ingest(&outcome(10, false));
        reg.counter_add("x", Labels::NONE, SimTime::ZERO, 5);
        reg.gauge_set("y", Labels::NONE, SimTime::ZERO, 1.0);
        reg.histogram_observe("z", Labels::NONE, &[1.0], 0.5);
        assert!(reg.is_empty());
        assert_eq!(reg.records(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        MetricRegistry::new(SimDuration::ZERO);
    }

    #[test]
    fn candidate_yield_filters_by_stream() {
        let mut reg = MetricRegistry::new(SimDuration::from_millis(1000));
        for (at, stream, candidates) in [(100, 1, 4), (200, 2, 8), (1100, 1, 2)] {
            reg.ingest(&rec(
                at,
                TraceEvent::SchedulerRecommendation {
                    stream,
                    substream: 0,
                    candidates,
                    service_time_ms: 1.5,
                },
            ));
        }
        let all = reg.candidate_yield(None);
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].num, all[0].den), (12, 2));
        let s1 = reg.candidate_yield(Some(1));
        assert_eq!((s1[0].num, s1[0].den), (4, 1));
        assert_eq!((s1[1].num, s1[1].den), (2, 1));
        assert_eq!(s1[1].rate(), 2.0);
        // Service time also landed in the histogram.
        let hist = reg
            .histograms()
            .find(|(k, _)| k.name == "scheduler_service_time_ms")
            .map(|(_, h)| h)
            .expect("histogram present");
        assert_eq!(hist.total(), 3);
    }

    #[test]
    fn gauge_windows_track_count_sum_last() {
        let mut reg = MetricRegistry::new(SimDuration::from_millis(1000));
        let labels = Labels::node(7);
        reg.gauge_set("node_online", labels, SimTime::from_millis(100), 1.0);
        reg.gauge_set("node_online", labels, SimTime::from_millis(900), 0.0);
        let (_, windows) = reg.gauges().next().expect("gauge present");
        let cell = windows[&0];
        assert_eq!(cell.count, 2);
        assert_eq!(cell.sum, 1.0);
        assert_eq!(cell.last, 0.0);
        assert_eq!(cell.mean(), 0.5);
        // Non-finite gauge writes are skipped and counted.
        reg.gauge_set("node_online", labels, SimTime::ZERO, f64::NAN);
        assert_eq!(reg.skipped_samples(), 1);
    }

    #[test]
    fn merge_is_window_wise_and_adopts_disabled() {
        let window = SimDuration::from_millis(500);
        let mut a = MetricRegistry::new(window);
        let mut b = MetricRegistry::new(window);
        a.ingest(&outcome(100, false));
        b.ingest(&outcome(100, true));
        b.ingest(&outcome(600, false));

        let mut merged = MetricRegistry::disabled();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.counter_total("recovery_outcomes"), 3);
        assert_eq!(merged.counter_total("recovery_failures"), 2);
        assert_eq!(merged.records(), 3);
        let rate = merged.recovery_failure_rate();
        assert_eq!((rate[0].num, rate[0].den), (1, 2));
        assert_eq!((rate[1].num, rate[1].den), (1, 1));

        // Exactly associative over a different nesting.
        let mut nested = a.clone();
        nested.merge(&b);
        let mut outer = MetricRegistry::disabled();
        outer.merge(&nested);
        assert_eq!(outer, merged);
    }

    #[test]
    #[should_panic(expected = "window widths")]
    fn merge_rejects_mismatched_windows() {
        let mut a = MetricRegistry::new(SimDuration::from_millis(100));
        a.merge(&MetricRegistry::new(SimDuration::from_millis(200)));
    }

    #[test]
    fn exports_are_deterministic_and_parse_shaped() {
        let mut reg = MetricRegistry::new(SimDuration::from_millis(1000));
        reg.ingest(&outcome(10, false));
        reg.ingest(&rec(
            20,
            TraceEvent::SchedulerRecommendation {
                stream: 3,
                substream: 1,
                candidates: 5,
                service_time_ms: 2.25,
            },
        ));
        let jsonl = reg.to_jsonl();
        assert_eq!(jsonl, reg.to_jsonl(), "export must be reproducible");
        assert!(jsonl.starts_with("{\"kind\":\"meta\""));
        assert!(jsonl.contains("\"name\":\"recovery_failures\""));
        assert!(jsonl.contains("\"labels\":\"mode=arq\""));
        assert!(jsonl.contains("\"le\":[0.500000,1,2,5,10,20,50,100]"));
        assert!(
            jsonl.ends_with("{\"kind\":\"footer\",\"records\":2,\"skipped_samples\":0}\n"),
            "footer closes the stream"
        );
        // Every line is brace-delimited (cheap well-formedness check;
        // no JSON parser in the offline workspace).
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let csv = reg.to_csv();
        assert!(csv.starts_with("kind,name,labels,window,start_ms,value\n"));
        assert!(csv.contains("counter,recovery_outcomes,mode=arq,0,0,1"));
        assert!(csv.contains("histogram,scheduler_service_time_ms,-,le=+inf,,0"));
        assert!(csv.ends_with("footer,records,-,,,2\nfooter,skipped_samples,-,,,0\n"));
        let cols = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
    }

    #[test]
    fn seal_until_streams_windows_in_order_including_empty() {
        let mut reg = MetricRegistry::new(SimDuration::from_millis(100));
        reg.ingest(&outcome(50, true));
        reg.ingest(&outcome(250, false));
        assert_eq!(reg.sealed_below(), 0);
        let sealed = reg.seal_until(3);
        assert_eq!(reg.sealed_below(), 3);
        assert_eq!(
            sealed.iter().map(|s| s.window).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(sealed[0].total("recovery_outcomes"), 1);
        assert_eq!(sealed[0].total("recovery_failures"), 0);
        assert!(sealed[1].counters.is_empty(), "empty window still sealed");
        assert_eq!(sealed[2].total("recovery_failures"), 1);
        // Sealing is monotonic: re-sealing the same range yields nothing.
        assert!(reg.seal_until(3).is_empty());
        assert!(reg.seal_until(1).is_empty());
    }

    #[test]
    fn top_windows_rank_by_value_then_window() {
        let mut reg = MetricRegistry::new(SimDuration::from_millis(100));
        for (at, n) in [(50, 2u64), (150, 5), (250, 5), (350, 1)] {
            reg.counter_add("reorder_stalls", Labels::NONE, SimTime::from_millis(at), n);
        }
        let top = reg.top_windows_where("reorder_stalls", 3, |_| true);
        assert_eq!(top, vec![(1, 5), (2, 5), (0, 2)]);
    }

    #[test]
    fn labels_render_stable() {
        assert_eq!(Labels::NONE.render(), "");
        assert_eq!(Labels::stream(4).render(), "stream=4");
        let full = Labels {
            stream: Some(1),
            node: Some(2),
            mode: Some("arq"),
        };
        assert_eq!(full.render(), "stream=1,node=2,mode=arq");
        assert_eq!(csv_labels(&full), "stream=1;node=2;mode=arq");
        assert_eq!(csv_labels(&Labels::NONE), "-");
    }

    // Profiler tests share mutable process-wide state; keep them in one
    // test so parallel test threads cannot interleave enable/disable.
    #[test]
    fn profiler_records_self_time_only_when_enabled() {
        // Disabled: guards are no-ops.
        profiler_enable(false);
        let before = StageTable::snapshot();
        drop(time_stage(Stage::FleetFold));
        let table = StageTable::snapshot().delta_since(&before);
        assert_eq!(table.row(Stage::FleetFold).calls, 0);
        assert!(table.is_empty());

        // Enabled: nested spans subtract from the parent.
        profiler_enable(true);
        let before = StageTable::snapshot();
        {
            let _outer = time_stage(Stage::ShardExecute);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = time_stage(Stage::RecoveryDecision);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        profiler_enable(false);
        let table = StageTable::snapshot().delta_since(&before);
        let outer = table.row(Stage::ShardExecute);
        let inner = table.row(Stage::RecoveryDecision);
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(inner.self_nanos >= 1_000_000, "inner span measured");
        assert!(outer.self_nanos >= 1_000_000, "outer self time measured");
        let rendered = table.render();
        assert!(rendered.contains("shard_execute"));
        assert!(rendered.contains("recovery_decision"));
        assert!(!table.is_empty());
        assert!(table.total_self_nanos() >= inner.self_nanos);
    }
}
