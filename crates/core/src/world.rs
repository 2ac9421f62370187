//! The end-to-end simulated delivery world: event loop and routing.
//!
//! A [`World`] wires every RLive component onto the discrete-event
//! substrate. The actors themselves live in `crate::actors` (stream
//! sources, CDN edges, relays, clients) and the session/control
//! orchestration in `crate::session`; this module owns only the event
//! queue, the per-event routing that resolves typed views across
//! actors, and [`RunReport`] assembly. Per-client delivery mode
//! supports A/B testing of control vs test policies inside one shared
//! world.

use crate::actors::actor_ctx;
use crate::actors::cdn::CdnEdge;
use crate::actors::client::{Client, ClientMode, SubSource};
use crate::actors::relay::{resolve_views, Relay, Serving, SubscriberView};
use crate::actors::stream::{StreamState, SuperNode};
use crate::arena::IdArena;
use crate::config::{DeliveryMode, SystemConfig};
use crate::cost::TrafficLedger;
use crate::energy::EnergyModel;
use crate::events::{Event, SliceDelivery, SlicePool, TraceEvent, TraceSink, EVENT_KINDS};
use crate::qoe::GroupQoe;
use crate::session;
use crate::shard::ShardBatch;
use rlive_control::{GlobalScheduler, NodeClass, NodeId, NodeStatus, StaticFeatures};
use rlive_data::recovery::RecoveryStats;
use rlive_media::frame::FrameHeader;
use rlive_sim::churn::{ChurnModel, ChurnTimeline};
use rlive_sim::metrics::TimeSeries;
use rlive_sim::nat::TraversalModel;
use rlive_sim::obs::{time_stage, Stage};
use rlive_sim::slo::{SloEngine, SloReport};
use rlive_sim::trace::TraceCounters;
use rlive_sim::{EventQueue, MetricRegistry, SimDuration, SimRng, SimTime};
use rlive_workload::dsl::ScriptedEvent;
use rlive_workload::nodes::NodePopulation;
use rlive_workload::scenario::{Scenario, ScenarioError};
use rlive_workload::streams::StreamPopularity;
use rlive_workload::traces::RetxTraceGenerator;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Number of CDN edge servers.
const CDN_EDGES: usize = 2;

/// RTT between clients and CDN edges, ms.
const CDN_RTT_MS: u64 = 36;

/// Experiment group of a client, for A/B splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// Control group (e.g. CDN-only).
    Control,
    /// Test group (e.g. RLive).
    Test,
}

/// The per-group policy of a world run.
#[derive(Debug, Clone)]
pub struct GroupPolicy {
    /// Delivery mode of control-group clients.
    pub control: DeliveryMode,
    /// Delivery mode of test-group clients.
    pub test: DeliveryMode,
    /// Fraction of users assigned to the test group.
    pub test_fraction: f64,
}

impl GroupPolicy {
    /// Everyone runs the same mode (single-arm experiments).
    pub fn uniform(mode: DeliveryMode) -> Self {
        GroupPolicy {
            control: mode,
            test: mode,
            test_fraction: 1.0,
        }
    }

    /// A 50/50 A/B split.
    pub fn ab(control: DeliveryMode, test: DeliveryMode) -> Self {
        GroupPolicy {
            control,
            test,
            test_fraction: 0.5,
        }
    }
}

/// Aggregated output of one world run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// QoE per group.
    pub control_qoe: GroupQoe,
    /// QoE of the test group.
    pub test_qoe: GroupQoe,
    /// Traffic per group.
    pub control_traffic: TrafficLedger,
    /// Traffic of the test group.
    pub test_traffic: TrafficLedger,
    /// Per-relay traffic expansion rates γ (serving/backward).
    pub relay_expansion_rates: Vec<f64>,
    /// Subscriber count of each relay that ended the run with at least
    /// one subscriber.
    pub relay_subscriber_counts: Vec<usize>,
    /// `(seconds, γ)` samples of the windowed aggregate expansion rate.
    pub gamma_over_time: Vec<(f64, f64)>,
    /// Per-event-kind counts of the run (simulator instrumentation).
    pub event_counts: TraceCounters,
    /// Mean relay utilisation samples.
    pub relay_utilization: Vec<f64>,
    /// Scheduler recommendation latencies (ms).
    pub scheduler_latency_ms: Vec<f64>,
    /// Fraction of recommended candidates that turned out invalid.
    pub invalid_candidate_fraction: f64,
    /// Scheduler requests served.
    pub scheduler_requests: u64,
    /// Energy aggregates per group: (cpu%, mem%, temp%, battery%).
    pub control_energy: (f64, f64, f64, f64),
    /// Test-group energy aggregates.
    pub test_energy: (f64, f64, f64, f64),
    /// Shardable batches (≥ 2 consecutive same-class events) the event
    /// loop formed. Formation always runs, so this is invariant across
    /// `--world-jobs` — the shard-invariance battery relies on that.
    pub shardable_batches: u64,
    /// Events covered by those batches.
    pub shardable_events: u64,
    /// Windowed observability series built from the trace stream
    /// (disabled/empty unless [`SystemConfig::obs_window_ms`] is set).
    /// Derived exclusively from sim-time inputs, so it is byte-identical
    /// across any `--jobs` / `--world-jobs` combination.
    pub obs: MetricRegistry,
    /// SLO alert stream evaluated over sealed obs windows
    /// (empty unless [`SystemConfig::slo_enabled`] is set alongside
    /// `obs_window_ms`). A pure function of the sealed window sequence,
    /// so byte-identical across the parallelism grid.
    pub slo: SloReport,
    /// Label of the scheduler policy the world ran under
    /// (`"static"` / `"adaptive"`).
    pub sched_policy: &'static str,
    /// Per-window demotion counts from the scheduler policy (empty
    /// under the static policy). Window indices use the policy's
    /// tumbling sim-time window, the same arithmetic the obs layer
    /// uses, so the series lines up with the exported obs windows.
    pub sched_demotions: BTreeMap<u64, u64>,
    /// Label of the recovery policy the world ran under
    /// (`"qoe_edf"` / `"racing"`).
    pub recovery_policy: &'static str,
    /// Total simulated duration.
    pub duration: SimDuration,
}

/// The world: all simulated state plus the event loop.
pub struct World {
    pub(crate) cfg: SystemConfig,
    pub(crate) scenario: Scenario,
    pub(crate) policy: GroupPolicy,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) rng: SimRng,
    pub(crate) scheduler: GlobalScheduler,
    pub(crate) traversal: TraversalModel,
    pub(crate) retx_traces: RetxTraceGenerator,
    pub(crate) energy_model: EnergyModel,
    /// A fresh session's recovery statistics: the model's priors. Every
    /// session starts from a clone, which shares its latency CDF.
    pub(crate) recovery_prior: RecoveryStats,
    pub(crate) streams: Vec<StreamState>,
    pub(crate) popularity: StreamPopularity,
    pub(crate) cdn: Vec<CdnEdge>,
    pub(crate) relays: Vec<Relay>,
    /// Ids of the relays that have a serving part, ascending: the only
    /// relays with subscribers or traffic to report.
    pub(crate) served: Vec<u32>,
    /// Per stream, the ids of the relays that feed it, ascending: the
    /// relays a stream frame visits (see [`World::refile_feeder`]).
    pub(crate) feeders: Vec<Vec<u32>>,
    pub(crate) clients: IdArena<Client>,
    pub(crate) next_client: u64,
    pub(crate) control_qoe: GroupQoe,
    pub(crate) test_qoe: GroupQoe,
    pub(crate) control_traffic: TrafficLedger,
    pub(crate) test_traffic: TrafficLedger,
    pub(crate) control_energy: Vec<(f64, f64, f64, f64)>,
    pub(crate) test_energy: Vec<(f64, f64, f64, f64)>,
    pub(crate) candidate_probes: u64,
    pub(crate) candidate_invalid: u64,
    /// Events handled per kind, indexed by [`Event::kind_index`].
    pub(crate) event_counts: [u64; EVENT_KINDS.len()],
    /// Aggregate traffic expansion rate sampled over time (Fig 11c).
    pub(crate) gamma_series: TimeSeries,
    pub(crate) last_gamma_sample: (u64, u64, SimTime),
    pub(crate) end_at: SimTime,
    /// Worker threads for sharded batch execution (1 = sequential
    /// reference path). Resolved from the config at build time;
    /// override with [`World::set_world_jobs`].
    pub(crate) world_jobs: usize,
    /// Smallest batch worth spawning worker threads for; smaller
    /// batches run inline. Execution-only tuning: it never affects
    /// results, only which path produces them.
    pub(crate) shard_min_batch: usize,
    /// Shardable batches formed (jobs-invariant; see
    /// [`RunReport::shardable_batches`]).
    pub(crate) shardable_batches: u64,
    /// Events covered by shardable batches.
    pub(crate) shardable_events: u64,
    /// Centralised sequencing super-node state (§7.3.2).
    pub(crate) super_node: SuperNode,
    /// Structured-event telemetry sink every component emits into;
    /// disabled (zero-cost) unless obs is on or a caller attaches a sink
    /// via [`World::attach_trace_sink`].
    pub(crate) trace: TraceSink,
    /// A caller's sink on an obs world: a tee of [`World::trace`] that
    /// [`World::obs_advance`] feeds every drained batch, in order.
    pub(crate) trace_tap: TraceSink,
    /// The incrementally-built registry (disabled unless
    /// [`SystemConfig::obs_window_ms`] is set): the event loop drains
    /// the trace ring at window boundaries and seals crossed windows.
    pub(crate) obs: MetricRegistry,
    /// SLO engine fed sealed windows as they close, present when
    /// [`SystemConfig::slo_enabled`] is set.
    pub(crate) slo: Option<SloEngine>,
    /// The recovery policy driving loss recovery (the `data::recovery`
    /// seam), resolved from [`SystemConfig::recovery_policy`].
    pub(crate) recovery_policy: Box<dyn rlive_data::recovery::RecoveryPolicy>,
    /// Event-loop scratch, reused so steady-state routing allocates
    /// nothing: relay fan-out views, client ids of one stream frame, the
    /// batch (events plus ticked clients) `form_batch` fills and the
    /// inline path hands back, the boxes of in-flight slices, the
    /// buffers of the per-client recovery and control passes, and those
    /// of a relay pick (the probe list, a promotion's chosen relays)
    /// and a CDN prefill (the frames' dts). Each starts empty and grows
    /// on first use.
    pub(crate) views: Vec<SubscriberView>,
    pub(crate) client_ids: Vec<u64>,
    pub(crate) batch: ShardBatch,
    pub(crate) slices: SlicePool,
    pub(crate) control: session::ControlScratch,
    pub(crate) probes: Vec<NodeId>,
    pub(crate) taken: Vec<u32>,
    pub(crate) prefill_dts: Vec<u64>,
}

impl World {
    /// Builds a world for a scenario and group policy.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`Scenario::validate`] — a
    /// degenerate scenario (zero streams, empty window, out-of-range
    /// fractions) is a programming error at this layer; the scenario
    /// DSL surfaces the same check as a hard `Result` before worlds
    /// are ever built. One exception: an empty node population is
    /// legal here — a zero-relay world still plays through the CDN
    /// (the shard-invariance battery runs exactly that) — while the
    /// DSL, whose programs exist to exercise relay behaviour, keeps
    /// rejecting it.
    pub fn new(scenario: Scenario, cfg: SystemConfig, policy: GroupPolicy, seed: u64) -> Self {
        match scenario.validate() {
            Ok(()) | Err(ScenarioError::EmptyPopulation) => {}
            Err(e) => panic!("invalid scenario: {e}"),
        }
        let mut rng = SimRng::new(seed);
        let population = NodePopulation::generate(&scenario.population, &mut rng);
        let mut scheduler = GlobalScheduler::new(cfg.scheduler.clone(), rng.fork(1));

        // Streams.
        let popularity = StreamPopularity::new(scenario.streams, scenario.zipf_s);
        let streams: Vec<StreamState> = (0..scenario.streams)
            .map(|i| StreamState::new(i as u64, rng.fork(100 + i as u64)))
            .collect();

        // CDN edges.
        let cdn: Vec<CdnEdge> = (0..CDN_EDGES)
            .map(|i| CdnEdge::new(cfg.cdn_edge_mbps, CDN_RTT_MS, rng.fork(200 + i as u64)))
            .collect();

        // Relays, all drawing churn from one shared model. The node specs
        // are freed once relays and registry entries are built.
        let churn = Arc::new(population.churn);
        scheduler.reserve(population.nodes.len());
        let relays: Vec<Relay> = population
            .nodes
            .into_iter()
            .map(|spec| {
                let statics = StaticFeatures {
                    isp: spec.isp,
                    region: spec.region,
                    bgp_prefix: spec.bgp_prefix,
                    geo: spec.geo,
                    class: if spec.high_quality {
                        NodeClass::HighQuality
                    } else {
                        NodeClass::Normal
                    },
                    conn_type: rlive_control::features::ConnectionType::Cable,
                    nat: spec.nat,
                };
                scheduler.register_node(
                    NodeId(spec.id),
                    statics,
                    NodeStatus::idle(spec.capacity_mbps),
                );
                Relay::new(&spec, Arc::clone(&churn), &mut rng)
            })
            .collect();

        let end_at = SimTime::ZERO + scenario.duration;
        let world_jobs = cfg.effective_world_jobs();
        let recovery_policy =
            rlive_data::recovery::build_recovery_policy(cfg.recovery_policy, &cfg.recovery);
        let mut world = World {
            cfg,
            scenario,
            policy,
            // Room for the bootstrap events, rounded up as doubling from
            // empty would have grown it.
            queue: EventQueue::with_capacity(
                (streams.len() + relays.len() + cdn.len() + 1).next_power_of_two(),
            ),
            rng,
            scheduler,
            traversal: TraversalModel::default(),
            retx_traces: RetxTraceGenerator::new(),
            energy_model: EnergyModel::default(),
            recovery_prior: RecoveryStats::default(),
            feeders: vec![Vec::new(); streams.len()],
            streams,
            popularity,
            cdn,
            relays,
            served: Vec::new(),
            clients: IdArena::new(),
            next_client: 0,
            control_qoe: GroupQoe::new(),
            test_qoe: GroupQoe::new(),
            control_traffic: TrafficLedger::new(),
            test_traffic: TrafficLedger::new(),
            control_energy: Vec::new(),
            test_energy: Vec::new(),
            candidate_probes: 0,
            candidate_invalid: 0,
            event_counts: [0; EVENT_KINDS.len()],
            gamma_series: TimeSeries::new(15.0),
            last_gamma_sample: (0, 0, SimTime::ZERO),
            end_at,
            world_jobs,
            shard_min_batch: 4,
            shardable_batches: 0,
            shardable_events: 0,
            super_node: SuperNode::new(),
            trace: TraceSink::disabled(),
            trace_tap: TraceSink::disabled(),
            obs: MetricRegistry::disabled(),
            slo: None,
            recovery_policy,
            views: Vec::new(),
            client_ids: Vec::new(),
            batch: ShardBatch::default(),
            slices: SlicePool::default(),
            control: session::ControlScratch::default(),
            probes: Vec::new(),
            taken: Vec::new(),
            prefill_dts: Vec::new(),
        };
        // Observability needs the *complete* trace stream (a wrapped
        // ring under-counts early windows), so an obs-enabled world
        // emits into its own unbounded ring and builds its registry
        // incrementally, sealing windows as the clock crosses their
        // boundaries. A caller-attached sink becomes a tee of that ring.
        if world.cfg.obs_window_ms > 0 {
            world.wire_trace_sink(TraceSink::unbounded());
            world.obs = MetricRegistry::new(SimDuration::from_millis(world.cfg.obs_window_ms));
            if world.cfg.slo_enabled {
                world.slo = Some(SloEngine::with_default_rules());
            }
        }
        world.bootstrap();
        world
    }

    fn bootstrap(&mut self) {
        for s in 0..self.streams.len() {
            self.queue
                .schedule(SimTime::ZERO, Event::StreamFrame { stream: s as u32 });
        }
        for r in 0..self.relays.len() {
            let jitter = SimDuration::from_millis(self.rng.below(5_000));
            self.queue
                .schedule(SimTime::ZERO + jitter, Event::RelayTick { relay: r as u32 });
        }
        for e in 0..self.cdn.len() {
            self.queue
                .schedule(SimTime::ZERO, Event::CdnTick { edge: e as u32 });
        }
        self.queue.schedule(SimTime::ZERO, Event::ClientArrival);
    }

    /// Attaches a structured-event telemetry sink. Every layer (world
    /// routing, session control, relays' advisers, clients' reorder
    /// buffers, the scheduler) emits [`TraceEvent`]s into it from now
    /// on. Attaching a sink never changes simulation behaviour: the
    /// sink is write-only and all randomness stays on [`SimRng`].
    ///
    /// On an obs world the components keep emitting into the world's
    /// own unbounded ring and `sink` becomes a tee of it: the obs pump
    /// forwards every batch it drains, so by the end of the run `sink`
    /// holds the records, `seq`s and drop count direct emission would
    /// have given it.
    pub fn attach_trace_sink(&mut self, sink: TraceSink) {
        if self.obs.is_enabled() {
            self.trace_tap = sink;
        } else {
            self.wire_trace_sink(sink);
        }
    }

    /// Points every emitting component at `sink`.
    fn wire_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink.clone();
        self.scheduler.set_trace_sink(sink.clone());
        for &rid in &self.served {
            self.relays[rid as usize].set_trace(sink.clone());
        }
        for (cid, client) in self.clients.iter_mut() {
            client.reorder.set_trace_sink(*cid, sink.clone());
        }
    }

    /// Replaces every relay's churn timeline with one drawn from
    /// `model` — a failure-injection hook for robustness tests.
    pub fn inject_churn_model(&mut self, model: &ChurnModel) {
        let model = Arc::new(model.clone());
        for (i, relay) in self.relays.iter_mut().enumerate() {
            relay.set_churn(ChurnTimeline::new(
                Arc::clone(&model),
                self.rng.fork(9_000 + i as u64),
            ));
        }
    }

    /// Failure injection: scripts `event` onto the churn timelines of
    /// the relays it hits, each of which goes offline for its window and
    /// then resumes normal churn.
    ///
    /// - A mass outage takes down the first `fraction` of relays at
    ///   once: a correlated vendor outage.
    /// - A regional outage takes down every relay in `region`: a power
    ///   cut or carrier outage. An empty region scripts zero relays,
    ///   which is not an error.
    /// - A churn storm spreads `fraction` of relays across the
    ///   population, each dropping at a jittered point inside
    ///   `[at, at + duration)` for a jittered sub-window: the flappy,
    ///   staggered failure mode everyone-at-once outages miss.
    ///
    /// Fractions clamp to `[0, 1]`. A zero-length window, a non-finite
    /// fraction or an out-of-range region is rejected rather than
    /// silently scripting a no-op timeline. Returns the number of relays
    /// scripted.
    pub fn inject(&mut self, event: &ScriptedEvent) -> Result<usize, &'static str> {
        let (at, duration) = match *event {
            ScriptedEvent::MassOutage { at, duration, .. }
            | ScriptedEvent::RegionalOutage { at, duration, .. }
            | ScriptedEvent::ChurnStorm { at, duration, .. } => (at, duration),
        };
        if duration.as_millis() == 0 {
            return Err("scripted event window must be non-zero");
        }
        let total = self.relays.len();
        let count = |fraction: f64| {
            if fraction.is_finite() {
                Ok(((total as f64 * fraction.clamp(0.0, 1.0)).round() as usize).min(total))
            } else {
                Err("scripted event fraction must be finite")
            }
        };
        // The relays hit, each with the salt its timeline RNG forks from.
        let (salt, targets): (u64, Vec<usize>) = match *event {
            ScriptedEvent::MassOutage { fraction, .. } => (17_000, (0..count(fraction)?).collect()),
            ScriptedEvent::RegionalOutage { region, .. } => {
                if region >= self.scenario.population.regions {
                    return Err("regional outage region out of range");
                }
                let hit = (0..total).filter(|&i| self.relays[i].region == region);
                (23_000, hit.collect())
            }
            // Stride selection: floor(k·total/n) is strictly increasing
            // for n ≤ total, so picks are distinct and spread across
            // regions/capacity tiers instead of clustering at index 0.
            ScriptedEvent::ChurnStorm { fraction, .. } => {
                let n = count(fraction)?;
                (29_000, (0..n).map(|k| k * total / n).collect())
            }
        };
        let storm = matches!(event, ScriptedEvent::ChurnStorm { .. });
        let window_ms = duration.as_millis();
        let model = Arc::new(ChurnModel::production());
        for &i in &targets {
            let mut rng = self.rng.fork(salt + i as u64);
            let (start, offline) = if storm {
                let start = at + SimDuration::from_millis(rng.below(window_ms.max(2) / 2));
                let offline = (window_ms / 4).max(1) + rng.below((window_ms / 2).max(1));
                (start, SimDuration::from_millis(offline))
            } else {
                (at, duration)
            };
            self.relays[i].set_churn(ChurnTimeline::scripted(
                Arc::clone(&model),
                rng,
                start,
                offline,
            ));
        }
        Ok(targets.len())
    }

    /// Overrides the shard worker count resolved from the config
    /// (`SystemConfig::world_jobs` / the `--world-jobs` process
    /// default). Any value ≥ 1 produces byte-identical results; 1 is
    /// the sequential reference path.
    pub fn set_world_jobs(&mut self, jobs: usize) {
        self.world_jobs = jobs.max(1);
    }

    /// Lowers (or raises) the smallest batch the pool is used for.
    /// Execution-path tuning only — results are identical either way.
    /// Tests lower it to 2 so even tiny worlds exercise the pool.
    pub fn set_shard_min_batch(&mut self, min: usize) {
        self.shard_min_batch = min.max(2);
    }

    /// The obs pump: once the world clock (or, for sharded batches, the
    /// min-across-shards watermark) has advanced past a window boundary,
    /// drains the trace ring into the registry and the caller's tee,
    /// seals every crossed window and feeds it to the SLO engine.
    /// Sealing strictly below `window_of(at)` is safe because every
    /// event earlier than `at` has been handled and merged, and trace
    /// emission happens at handling time.
    pub(crate) fn obs_advance(&mut self, at: SimTime) {
        if self.obs.is_enabled() {
            self.obs_seal_until(self.obs.window_of(at));
        }
    }

    /// Drains, seals and alerts every window below index `upto`.
    fn obs_seal_until(&mut self, upto: u64) {
        if upto <= self.obs.sealed_below() {
            return;
        }
        let sealed = {
            let _span = time_stage(Stage::WindowSeal);
            let records = self.trace.drain();
            self.obs.ingest_all(&records);
            self.trace_tap.absorb(records);
            self.obs.seal_until(upto)
        };
        if let Some(engine) = self.slo.as_mut() {
            let _span = time_stage(Stage::AlertEval);
            for sw in &sealed {
                engine.observe(sw);
            }
        }
    }

    /// Runs the world to completion and produces the report.
    ///
    /// The loop pops one event at a time; shardable events (see
    /// `Event::shard_class`) are extended into maximal same-class
    /// batches and executed via the `shard` module — inline at
    /// `world_jobs == 1` (bit-identical to the plain pop loop by
    /// construction), on scoped worker threads otherwise, with a
    /// deterministic merge that makes the two paths indistinguishable.
    pub fn run(mut self) -> RunReport {
        let central_world = matches!(self.cfg.mode, DeliveryMode::RLiveCentralSequencing);
        while let Some((now, event)) = self.queue.pop() {
            if now > self.end_at {
                break;
            }
            // Window-sealing watermark: everything before `now` has been
            // handled, so windows below `window_of(now)` are final.
            self.obs_advance(now);
            let Some(class) = event.shard_class(central_world) else {
                self.handle(now, event);
                continue;
            };
            let batch = self.form_batch(now, event, class);
            if batch.events.len() >= 2 {
                self.shardable_batches += 1;
                self.shardable_events += batch.events.len() as u64;
            }
            self.execute_batch(batch);
        }
        self.finish()
    }

    /// Relay `rid`, with its serving part built on first use.
    pub(crate) fn serve(&mut self, rid: u32) -> &mut Relay {
        let relay = &mut self.relays[rid as usize];
        if relay.start_serving(NodeId(rid as u64), &self.cfg.adviser, &self.trace) {
            let i = self.served.partition_point(|&r| r < rid);
            self.served.insert(i, rid);
        }
        relay
    }

    /// The serving parts of [`World::served`], in ascending relay id
    /// order.
    fn serving_parts(&self) -> impl Iterator<Item = &Serving> + '_ {
        self.served
            .iter()
            .filter_map(|&rid| self.relays[rid as usize].serving())
    }

    fn finish(mut self) -> RunReport {
        let relay_subscriber_counts: Vec<usize> = self
            .serving_parts()
            .map(|p| p.peak_subscribers)
            .filter(|&c| c > 0)
            .collect();
        // Close out remaining sessions.
        let ids: Vec<u64> = self.clients.keys().copied().collect();
        let end = self.end_at;
        for id in ids {
            session::close_session(&mut self, end, id);
        }
        let relay_expansion_rates: Vec<f64> = self
            .serving_parts()
            .filter(|p| p.backward_bytes > 10_000)
            .map(|p| p.serving_bytes as f64 / p.backward_bytes as f64)
            .collect();
        let relay_utilization: Vec<f64> = self
            .serving_parts()
            .filter(|p| p.subscriber_count() > 0)
            .map(|p| p.quotas.bandwidth.utilization())
            .collect();
        // Only the kinds that occurred, as per-event bumps would leave them.
        let mut event_counts = TraceCounters::new();
        for (kind, &n) in EVENT_KINDS.iter().zip(&self.event_counts) {
            if n > 0 {
                event_counts.add(kind, n);
            }
        }
        let scheduler_latency_ms: Vec<f64> = {
            let stats = self.scheduler.service_time_stats();
            (0..=100)
                .map(|q| stats.quantile(q as f64 / 100.0))
                .collect()
        };
        let invalid_candidate_fraction = if self.candidate_probes == 0 {
            0.0
        } else {
            self.candidate_invalid as f64 / self.candidate_probes as f64
        };
        let mean4 = |v: &[(f64, f64, f64, f64)]| {
            if v.is_empty() {
                return (100.0, 100.0, 100.0, 100.0);
            }
            let n = v.len() as f64;
            (
                v.iter().map(|e| e.0).sum::<f64>() / n,
                v.iter().map(|e| e.1).sum::<f64>() / n,
                v.iter().map(|e| e.2).sum::<f64>() / n,
                v.iter().map(|e| e.3).sum::<f64>() / n,
            )
        };
        // Seal through the final window: the session close-outs above
        // emitted at `end_at`, which lands in `window_of(end_at)`. The
        // bound is a window index, so no window width can overflow it.
        if self.obs.is_enabled() {
            self.obs_seal_until(self.obs.window_of(self.end_at) + 1);
        }
        let obs = std::mem::take(&mut self.obs);
        let slo = self.slo.take().map(SloEngine::finish).unwrap_or_default();
        RunReport {
            control_qoe: self.control_qoe,
            test_qoe: self.test_qoe,
            control_traffic: self.control_traffic,
            test_traffic: self.test_traffic,
            relay_expansion_rates,
            relay_subscriber_counts,
            gamma_over_time: self.gamma_series.means(),
            event_counts,
            relay_utilization,
            scheduler_latency_ms,
            invalid_candidate_fraction,
            scheduler_requests: self.scheduler.request_count(),
            control_energy: mean4(&self.control_energy),
            test_energy: mean4(&self.test_energy),
            shardable_batches: self.shardable_batches,
            shardable_events: self.shardable_events,
            obs,
            slo,
            sched_policy: self.scheduler.policy_label(),
            sched_demotions: self.scheduler.policy_demotions(),
            recovery_policy: self.recovery_policy.label(),
            duration: self.end_at.saturating_since(SimTime::ZERO),
        }
    }

    pub(crate) fn hour_at(&self, now: SimTime) -> f64 {
        self.scenario.start_hour + now.as_secs_f64() / 3600.0
    }

    pub(crate) fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / 30.0)
    }

    /// Maps a frame to its substream under the configured strategy.
    pub(crate) fn substream_for(&self, header: &FrameHeader) -> u16 {
        self.cfg.partition.assign(header, self.cfg.substreams).0
    }

    pub(crate) fn ledger_mut(&mut self, group: Group) -> &mut TrafficLedger {
        match group {
            Group::Control => &mut self.control_traffic,
            Group::Test => &mut self.test_traffic,
        }
    }

    /// Files relay `rid` in or out of `feeders[stream]` to match
    /// [`Relay::feeds`], after a subscribe, an unsubscribe or an offline
    /// transition changed the relay's subscriber table.
    pub(crate) fn refile_feeder(&mut self, rid: u32, stream: u32) {
        let feeds = self.relays[rid as usize].feeds(stream);
        let feeders = &mut self.feeders[stream as usize];
        match feeders.binary_search(&rid) {
            Err(i) if feeds => feeders.insert(i, rid),
            Ok(i) if !feeds => _ = feeders.remove(i),
            _ => {}
        }
    }

    pub(crate) fn handle(&mut self, now: SimTime, event: Event) {
        self.event_counts[event.kind_index()] += 1;
        match event {
            Event::StreamFrame { stream } => self.on_stream_frame(now, stream),
            Event::RelayFrame { relay, stream, dts } => {
                self.on_relay_frame(now, relay, stream, dts)
            }
            Event::ClientSlice(d) => self.on_client_slice(now, d),
            Event::ChainDelivery {
                client,
                stream,
                dts,
            } => self.on_chain_delivery(now, client, stream, dts),
            Event::PlayerTick { client } => self.on_player_tick(now, client),
            Event::ControlTick { client } => session::on_control_tick(self, now, client),
            Event::RecoveryOutcome {
                client,
                dts,
                action,
                success,
            } => session::on_recovery_outcome(self, now, client, dts, action, success),
            Event::HedgeOutcome {
                client,
                dts,
                attempt,
                round,
                success,
            } => {
                let _span = time_stage(Stage::HedgeResolve);
                session::on_hedge_outcome(self, now, client, dts, attempt, round, success)
            }
            Event::RelayTick { relay } => self.on_relay_tick(now, relay),
            Event::CdnTick { edge } => self.on_cdn_tick(now, edge),
            Event::ClientArrival => session::on_client_arrival(self, now),
            Event::MultiSourceUpgrade { client } => session::on_upgrade(self, now, client),
            Event::ClientDeparture { client } => session::close_session(self, now, client),
        }
    }

    // ----- stream / delivery path -------------------------------------

    fn on_stream_frame(&mut self, now: SimTime, stream: u32) {
        let s = stream as usize;
        let (header, chain) = self.streams[s].next_frame();
        let ss = self.substream_for(&header);

        // Feed relays that forward this stream (full frames for their
        // substream, headers for the others), in ascending id order.
        debug_assert!(
            self.feeders[s]
                .iter()
                .copied()
                .eq((0..self.relays.len() as u32)
                    .filter(|&rid| self.relays[rid as usize].feeds(stream))),
            "feeder index of stream {stream}"
        );
        for k in 0..self.feeders[s].len() {
            let rid = self.feeders[s][k];
            let (needs_payload, bytes, edge) = {
                let relay = &self.relays[rid as usize];
                debug_assert!(relay.online, "offline relay {rid} feeds {stream}");
                let mut targets = relay.targets_for(stream, ss).peekable();
                let needs_payload = targets.peek().is_some();
                // The relay pulls the highest rung any subscriber watches.
                let max_scale = targets
                    .filter_map(|cid| self.clients.get(&cid).map(|c| c.abr.scale()))
                    .fold(0.0f64, f64::max)
                    .max(if needs_payload { 0.25 } else { 0.0 });
                let bytes = if needs_payload {
                    (header.size as f64 * max_scale) as usize + 64
                } else {
                    64 // header-only feed
                };
                let edge = rid as usize % self.cdn.len();
                (needs_payload, bytes, edge)
            };
            // Backhaul is dedicated traffic; attribute it to the
            // subscriber groups proportionally.
            let counts = if needs_payload {
                session::group_counts(self, rid)
            } else {
                (0, 0)
            };
            let mut ctx = actor_ctx!(self, now);
            self.relays[rid as usize].pull_backhaul(
                &mut ctx,
                &mut self.cdn[edge],
                rid,
                &header,
                stream,
                needs_payload,
                bytes,
                counts,
            );
        }

        // Serve clients pulling the full stream straight from the CDN,
        // then substreams that fell back to CDN sourcing.
        let mut ids = std::mem::take(&mut self.client_ids);
        for cdn_sub in [false, true] {
            ids.clear();
            let served = self.clients.values().filter(|c| {
                c.stream == stream
                    && match &c.mode {
                        ClientMode::CdnFull => !cdn_sub,
                        ClientMode::Multi { sources, .. } => {
                            cdn_sub && sources.get(ss as usize) == Some(&SubSource::Cdn)
                        }
                        ClientMode::SingleSource { .. } => false,
                    }
            });
            ids.extend(served.map(|c| c.id));
            for &cid in &ids {
                session::cdn_deliver_frame(self, now, cid, header, Some(chain), ss);
            }
        }
        self.client_ids = ids;

        // Next frame.
        let next = now + self.frame_interval();
        if next <= self.end_at {
            self.queue.schedule(next, Event::StreamFrame { stream });
        }
    }

    fn on_relay_frame(&mut self, now: SimTime, relay: u32, stream: u32, dts: u64) {
        let Some(&(header, chain)) = self.streams[stream as usize].recent_frame(dts) else {
            return;
        };
        if !self.relays[relay as usize].online {
            return;
        }
        let ss = self.substream_for(&header);
        let central_world = matches!(self.cfg.mode, DeliveryMode::RLiveCentralSequencing);
        let mut views = std::mem::take(&mut self.views);
        resolve_views(
            &self.relays[relay as usize],
            &self.clients,
            (stream, ss, chain),
            central_world,
            &mut views,
        );
        let streams_len = self.streams.len();
        let mut ctx = actor_ctx!(self, now);
        self.relays[relay as usize].forward_frame(
            &mut ctx,
            header,
            stream,
            dts,
            ss,
            &views,
            &mut self.super_node,
            streams_len,
        );
        self.views = views;
    }

    fn on_chain_delivery(&mut self, now: SimTime, cid: u64, stream: u32, dts: u64) {
        let Some(&(_, chain)) = self.streams[stream as usize].recent_frame(dts) else {
            return;
        };
        let mut ctx = actor_ctx!(self, now);
        if let Some(client) = self.clients.get_mut(&cid) {
            client.ingest_chain(&mut ctx, &chain);
        }
    }

    fn on_client_slice(&mut self, now: SimTime, d: Box<SliceDelivery>) {
        let mut ctx = actor_ctx!(self, now);
        if let Some(client) = self.clients.get_mut(&d.client) {
            client.ingest_slice(&mut ctx, &d);
        }
        self.slices.recycle(d);
    }

    // ----- player loop -------------------------------------------------

    fn on_player_tick(&mut self, now: SimTime, cid: u64) {
        let stream_epoch = self
            .clients
            .get(&cid)
            .map(|c| self.streams[c.stream as usize].epoch);
        let Some(stream_epoch) = stream_epoch else {
            return;
        };
        let recover = {
            let mut ctx = actor_ctx!(self, now);
            let Some(client) = self.clients.get_mut(&cid) else {
                return;
            };
            client.player_tick(&mut ctx, stream_epoch)
        };
        // Loss recovery runs at sub-frame cadence: fast retransmission
        // cannot wait for the coarse control loop (§5.3).
        if recover {
            session::control_recovery(self, now, cid);
        }
    }

    /// Periodic CDN edge background-load update: cross traffic from
    /// co-hosted services squeezes the capacity available to live
    /// delivery, most severely at the evening peak (§7.1.2).
    fn on_cdn_tick(&mut self, now: SimTime, edge: u32) {
        if self.cfg.cdn_background_peak_frac > 0.0 {
            let hour = self.hour_at(now);
            let load = self.scenario.diurnal.load_at(hour);
            let mean = self.cfg.cdn_background_peak_frac * load;
            self.cdn[edge as usize].tick_background(now, mean, load, &mut self.rng);
        }
        // Sample the windowed aggregate expansion rate γ (Fig 11c):
        // best-effort serving bytes over backhaul bytes since the last
        // sample.
        if edge == 0 && now.saturating_since(self.last_gamma_sample.2) >= SimDuration::from_secs(10)
        {
            let serving: u64 = self.serving_parts().map(|p| p.serving_bytes).sum();
            let backward: u64 = self.serving_parts().map(|p| p.backward_bytes).sum();
            let ds = serving.saturating_sub(self.last_gamma_sample.0);
            let db = backward.saturating_sub(self.last_gamma_sample.1);
            if db > 10_000 {
                self.gamma_series
                    .record(now.as_secs_f64(), ds as f64 / db as f64);
            }
            self.last_gamma_sample = (serving, backward, now);
        }
        let next = now + SimDuration::from_millis(200);
        if next <= self.end_at {
            self.queue.schedule(next, Event::CdnTick { edge });
        }
    }

    // ----- relay maintenance -------------------------------------------

    fn on_relay_tick(&mut self, now: SimTime, rid: u32) {
        let outcome = self.relays[rid as usize].tick(now, &mut self.rng);
        if outcome.transition == Some(false) {
            for stream in 0..self.streams.len() as u32 {
                self.refile_feeder(rid, stream);
            }
        }
        if let Some(online) = outcome.transition {
            self.trace.emit(
                now,
                None,
                TraceEvent::Churn {
                    node: rid as u64,
                    online,
                },
            );
        }
        // Heartbeat (only online nodes report; offline nodes go stale
        // in the scheduler and are filtered out).
        if outcome.heartbeat {
            let status = self.relays[rid as usize].status();
            self.scheduler
                .ingest_status(NodeId(rid as u64), now, &status);
        }
        // Adviser evaluation (§4.2.2) every other tick (10 s).
        if let Some(key) = outcome.adviser_key {
            let stream_util = self.scheduler.stream_utilization(now, key);
            let suggestions = self.relays[rid as usize].advise(now, key, stream_util);
            for s in suggestions {
                session::deliver_suggestion(self, rid, &s);
            }
        }
        let next = now + outcome.interval;
        if next <= self.end_at {
            self.queue.schedule(next, Event::RelayTick { relay: rid });
        }
    }
}

// A `World` is one runner cell: it must own all of its state (RNG, event
// queue, metric accumulators) so cells can run on any worker thread.
// These compile-time pins fail the build if a field ever introduces
// shared mutable state (`Rc`, raw pointers, …) that would break per-cell
// isolation.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<World>();
};
