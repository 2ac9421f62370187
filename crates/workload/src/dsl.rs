//! A declarative scenario DSL: composable, sim-time-anchored phases
//! that compile down to a [`Scenario`] plus a schedule of scripted
//! world events.
//!
//! The hand-built presets cover the paper's evaluation settings; the
//! long tail of robustness conditions — flash crowds, regional relay
//! outages, correlated churn storms, NAT-mix shifts, constrained
//! capacity tiers — needs a way to *compose* conditions and to
//! generate them programmatically. A [`ScenarioProgram`] is that
//! composition: a base workload plus a list of [`Phase`]s, validated
//! as a whole ([`ScenarioProgram::validate`]) and compiled
//! ([`ScenarioProgram::compile`]) into
//!
//! - population/demand shaping folded into the [`Scenario`] itself
//!   (flash-crowd surges, diurnal window, NAT mix, capacity tiers),
//!   and
//! - a [`ScriptedEvent`] schedule the fleet layer injects into the
//!   world right after build (mass outages, regional outages, churn
//!   storms) — the generalisation of the old single mass-outage slot.
//!
//! Programs render to and parse from a line-oriented text spec
//! ([`ScenarioProgram::render_spec`] / [`ScenarioProgram::parse_spec`])
//! so fuzzer-discovered scenarios can be checked in verbatim and
//! replayed byte-identically, and they mutate deterministically
//! ([`ScenarioProgram::mutated`]) under a [`SimRng`] — the move set of
//! the coverage-driven scenario fuzzer.

use crate::nodes::PopulationConfig;
use crate::scenario::{DemandSurge, Scenario, ScenarioError, ScenarioKind};
use rlive_sim::{SimDuration, SimRng, SimTime};

/// Regions a compiled program's population spreads across; regional
/// outage phases target one of these.
pub const REGIONS: u16 = 4;

/// One composable scenario phase. Times are whole seconds of offset
/// into the run window (the spec format keeps them integral so
/// rendering round-trips exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// A flash crowd: demand is multiplied by `multiplier` during the
    /// window (compiles into a [`DemandSurge`]).
    FlashCrowd {
        /// Window start, seconds into the run.
        at_s: u64,
        /// Window length in seconds.
        dur_s: u64,
        /// Demand multiplier while active.
        multiplier: f64,
    },
    /// Re-anchors the run on the diurnal curve (e.g. start at the 6 am
    /// trough and ramp toward noon).
    DiurnalRamp {
        /// Hour of day the run starts at.
        start_hour: f64,
    },
    /// Every relay in one region goes dark for the window.
    RegionalOutage {
        /// Outage start, seconds into the run.
        at_s: u64,
        /// Outage length in seconds.
        dur_s: u64,
        /// Region taken down (< [`REGIONS`]).
        region: u16,
    },
    /// A fraction of all relays goes dark for the window (the classic
    /// correlated vendor outage).
    MassOutage {
        /// Outage start, seconds into the run.
        at_s: u64,
        /// Outage length in seconds.
        dur_s: u64,
        /// Fraction of relays affected, in [0, 1].
        fraction: f64,
    },
    /// A correlated churn storm: a fraction of relays flaps offline at
    /// jittered points inside the window instead of all at once.
    ChurnStorm {
        /// Storm start, seconds into the run.
        at_s: u64,
        /// Storm length in seconds.
        dur_s: u64,
        /// Fraction of relays affected, in [0, 1].
        fraction: f64,
    },
    /// Shifts the population's NAT mix to carry `hard_fraction` hard
    /// NAT types (production is 0.55).
    NatShift {
        /// Target hard-NAT share, in [0, 1].
        hard_fraction: f64,
    },
    /// Reshapes the capacity distribution: a uniform scale on every
    /// uplink plus the size of the high-quality tier.
    CapacityTiers {
        /// Uniform capacity multiplier (> 0).
        scale: f64,
        /// High-quality tier fraction, in [0, 1].
        high_quality_fraction: f64,
    },
}

impl Phase {
    /// Short machine-readable label (also the spec keyword).
    pub fn label(&self) -> &'static str {
        match self {
            Phase::FlashCrowd { .. } => "flash_crowd",
            Phase::DiurnalRamp { .. } => "diurnal_ramp",
            Phase::RegionalOutage { .. } => "regional_outage",
            Phase::MassOutage { .. } => "mass_outage",
            Phase::ChurnStorm { .. } => "churn_storm",
            Phase::NatShift { .. } => "nat_shift",
            Phase::CapacityTiers { .. } => "capacity_tiers",
        }
    }

    /// The `[start, end)` window of a churn-scripting phase, `None` for
    /// population/demand-shaping phases (an end past `u64::MAX` saturates).
    fn churn_window(&self) -> Option<(u64, u64)> {
        match *self {
            Phase::RegionalOutage { at_s, dur_s, .. }
            | Phase::MassOutage { at_s, dur_s, .. }
            | Phase::ChurnStorm { at_s, dur_s, .. } => Some((at_s, at_s.saturating_add(dur_s))),
            _ => None,
        }
    }

    /// Compact one-token summary for report tables, e.g.
    /// `flash@10+15x2.5` or `mass@12+10f0.6`.
    pub fn summary(&self) -> String {
        match *self {
            Phase::FlashCrowd {
                at_s,
                dur_s,
                multiplier,
            } => format!("flash@{at_s}+{dur_s}x{multiplier}"),
            Phase::DiurnalRamp { start_hour } => format!("ramp@h{start_hour}"),
            Phase::RegionalOutage {
                at_s,
                dur_s,
                region,
            } => format!("region{region}@{at_s}+{dur_s}"),
            Phase::MassOutage {
                at_s,
                dur_s,
                fraction,
            } => format!("mass@{at_s}+{dur_s}f{fraction}"),
            Phase::ChurnStorm {
                at_s,
                dur_s,
                fraction,
            } => format!("storm@{at_s}+{dur_s}f{fraction}"),
            Phase::NatShift { hard_fraction } => format!("nat{hard_fraction}"),
            Phase::CapacityTiers {
                scale,
                high_quality_fraction,
            } => format!("cap{scale}hq{high_quality_fraction}"),
        }
    }
}

/// Why a program failed validation, compilation or parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum DslError {
    /// The base scenario is degenerate ([`Scenario::validate`]).
    Scenario(ScenarioError),
    /// A phase parameter is out of range; the message names it.
    BadPhase(String),
    /// A phase window falls outside the run window.
    PhaseOutOfWindow(String),
    /// Two phases contradict each other (overlapping churn scripts or
    /// duplicate population shaping).
    ContradictoryPhases(String),
    /// The spec text could not be parsed; the message points at the
    /// offending line.
    Parse(String),
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DslError::Scenario(e) => write!(f, "invalid base scenario: {e}"),
            DslError::BadPhase(m) => write!(f, "invalid phase: {m}"),
            DslError::PhaseOutOfWindow(m) => write!(f, "phase outside run window: {m}"),
            DslError::ContradictoryPhases(m) => write!(f, "contradictory phases: {m}"),
            DslError::Parse(m) => write!(f, "spec parse error: {m}"),
        }
    }
}

impl std::error::Error for DslError {}

impl From<ScenarioError> for DslError {
    fn from(e: ScenarioError) -> Self {
        DslError::Scenario(e)
    }
}

/// A scripted world disruption, anchored in sim time — what a compiled
/// program schedules for the fleet layer to inject right after the
/// world is built. The generalisation of the old single
/// `Option<MassOutage>` slot on `WorldSpec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScriptedEvent {
    /// A fraction of all relays goes dark at `at` for `duration`.
    MassOutage {
        /// Outage start.
        at: SimTime,
        /// Outage length.
        duration: SimDuration,
        /// Fraction of relays affected, in [0, 1].
        fraction: f64,
    },
    /// Every relay in `region` goes dark at `at` for `duration`.
    RegionalOutage {
        /// Outage start.
        at: SimTime,
        /// Outage length.
        duration: SimDuration,
        /// Region taken down.
        region: u16,
    },
    /// A fraction of relays flaps offline at jittered points inside
    /// the `[at, at + duration)` window.
    ChurnStorm {
        /// Storm window start.
        at: SimTime,
        /// Storm window length.
        duration: SimDuration,
        /// Fraction of relays affected, in [0, 1].
        fraction: f64,
    },
}

/// A compiled program: the shaped [`Scenario`] plus the scripted-event
/// schedule, in phase-declaration order.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// The base workload with population/demand phases folded in.
    pub scenario: Scenario,
    /// Scripted disruptions for the fleet layer to inject.
    pub schedule: Vec<ScriptedEvent>,
}

/// A declarative scenario: base workload knobs plus composable phases.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProgram {
    /// Program name (spec header; report and replay label). Must be
    /// non-empty, single-token (no whitespace).
    pub name: String,
    /// Run window in whole seconds.
    pub duration_s: u64,
    /// Peak concurrent viewers.
    pub peak_viewers: usize,
    /// Distinct live streams.
    pub streams: usize,
    /// Zipf exponent of stream popularity.
    pub zipf_s: f64,
    /// Best-effort node count.
    pub nodes: usize,
    /// The phases, applied in order.
    pub phases: Vec<Phase>,
}

impl ScenarioProgram {
    /// A small, quiet base program: evening-peak demand, no phases.
    /// Fuzzer mutation starts from here; tests use it as the known-good
    /// reference.
    pub fn base(name: impl Into<String>) -> Self {
        ScenarioProgram {
            name: name.into(),
            duration_s: 40,
            peak_viewers: 48,
            streams: 2,
            zipf_s: 1.0,
            nodes: 60,
            phases: Vec::new(),
        }
    }

    /// Validates the base knobs and every phase: hard `Result` errors
    /// instead of silently running a degenerate or contradictory
    /// scenario.
    ///
    /// Contradiction rules: at most one diurnal-ramp, NAT-shift and
    /// capacity-tiers phase each (they set whole-run state); churn
    /// scripting phases (mass outage, regional outage, churn storm)
    /// must not overlap in time — except two regional outages hitting
    /// *different* regions, whose relay sets are disjoint.
    pub fn validate(&self) -> Result<(), DslError> {
        if self.name.is_empty() || self.name.chars().any(char::is_whitespace) {
            return Err(DslError::BadPhase(
                "program name must be a non-empty single token".into(),
            ));
        }
        let overflow = ScenarioError::BadParameter("duration overflows the microsecond clock");
        self.duration_s.checked_mul(1_000_000).ok_or(overflow)?;
        // Base-knob screening via the scenario's own validator.
        self.base_scenario().validate()?;
        let finite_unit = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
        let mut ramps = 0usize;
        let mut nat_shifts = 0usize;
        let mut capacity_tiers = 0usize;
        for p in &self.phases {
            if let Some((start, end)) = p.churn_window() {
                if start >= self.duration_s || end > self.duration_s {
                    return Err(DslError::PhaseOutOfWindow(format!(
                        "{} [{start}, {end}) vs run window {} s",
                        p.label(),
                        self.duration_s
                    )));
                }
                if end == start {
                    return Err(DslError::BadPhase(format!(
                        "{} has a zero-length window",
                        p.label()
                    )));
                }
            }
            match *p {
                Phase::FlashCrowd {
                    at_s,
                    dur_s,
                    multiplier,
                } => {
                    let end = at_s.saturating_add(dur_s);
                    if dur_s == 0 || end > self.duration_s {
                        return Err(DslError::PhaseOutOfWindow(format!(
                            "flash_crowd [{at_s}, {end}) vs run window {} s",
                            self.duration_s
                        )));
                    }
                    if !multiplier.is_finite() || multiplier <= 0.0 {
                        return Err(DslError::BadPhase(
                            "flash_crowd multiplier must be finite and positive".into(),
                        ));
                    }
                }
                Phase::DiurnalRamp { start_hour } => {
                    ramps += 1;
                    if !start_hour.is_finite() || !(0.0..24.0).contains(&start_hour) {
                        return Err(DslError::BadPhase(
                            "diurnal_ramp start_hour must be in [0, 24)".into(),
                        ));
                    }
                }
                Phase::RegionalOutage { region, .. } => {
                    if region >= REGIONS {
                        return Err(DslError::BadPhase(format!(
                            "regional_outage region {region} out of range (< {REGIONS})"
                        )));
                    }
                }
                Phase::MassOutage { fraction, .. } | Phase::ChurnStorm { fraction, .. } => {
                    if !finite_unit(fraction) {
                        return Err(DslError::BadPhase(format!(
                            "{} fraction must be in [0, 1]",
                            p.label()
                        )));
                    }
                }
                Phase::NatShift { hard_fraction } => {
                    nat_shifts += 1;
                    if !finite_unit(hard_fraction) {
                        return Err(DslError::BadPhase(
                            "nat_shift hard fraction must be in [0, 1]".into(),
                        ));
                    }
                }
                Phase::CapacityTiers {
                    scale,
                    high_quality_fraction,
                } => {
                    capacity_tiers += 1;
                    if !scale.is_finite() || scale <= 0.0 {
                        return Err(DslError::BadPhase(
                            "capacity_tiers scale must be finite and positive".into(),
                        ));
                    }
                    if !finite_unit(high_quality_fraction) {
                        return Err(DslError::BadPhase(
                            "capacity_tiers high-quality fraction must be in [0, 1]".into(),
                        ));
                    }
                }
            }
        }
        for (kind, n) in [
            ("diurnal_ramp", ramps),
            ("nat_shift", nat_shifts),
            ("capacity_tiers", capacity_tiers),
        ] {
            if n > 1 {
                return Err(DslError::ContradictoryPhases(format!(
                    "{n} {kind} phases (at most one sets whole-run state)"
                )));
            }
        }
        // Overlapping churn scripts would fight over the same relays'
        // timelines (last write wins, silently) — reject, except for
        // regional outages on provably disjoint relay sets.
        for (i, a) in self.phases.iter().enumerate() {
            let Some((a0, a1)) = a.churn_window() else {
                continue;
            };
            for b in &self.phases[i + 1..] {
                let Some((b0, b1)) = b.churn_window() else {
                    continue;
                };
                if a0 < b1 && b0 < a1 {
                    if let (
                        Phase::RegionalOutage { region: ra, .. },
                        Phase::RegionalOutage { region: rb, .. },
                    ) = (a, b)
                    {
                        if ra != rb {
                            continue;
                        }
                    }
                    return Err(DslError::ContradictoryPhases(format!(
                        "{} [{a0}, {a1}) overlaps {} [{b0}, {b1})",
                        a.label(),
                        b.label()
                    )));
                }
            }
        }
        Ok(())
    }

    /// The base [`Scenario`] before phases are folded in.
    fn base_scenario(&self) -> Scenario {
        Scenario {
            kind: ScenarioKind::EveningPeak,
            duration: SimDuration::from_secs(self.duration_s),
            start_hour: 21.0,
            peak_viewers: self.peak_viewers,
            streams: self.streams,
            zipf_s: self.zipf_s,
            population: PopulationConfig {
                count: self.nodes,
                isps: 2,
                regions: REGIONS,
                prefixes_per_region: 4,
                high_quality_fraction: 0.05,
                ..PopulationConfig::default()
            },
            demand_multiplier: 1.0,
            diurnal: crate::streams::DiurnalModel::default(),
            surges: Vec::new(),
        }
    }

    /// Validates and compiles the program: population/demand phases
    /// fold into the [`Scenario`], churn-scripting phases become the
    /// [`ScriptedEvent`] schedule (phase-declaration order).
    pub fn compile(&self) -> Result<CompiledScenario, DslError> {
        self.validate()?;
        let mut scenario = self.base_scenario();
        let mut schedule = Vec::new();
        for p in &self.phases {
            match *p {
                Phase::FlashCrowd {
                    at_s,
                    dur_s,
                    multiplier,
                } => scenario.surges.push(DemandSurge {
                    at: SimDuration::from_secs(at_s),
                    duration: SimDuration::from_secs(dur_s),
                    multiplier,
                }),
                Phase::DiurnalRamp { start_hour } => scenario.start_hour = start_hour,
                Phase::NatShift { hard_fraction } => {
                    scenario.population.nat_hard_fraction = Some(hard_fraction);
                }
                Phase::CapacityTiers {
                    scale,
                    high_quality_fraction,
                } => {
                    scenario.population.capacity_scale = scale;
                    scenario.population.high_quality_fraction = high_quality_fraction;
                }
                Phase::MassOutage {
                    at_s,
                    dur_s,
                    fraction,
                } => schedule.push(ScriptedEvent::MassOutage {
                    at: SimTime::from_secs(at_s),
                    duration: SimDuration::from_secs(dur_s),
                    fraction,
                }),
                Phase::RegionalOutage {
                    at_s,
                    dur_s,
                    region,
                } => schedule.push(ScriptedEvent::RegionalOutage {
                    at: SimTime::from_secs(at_s),
                    duration: SimDuration::from_secs(dur_s),
                    region,
                }),
                Phase::ChurnStorm {
                    at_s,
                    dur_s,
                    fraction,
                } => schedule.push(ScriptedEvent::ChurnStorm {
                    at: SimTime::from_secs(at_s),
                    duration: SimDuration::from_secs(dur_s),
                    fraction,
                }),
            }
        }
        debug_assert_eq!(scenario.validate(), Ok(()));
        Ok(CompiledScenario { scenario, schedule })
    }

    /// Renders the program as its line-oriented text spec. Floats use
    /// Rust's shortest round-trip formatting, so
    /// `parse_spec(render_spec(p)) == p` exactly.
    pub fn render_spec(&self) -> String {
        let mut out = format!(
            "# rlive scenario spec v1\nname {}\nduration {}\nviewers {}\nstreams {}\nzipf {}\nnodes {}\n",
            self.name, self.duration_s, self.peak_viewers, self.streams, self.zipf_s, self.nodes
        );
        for p in &self.phases {
            match *p {
                Phase::FlashCrowd {
                    at_s,
                    dur_s,
                    multiplier,
                } => out.push_str(&format!(
                    "phase flash_crowd at={at_s} dur={dur_s} mult={multiplier}\n"
                )),
                Phase::DiurnalRamp { start_hour } => {
                    out.push_str(&format!("phase diurnal_ramp start={start_hour}\n"));
                }
                Phase::RegionalOutage {
                    at_s,
                    dur_s,
                    region,
                } => out.push_str(&format!(
                    "phase regional_outage at={at_s} dur={dur_s} region={region}\n"
                )),
                Phase::MassOutage {
                    at_s,
                    dur_s,
                    fraction,
                } => out.push_str(&format!(
                    "phase mass_outage at={at_s} dur={dur_s} frac={fraction}\n"
                )),
                Phase::ChurnStorm {
                    at_s,
                    dur_s,
                    fraction,
                } => out.push_str(&format!(
                    "phase churn_storm at={at_s} dur={dur_s} frac={fraction}\n"
                )),
                Phase::NatShift { hard_fraction } => {
                    out.push_str(&format!("phase nat_shift hard={hard_fraction}\n"));
                }
                Phase::CapacityTiers {
                    scale,
                    high_quality_fraction,
                } => out.push_str(&format!(
                    "phase capacity_tiers scale={scale} hq={high_quality_fraction}\n"
                )),
            }
        }
        out
    }

    /// Parses a text spec rendered by [`ScenarioProgram::render_spec`]
    /// (or hand-written: blank lines and `#` comments are ignored, keys
    /// may appear in any order, phases keep declaration order). The
    /// parsed program is re-validated before being returned.
    pub fn parse_spec(text: &str) -> Result<ScenarioProgram, DslError> {
        let mut program = ScenarioProgram::base("");
        let mut saw_name = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| DslError::Parse(format!("line {}: {what}", lineno + 1));
            let mut tokens = line.split_whitespace();
            let key = tokens.next().expect("non-empty line has a token");
            match key {
                "name" => {
                    program.name = tokens
                        .next()
                        .ok_or_else(|| bad("name needs a value"))?
                        .to_string();
                    saw_name = true;
                }
                "duration" | "viewers" | "streams" | "nodes" => {
                    let v: u64 = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("expected an unsigned integer"))?;
                    match key {
                        "duration" => program.duration_s = v,
                        "viewers" => program.peak_viewers = v as usize,
                        "streams" => program.streams = v as usize,
                        _ => program.nodes = v as usize,
                    }
                }
                "zipf" => {
                    program.zipf_s = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("expected a float"))?;
                }
                "phase" => {
                    let kind = tokens.next().ok_or_else(|| bad("phase needs a kind"))?;
                    let mut fields: Vec<(&str, &str)> = Vec::new();
                    for t in tokens {
                        let (k, v) = t
                            .split_once('=')
                            .ok_or_else(|| bad("phase fields are key=value"))?;
                        fields.push((k, v));
                    }
                    let get = |name: &str| -> Result<&str, DslError> {
                        fields
                            .iter()
                            .find(|(k, _)| *k == name)
                            .map(|(_, v)| *v)
                            .ok_or_else(|| bad(&format!("phase missing field '{name}'")))
                    };
                    let get_u64 = |name: &str| -> Result<u64, DslError> {
                        get(name)?
                            .parse()
                            .map_err(|_| bad(&format!("field '{name}' is not an integer")))
                    };
                    let get_f64 = |name: &str| -> Result<f64, DslError> {
                        get(name)?
                            .parse()
                            .map_err(|_| bad(&format!("field '{name}' is not a float")))
                    };
                    let phase = match kind {
                        "flash_crowd" => Phase::FlashCrowd {
                            at_s: get_u64("at")?,
                            dur_s: get_u64("dur")?,
                            multiplier: get_f64("mult")?,
                        },
                        "diurnal_ramp" => Phase::DiurnalRamp {
                            start_hour: get_f64("start")?,
                        },
                        "regional_outage" => Phase::RegionalOutage {
                            at_s: get_u64("at")?,
                            dur_s: get_u64("dur")?,
                            region: u16::try_from(get_u64("region")?)
                                .map_err(|_| bad("field 'region' does not fit in u16"))?,
                        },
                        "mass_outage" => Phase::MassOutage {
                            at_s: get_u64("at")?,
                            dur_s: get_u64("dur")?,
                            fraction: get_f64("frac")?,
                        },
                        "churn_storm" => Phase::ChurnStorm {
                            at_s: get_u64("at")?,
                            dur_s: get_u64("dur")?,
                            fraction: get_f64("frac")?,
                        },
                        "nat_shift" => Phase::NatShift {
                            hard_fraction: get_f64("hard")?,
                        },
                        "capacity_tiers" => Phase::CapacityTiers {
                            scale: get_f64("scale")?,
                            high_quality_fraction: get_f64("hq")?,
                        },
                        other => return Err(bad(&format!("unknown phase kind '{other}'"))),
                    };
                    program.phases.push(phase);
                }
                other => return Err(bad(&format!("unknown key '{other}'"))),
            }
        }
        if !saw_name {
            return Err(DslError::Parse("spec has no 'name' line".into()));
        }
        program.validate()?;
        Ok(program)
    }

    /// Produces a deterministic single-step mutant: one random move —
    /// add a phase, drop a phase, perturb a phase parameter, or tweak a
    /// base knob — retried (bounded) until the mutant validates. All
    /// randomness comes from `rng`, so the mutation chain is a pure
    /// function of the fuzzer seed.
    pub fn mutated(&self, rng: &mut SimRng) -> ScenarioProgram {
        for _ in 0..24 {
            let mut m = self.clone();
            let op = rng.below(4);
            match op {
                0 => {
                    let p = random_phase(self.duration_s, rng);
                    m.phases.push(p);
                }
                1 => {
                    if m.phases.is_empty() {
                        continue;
                    }
                    let i = rng.below(m.phases.len() as u64) as usize;
                    m.phases.remove(i);
                }
                2 => {
                    if m.phases.is_empty() {
                        continue;
                    }
                    let i = rng.below(m.phases.len() as u64) as usize;
                    m.phases[i] = perturb_phase(m.phases[i], self.duration_s, rng);
                }
                _ => match rng.below(4) {
                    0 => m.streams = 1 + rng.below(4) as usize,
                    1 => {
                        m.peak_viewers = ((self.peak_viewers as f64 * rng.range_f64(0.5, 1.8))
                            .round() as usize)
                            .max(4)
                    }
                    2 => m.zipf_s = rng.range_f64(0.5, 2.0),
                    _ => {
                        m.nodes =
                            ((self.nodes as f64 * rng.range_f64(0.5, 1.5)).round() as usize).max(8)
                    }
                },
            }
            if m.validate().is_ok() {
                return m;
            }
        }
        // Every attempt collided (e.g. a saturated schedule): keep the
        // parent — still valid, just not novel.
        self.clone()
    }
}

/// Samples a random phase whose window fits inside `duration_s`.
fn random_phase(duration_s: u64, rng: &mut SimRng) -> Phase {
    let window = |rng: &mut SimRng| {
        let at_s = rng.below(duration_s.saturating_sub(2).max(1));
        let dur_s = 1 + rng.below((duration_s - at_s).max(2) - 1);
        (at_s, dur_s)
    };
    match rng.below(7) {
        0 => {
            let (at_s, dur_s) = window(rng);
            Phase::FlashCrowd {
                at_s,
                dur_s,
                multiplier: rng.range_f64(1.2, 4.0),
            }
        }
        1 => Phase::DiurnalRamp {
            start_hour: rng.range_f64(0.0, 24.0).min(23.9),
        },
        2 => {
            let (at_s, dur_s) = window(rng);
            Phase::RegionalOutage {
                at_s,
                dur_s,
                region: rng.below(REGIONS as u64) as u16,
            }
        }
        3 => {
            let (at_s, dur_s) = window(rng);
            Phase::MassOutage {
                at_s,
                dur_s,
                fraction: rng.range_f64(0.1, 1.0),
            }
        }
        4 => {
            let (at_s, dur_s) = window(rng);
            Phase::ChurnStorm {
                at_s,
                dur_s,
                fraction: rng.range_f64(0.1, 1.0),
            }
        }
        5 => Phase::NatShift {
            hard_fraction: rng.range_f64(0.0, 1.0),
        },
        _ => Phase::CapacityTiers {
            scale: rng.range_f64(0.2, 2.0),
            high_quality_fraction: rng.range_f64(0.0, 0.2),
        },
    }
}

/// Perturbs one parameter of `phase`, keeping its window inside
/// `duration_s`.
fn perturb_phase(phase: Phase, duration_s: u64, rng: &mut SimRng) -> Phase {
    let scale = [0.5, 0.8, 1.25, 2.0][rng.below(4) as usize];
    let move_window = |_at_s: u64, dur_s: u64, rng: &mut SimRng| {
        let at = rng.below(duration_s.saturating_sub(1).max(1));
        let dur =
            ((dur_s as f64 * scale).round() as u64).clamp(1, duration_s.saturating_sub(at).max(1));
        (at, dur)
    };
    match phase {
        Phase::FlashCrowd {
            at_s,
            dur_s,
            multiplier,
        } => {
            let (at_s, dur_s) = move_window(at_s, dur_s, rng);
            Phase::FlashCrowd {
                at_s,
                dur_s,
                multiplier: (multiplier * scale).clamp(1.1, 8.0),
            }
        }
        Phase::DiurnalRamp { .. } => Phase::DiurnalRamp {
            start_hour: rng.range_f64(0.0, 24.0).min(23.9),
        },
        Phase::RegionalOutage { at_s, dur_s, .. } => {
            let (at_s, dur_s) = move_window(at_s, dur_s, rng);
            Phase::RegionalOutage {
                at_s,
                dur_s,
                region: rng.below(REGIONS as u64) as u16,
            }
        }
        Phase::MassOutage {
            at_s,
            dur_s,
            fraction,
        } => {
            let (at_s, dur_s) = move_window(at_s, dur_s, rng);
            Phase::MassOutage {
                at_s,
                dur_s,
                fraction: (fraction * scale).clamp(0.05, 1.0),
            }
        }
        Phase::ChurnStorm {
            at_s,
            dur_s,
            fraction,
        } => {
            let (at_s, dur_s) = move_window(at_s, dur_s, rng);
            Phase::ChurnStorm {
                at_s,
                dur_s,
                fraction: (fraction * scale).clamp(0.05, 1.0),
            }
        }
        Phase::NatShift { hard_fraction } => Phase::NatShift {
            hard_fraction: (hard_fraction * scale).clamp(0.0, 1.0),
        },
        Phase::CapacityTiers {
            scale: cap,
            high_quality_fraction,
        } => Phase::CapacityTiers {
            scale: (cap * scale).clamp(0.1, 4.0),
            high_quality_fraction: (high_quality_fraction * scale).clamp(0.0, 0.3),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_program() -> ScenarioProgram {
        let mut p = ScenarioProgram::base("kitchen-sink");
        p.phases = vec![
            Phase::FlashCrowd {
                at_s: 10,
                dur_s: 15,
                multiplier: 2.5,
            },
            Phase::DiurnalRamp { start_hour: 6.0 },
            Phase::RegionalOutage {
                at_s: 5,
                dur_s: 8,
                region: 1,
            },
            Phase::MassOutage {
                at_s: 20,
                dur_s: 10,
                fraction: 0.5,
            },
            Phase::ChurnStorm {
                at_s: 31,
                dur_s: 8,
                fraction: 0.4,
            },
            Phase::NatShift {
                hard_fraction: 0.85,
            },
            Phase::CapacityTiers {
                scale: 0.5,
                high_quality_fraction: 0.02,
            },
        ];
        p
    }

    #[test]
    fn base_program_validates_and_compiles_empty_schedule() {
        let p = ScenarioProgram::base("b");
        assert_eq!(p.validate(), Ok(()));
        let c = p.compile().expect("compiles");
        assert!(c.schedule.is_empty());
        assert!(c.scenario.surges.is_empty());
        assert_eq!(c.scenario.duration, SimDuration::from_secs(40));
    }

    #[test]
    fn full_program_compiles_phases_into_scenario_and_schedule() {
        let c = full_program().compile().expect("compiles");
        assert_eq!(c.scenario.surges.len(), 1);
        assert_eq!(c.scenario.start_hour, 6.0);
        assert_eq!(c.scenario.population.nat_hard_fraction, Some(0.85));
        assert_eq!(c.scenario.population.capacity_scale, 0.5);
        assert_eq!(c.scenario.population.high_quality_fraction, 0.02);
        assert_eq!(c.schedule.len(), 3);
        assert!(matches!(
            c.schedule[0],
            ScriptedEvent::RegionalOutage { region: 1, .. }
        ));
        assert!(matches!(c.schedule[1], ScriptedEvent::MassOutage { .. }));
        assert!(matches!(c.schedule[2], ScriptedEvent::ChurnStorm { .. }));
    }

    #[test]
    fn validation_rejects_out_of_window_and_bad_params() {
        let mut p = ScenarioProgram::base("x");
        p.phases.push(Phase::MassOutage {
            at_s: 35,
            dur_s: 10,
            fraction: 0.5,
        });
        assert!(matches!(p.validate(), Err(DslError::PhaseOutOfWindow(_))));

        let mut p = ScenarioProgram::base("x");
        p.phases.push(Phase::MassOutage {
            at_s: 5,
            dur_s: 10,
            fraction: 1.5,
        });
        assert!(matches!(p.validate(), Err(DslError::BadPhase(_))));

        let mut p = ScenarioProgram::base("x");
        p.phases.push(Phase::RegionalOutage {
            at_s: 5,
            dur_s: 10,
            region: REGIONS,
        });
        assert!(matches!(p.validate(), Err(DslError::BadPhase(_))));

        let mut p = ScenarioProgram::base("x");
        p.streams = 0;
        assert!(matches!(
            p.validate(),
            Err(DslError::Scenario(ScenarioError::ZeroStreams))
        ));

        let mut p = ScenarioProgram::base("x");
        p.duration_s = 0;
        assert!(matches!(
            p.validate(),
            Err(DslError::Scenario(ScenarioError::NonPositiveDuration))
        ));

        let mut p = ScenarioProgram::base("x");
        p.name = "two words".into();
        assert!(p.validate().is_err());
    }

    #[test]
    fn spec_round_trips_exactly() {
        let p = full_program();
        let text = p.render_spec();
        let parsed = ScenarioProgram::parse_spec(&text).expect("parses");
        assert_eq!(parsed, p);
        // And rendering the parse reproduces the bytes.
        assert_eq!(parsed.render_spec(), text);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for spec in [
            "duration 40\n",
            "name x\nphase warp_drive at=1\n",
            "name x\nphase mass_outage at=1 dur=5\n",
            "name x\nbogus 4\n",
            // A region beyond u16 is an error, not a silent truncation.
            "name x\nphase regional_outage at=1 dur=5 region=65536\n",
        ] {
            let parsed = ScenarioProgram::parse_spec(spec);
            assert!(matches!(parsed, Err(DslError::Parse(_))), "{spec}");
        }
        // Windows and durations past the u64 clock are not panics.
        for spec in [
            "name x\nphase mass_outage at=1 dur=18446744073709551615 frac=0.5\n",
            "name x\nphase flash_crowd at=18446744073709551615 dur=1 mult=2\n",
            "name x\nduration 18446744073709551\n",
        ] {
            assert!(ScenarioProgram::parse_spec(spec).is_err(), "{spec}");
        }
        // Parsed specs are validated: an out-of-window phase is a hard
        // error even if syntactically fine.
        assert!(matches!(
            ScenarioProgram::parse_spec(
                "name x\nduration 10\nphase mass_outage at=8 dur=5 frac=0.5\n"
            ),
            Err(DslError::PhaseOutOfWindow(_))
        ));
    }

    #[test]
    fn mutation_is_deterministic_and_always_valid() {
        let base = ScenarioProgram::base("seed");
        let mut rng_a = SimRng::new(41);
        let mut rng_b = SimRng::new(41);
        let mut a = base.clone();
        let mut b = base.clone();
        for _ in 0..50 {
            a = a.mutated(&mut rng_a);
            b = b.mutated(&mut rng_b);
            assert_eq!(a, b, "mutation chain diverged");
            assert_eq!(a.validate(), Ok(()));
        }
        // Fifty moves from the base must have changed *something*.
        assert_ne!(a, base);
    }
}
