//! Property-based tests of the scenario DSL.
//!
//! Random programs are built the same way the fuzzer builds them — a
//! seeded mutation chain from [`ScenarioProgram::base`] — so these
//! properties cover exactly the program space the fuzz campaign can
//! reach: every reachable program validates, compiles, scripts its
//! disruptions inside the run window, and round-trips through the
//! textual spec format bit-exactly. Hand-written specs with arbitrary
//! field values never panic the parser.

use proptest::prelude::*;
use rlive_sim::{SimDuration, SimRng, SimTime};
use rlive_workload::dsl::{DslError, Phase, ScenarioProgram, ScriptedEvent, REGIONS};
use rlive_workload::scenario::ScenarioError;

/// A random program: `steps` mutations from the base under one seed.
fn chain(seed: u64, steps: usize) -> ScenarioProgram {
    let mut rng = SimRng::new(seed);
    let mut program = ScenarioProgram::base("prop");
    for _ in 0..steps {
        program = program.mutated(&mut rng);
    }
    program
}

/// The `[at, at + duration)` window of a scripted event.
fn event_window(ev: &ScriptedEvent) -> (SimTime, SimDuration) {
    match *ev {
        ScriptedEvent::MassOutage { at, duration, .. }
        | ScriptedEvent::RegionalOutage { at, duration, .. }
        | ScriptedEvent::ChurnStorm { at, duration, .. } => (at, duration),
    }
}

/// A spec field value: small (so some specs validate), anywhere in
/// `u64`, or the largest one.
fn int() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, any::<u64>(), Just(u64::MAX)]
}

/// A spec field value: in the range phases accept, any finite `f64`,
/// or a non-finite one.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..4.0,
        any::<f64>(),
        Just(f64::NAN),
        Just(f64::INFINITY)
    ]
}

/// One phase line of any kind, in `render_spec`'s format.
fn phase_line() -> impl Strategy<Value = String> {
    prop_oneof![
        (int(), int(), float())
            .prop_map(|(a, d, m)| format!("phase flash_crowd at={a} dur={d} mult={m}\n")),
        float().prop_map(|h| format!("phase diurnal_ramp start={h}\n")),
        (int(), int(), int())
            .prop_map(|(a, d, r)| format!("phase regional_outage at={a} dur={d} region={r}\n")),
        (int(), int(), float())
            .prop_map(|(a, d, f)| format!("phase mass_outage at={a} dur={d} frac={f}\n")),
        (int(), int(), float())
            .prop_map(|(a, d, f)| format!("phase churn_storm at={a} dur={d} frac={f}\n")),
        float().prop_map(|h| format!("phase nat_shift hard={h}\n")),
        (float(), float()).prop_map(|(s, q)| format!("phase capacity_tiers scale={s} hq={q}\n")),
    ]
}

/// A spec setting every base key, followed by up to three phases.
fn any_spec() -> impl Strategy<Value = String> {
    let base = (int(), int(), int(), float(), int());
    (base, prop::collection::vec(phase_line(), 0..4)).prop_map(
        |((duration, viewers, streams, zipf, nodes), phases)| {
            format!(
                "# rlive scenario spec v1\nname any\nduration {duration}\nviewers {viewers}\n\
                 streams {streams}\nzipf {zipf}\nnodes {nodes}\n{}",
                phases.concat()
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every program the mutation operator can reach stays valid: the
    /// fuzzer never has to handle a mutant that fails validation.
    #[test]
    fn mutation_chain_stays_valid(seed in any::<u64>(), steps in 1usize..12) {
        let program = chain(seed, steps);
        prop_assert!(program.validate().is_ok(), "mutant failed validation: {program:?}");
        prop_assert!(program.compile().is_ok());
    }

    /// Compilation contains every scripted disruption inside the run
    /// window: an event scheduled past the end would silently never
    /// fire and an overlong one would outlive the world.
    #[test]
    fn compiled_schedule_is_contained(seed in any::<u64>(), steps in 1usize..12) {
        let program = chain(seed, steps);
        let compiled = program.compile().unwrap();
        let run = SimDuration::from_secs(program.duration_s);
        prop_assert_eq!(compiled.scenario.duration, run);
        for ev in &compiled.schedule {
            let (at, duration) = event_window(ev);
            let start = at.saturating_since(SimTime::ZERO);
            prop_assert!(duration > SimDuration::ZERO, "zero-length event {ev:?}");
            prop_assert!(
                start + duration <= run,
                "event {ev:?} escapes the {run} run window"
            );
        }
        // Compilation also keeps phase-declaration order: the schedule
        // length equals the number of churn-scripting phases.
        let scripted = program.phases.iter().filter(|p| {
            matches!(
                p.label(),
                "mass_outage" | "regional_outage" | "churn_storm"
            )
        }).count();
        prop_assert_eq!(compiled.schedule.len(), scripted);
    }

    /// The textual spec format round-trips bit-exactly (floats render
    /// with Rust's shortest round-trip formatting), so a checked-in
    /// regression spec replays the exact program the fuzzer found.
    #[test]
    fn spec_round_trips(seed in any::<u64>(), steps in 1usize..12) {
        let program = chain(seed, steps);
        let spec = program.render_spec();
        let parsed = ScenarioProgram::parse_spec(&spec).unwrap();
        prop_assert_eq!(&parsed, &program);
        // And the round-trip is a fixed point of rendering.
        prop_assert_eq!(parsed.render_spec(), spec);
    }

    /// Compilation is a pure function of the program: two compiles
    /// yield identical scenarios and schedules (the replay-determinism
    /// half of the fuzzer's contract; the world-level half lives in
    /// the fuzz case of crates/core/tests/invariance.rs).
    #[test]
    fn compile_is_deterministic(seed in any::<u64>(), steps in 1usize..8) {
        let program = chain(seed, steps);
        let a = program.compile().unwrap();
        let b = program.compile().unwrap();
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Mutation is driven entirely by the supplied RNG: the same seed
    /// yields the same mutant, different draws stay within the valid
    /// program space (never panic, never invalid).
    #[test]
    fn mutation_is_seed_deterministic(seed in any::<u64>()) {
        let a = chain(seed, 6);
        let b = chain(seed, 6);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `parse_spec` returns instead of panicking on any field value,
    /// and whatever it accepts is the spec exactly (no field silently
    /// truncated) with every window inside a run the microsecond clock
    /// can hold.
    #[test]
    fn parse_spec_never_panics(spec in any_spec()) {
        if let Ok(program) = ScenarioProgram::parse_spec(&spec) {
            prop_assert_eq!(program.render_spec(), spec);
            prop_assert!(program.duration_s.checked_mul(1_000_000).is_some());
            for phase in &program.phases {
                if let Phase::FlashCrowd { at_s, dur_s, .. }
                | Phase::RegionalOutage { at_s, dur_s, .. }
                | Phase::MassOutage { at_s, dur_s, .. }
                | Phase::ChurnStorm { at_s, dur_s, .. } = *phase
                {
                    let end = at_s.checked_add(dur_s);
                    prop_assert!(end.is_some_and(|end| end <= program.duration_s));
                }
            }
            prop_assert!(program.compile().is_ok());
        }
    }
}

#[test]
fn validation_rejects_contradictory_phases() {
    // Overlapping mass outage and churn storm.
    let mut p = ScenarioProgram::base("x");
    p.phases = vec![
        Phase::MassOutage {
            at_s: 5,
            dur_s: 10,
            fraction: 0.5,
        },
        Phase::ChurnStorm {
            at_s: 10,
            dur_s: 10,
            fraction: 0.3,
        },
    ];
    assert!(matches!(
        p.validate(),
        Err(DslError::ContradictoryPhases(_))
    ));

    // Same-region overlapping outages: contradictory.
    p.phases = vec![
        Phase::RegionalOutage {
            at_s: 5,
            dur_s: 10,
            region: 2,
        },
        Phase::RegionalOutage {
            at_s: 8,
            dur_s: 10,
            region: 2,
        },
    ];
    assert!(matches!(
        p.validate(),
        Err(DslError::ContradictoryPhases(_))
    ));

    // Different regions may overlap: disjoint relay sets.
    p.phases[1] = Phase::RegionalOutage {
        at_s: 8,
        dur_s: 10,
        region: 3,
    };
    assert_eq!(p.validate(), Ok(()));

    // Two NAT shifts contradict.
    p.phases = vec![
        Phase::NatShift { hard_fraction: 0.2 },
        Phase::NatShift { hard_fraction: 0.8 },
    ];
    assert!(matches!(
        p.validate(),
        Err(DslError::ContradictoryPhases(_))
    ));
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
