//! Coverage-driven scenario fuzzing over the workload DSL.
//!
//! The fuzzer mutates [`ScenarioProgram`]s starting from the quiet
//! [`ScenarioProgram::base`] reference, runs every candidate as a full
//! delivery world with an attached trace sink, and scores it on two
//! axes:
//!
//! - **behavioural coverage** ([`CoverageCatalog`]): which trace-event
//!   kinds fired, which mode transitions occurred, which recovery
//!   actions succeeded/failed, and which blew their deadline;
//! - **QoE badness**: rebuffer time, head-skips, and the worst
//!   obs-window recovery-failure rate.
//!
//! A candidate is *kept* when it covers a behaviour no earlier run
//! reached, or when it is markedly worse than anything seen so far —
//! kept candidates join the mutation frontier and their specs are
//! emitted as replayable regression seeds.
//!
//! Determinism contract: mutation, evaluation order, and selection are
//! all driven by the single fuzz seed; candidate worlds are evaluated
//! through the deterministic cell runner and folded in input order, so
//! the rendered report is byte-identical for any `--jobs` /
//! `--world-jobs` combination (pinned by the fuzz case of
//! `tests/invariance.rs` and the `fuzz` golden file).

use crate::config::{DeliveryMode, SystemConfig};
use crate::fleet::WorldSpec;
use crate::world::GroupPolicy;
use rlive_sim::coverage::CoverageCatalog;
use rlive_sim::obs::{time_stage, Stage};
use rlive_sim::runner::run_cells;
use rlive_sim::trace::{TraceEvent, TraceSink};
use rlive_sim::{SimDuration, SimRng};
use rlive_workload::dsl::{DslError, ScenarioProgram};

/// Candidates evaluated per runner batch. Fixed (not derived from
/// `jobs`) so the mutation/selection schedule is identical no matter
/// how many worker threads execute the batch.
const BATCH: usize = 4;

/// A kept candidate is "markedly worse" when its badness exceeds the
/// running worst by this factor.
const BADNESS_KEEP_FACTOR: f64 = 1.05;

/// Fuzz campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of mutated candidates to generate and evaluate.
    pub candidates: usize,
    /// Campaign seed: drives mutation, parent selection, and the world
    /// seed of every candidate evaluation.
    pub seed: u64,
    /// Worker threads for batch evaluation (outputs are folded in
    /// input order, so this never changes results).
    pub jobs: usize,
    /// Intra-world shard workers (`0` = the process default).
    pub world_jobs: usize,
}

impl FuzzConfig {
    /// A sequential single-threaded campaign — the reference
    /// configuration the invariance tests compare against.
    pub fn sequential(candidates: usize, seed: u64) -> Self {
        FuzzConfig {
            candidates,
            seed,
            jobs: 1,
            world_jobs: 1,
        }
    }
}

/// QoE-derived severity of one candidate run.
#[derive(Debug, Clone, Copy)]
pub struct QoeScore {
    /// Mean rebuffer milliseconds per 100 s of viewing.
    pub rebuffer_ms_per_100s: f64,
    /// Mean reorder head-skips per 100 s of viewing.
    pub skips_per_100s: f64,
    /// Worst obs-window recovery-failure rate, percent (windows with
    /// no recovery samples are skipped, never counted as 0 %).
    pub worst_window_failure_pct: f64,
}

impl QoeScore {
    /// Scalar severity used for keep decisions and worst-k ranking:
    /// rebuffer time plus weighted skips and worst-window failures.
    /// The weights are coarse by design — the fuzzer only needs a
    /// stable "worse than everything so far" ordering, not a
    /// calibrated QoE model.
    pub fn badness(&self) -> f64 {
        self.rebuffer_ms_per_100s + 10.0 * self.skips_per_100s + 2.0 * self.worst_window_failure_pct
    }
}

/// One evaluated program: the program itself plus what its world did.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The program that ran.
    pub program: ScenarioProgram,
    /// Behavioural coverage extracted from the world's trace stream.
    pub coverage: CoverageCatalog,
    /// QoE severity of the run.
    pub score: QoeScore,
}

/// A fuzzed candidate's outcome relative to the running campaign.
#[derive(Debug, Clone)]
pub struct CandidateOutcome {
    /// The evaluation itself.
    pub eval: Evaluated,
    /// Coverage points this run reached that no earlier run had.
    pub new_points: usize,
    /// Whether its badness exceeded the running worst by the keep
    /// factor.
    pub worse: bool,
    /// Whether the candidate was kept (joined the frontier).
    pub kept: bool,
}

/// The result of a full fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Campaign seed.
    pub seed: u64,
    /// The base-program evaluation every candidate is compared against.
    pub base: Evaluated,
    /// Every candidate in generation order.
    pub candidates: Vec<CandidateOutcome>,
    /// Union coverage over the base run and all candidates.
    pub union: CoverageCatalog,
}

impl FuzzReport {
    /// Indices of kept candidates, in generation order.
    pub fn kept(&self) -> Vec<usize> {
        (0..self.candidates.len())
            .filter(|&i| self.candidates[i].kept)
            .collect()
    }

    /// Indices of the `k` worst candidates by badness (descending;
    /// ties broken by generation order).
    pub fn worst(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.candidates.len()).collect();
        idx.sort_by(|&a, &b| {
            let ba = self.candidates[a].eval.score.badness();
            let bb = self.candidates[b].eval.score.badness();
            bb.total_cmp(&ba).then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }
}

/// The fixed system configuration every fuzz world runs under: peer
/// delivery engages early (so churn phases actually hit relay-sourced
/// sessions) and the obs layer is on (the QoE score needs its
/// windowed recovery-failure series).
fn fuzz_world_config(world_jobs: usize) -> SystemConfig {
    SystemConfig {
        cdn_edge_mbps: 90,
        multi_source_after: SimDuration::from_secs(5),
        popularity_threshold: 1,
        obs_window_ms: 1000,
        world_jobs,
        ..SystemConfig::default()
    }
}

/// Compiles and runs one program as a full world, extracting coverage
/// from the trace stream and the QoE score from the run report.
///
/// The world seed is the campaign seed: candidates differ only in the
/// scenario they script, which isolates coverage/QoE deltas to the
/// mutation instead of entangling them with a reseeded population.
pub fn evaluate(program: &ScenarioProgram, fuzz: &FuzzConfig) -> Result<Evaluated, DslError> {
    // Stage-profiled (wall clock, stderr-only reporting).
    let _span = time_stage(Stage::FuzzEval);
    let compiled = program.compile()?;
    let spec = WorldSpec {
        seed: fuzz.seed,
        scenario: compiled.scenario,
        config: fuzz_world_config(fuzz.world_jobs),
        policy: GroupPolicy::uniform(DeliveryMode::RLive),
        schedule: compiled.schedule,
    };
    let mut world = spec.build();
    let sink = TraceSink::unbounded();
    world.attach_trace_sink(sink.clone());
    let report = world.run();
    let coverage = CoverageCatalog::from_records(&sink.drain());
    let worst_window_failure_pct = report
        .obs
        .recovery_failure_rate()
        .iter()
        .filter(|w| w.has_samples())
        .map(|w| 100.0 * w.rate())
        .fold(0.0f64, f64::max);
    let score = QoeScore {
        rebuffer_ms_per_100s: report.test_qoe.rebuffer_ms_per_100s.mean(),
        skips_per_100s: report.test_qoe.skips_per_100s.mean(),
        worst_window_failure_pct,
    };
    Ok(Evaluated {
        program: program.clone(),
        coverage,
        score,
    })
}

/// Parses a spec file and replays it under the standard fuzz-world
/// configuration — the entry point regression tests use to re-run
/// checked-in worst-case scenarios.
pub fn replay_spec(text: &str, fuzz: &FuzzConfig) -> Result<Evaluated, DslError> {
    let program = ScenarioProgram::parse_spec(text)?;
    evaluate(&program, fuzz)
}

/// Runs a full campaign: evaluate the base program, then generate
/// `cfg.candidates` mutants in fixed-size batches, keeping those
/// that grow coverage or worsen QoE.
///
/// Mutation draws parents uniformly from the kept frontier (base plus
/// every kept candidate so far), so interesting behaviours compound
/// instead of every mutant re-deriving from the quiet base.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = SimRng::new(cfg.seed);
    let base_program = ScenarioProgram::base("base");
    let base = evaluate(&base_program, cfg).expect("base program is valid");
    let mut union = base.coverage.clone();
    let mut worst_badness = base.score.badness();
    let mut frontier: Vec<ScenarioProgram> = vec![base_program];
    let mut candidates: Vec<CandidateOutcome> = Vec::with_capacity(cfg.candidates);
    let mut serial = 0usize;
    while candidates.len() < cfg.candidates {
        let batch_n = BATCH.min(cfg.candidates - candidates.len());
        let mut batch: Vec<ScenarioProgram> = Vec::with_capacity(batch_n);
        for _ in 0..batch_n {
            let parent = &frontier[rng.below(frontier.len() as u64) as usize];
            let mut mutant = parent.mutated(&mut rng);
            serial += 1;
            mutant.name = format!("m{serial:03}");
            batch.push(mutant);
        }
        // Parallel evaluation, sequential selection: `run_cells` folds
        // outputs in input order, so the frontier/union updates below
        // see candidates in the exact order they were generated.
        let (evals, _stats) = run_cells(
            "fuzz",
            cfg.jobs,
            &batch,
            |_, _, _| {},
            |p| evaluate(p, cfg).expect("mutants re-validate before evaluation"),
        );
        for eval in evals {
            let new_points = eval.coverage.new_points_vs(&union);
            let worse = eval.score.badness() > worst_badness * BADNESS_KEEP_FACTOR;
            let kept = new_points > 0 || worse;
            if kept {
                union.merge(&eval.coverage);
                worst_badness = worst_badness.max(eval.score.badness());
                frontier.push(eval.program.clone());
            }
            candidates.push(CandidateOutcome {
                eval,
                new_points,
                worse,
                kept,
            });
        }
    }
    FuzzReport {
        seed: cfg.seed,
        base,
        candidates,
        union,
    }
}

/// Renders the deterministic campaign report: the candidate table, the
/// coverage matrix over base + kept runs, axis totals, and the worst
/// candidates as replayable spec blocks.
pub fn render_report(report: &FuzzReport, top_k: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let n = report.candidates.len();
    let _ = writeln!(
        out,
        "scenario fuzz — {n} candidate{} from seed {}",
        if n == 1 { "" } else { "s" },
        report.seed
    );
    let _ = writeln!(
        out,
        "base '{}': {} coverage points, badness {:.2}",
        report.base.program.name,
        report.base.coverage.len(),
        report.base.score.badness()
    );

    let _ = writeln!(
        out,
        "\n{:>3}  {:<6} {:<44} {:>4} {:>9}  verdict",
        "#", "name", "phases", "new", "badness"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for (i, c) in report.candidates.iter().enumerate() {
        let phases = if c.eval.program.phases.is_empty() {
            "(none)".to_string()
        } else {
            c.eval
                .program
                .phases
                .iter()
                .map(|p| p.summary())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let verdict = match (c.kept, c.new_points > 0, c.worse) {
            (false, _, _) => "drop".to_string(),
            (true, true, false) => format!("keep (+{} coverage)", c.new_points),
            (true, false, true) => "keep (worse qoe)".to_string(),
            (true, true, true) => format!("keep (+{} coverage, worse qoe)", c.new_points),
            (true, false, false) => unreachable!("kept candidates grow coverage or qoe"),
        };
        let _ = writeln!(
            out,
            "{:>3}  {:<6} {:<44} {:>4} {:>9.2}  {}",
            i + 1,
            c.eval.program.name,
            phases,
            c.new_points,
            c.eval.score.badness(),
            verdict
        );
    }

    // Coverage matrix: every point the campaign reached (rows) against
    // the base run and each kept candidate (columns).
    let kept = report.kept();
    let labels = report.union.labels();
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(5).max(5);
    let _ = writeln!(
        out,
        "\ncoverage matrix ({} points × {} runs):",
        labels.len(),
        1 + kept.len()
    );
    let mut head = format!("{:<label_w$}", "point");
    let _ = write!(head, " {:>6}", "base");
    for &i in &kept {
        let _ = write!(head, " {:>6}", report.candidates[i].eval.program.name);
    }
    let _ = writeln!(out, "{head}");
    for label in &labels {
        let mut row = format!("{label:<label_w$}");
        let mark = |covered: bool| if covered { "x" } else { "." };
        let _ = write!(row, " {:>6}", mark(report.base.coverage.covers(label)));
        for &i in &kept {
            let _ = write!(
                row,
                " {:>6}",
                mark(report.candidates[i].eval.coverage.covers(label))
            );
        }
        let _ = writeln!(out, "{row}");
    }
    let (kinds, transitions, recovery, blown) = report.union.axis_counts();
    let _ = writeln!(
        out,
        "axes: {kinds}/{} trace kinds, {transitions} mode transitions, \
         {recovery} recovery outcomes, {blown} deadline-blown",
        TraceEvent::ALL_KINDS.len()
    );
    let uncovered: Vec<&str> = TraceEvent::ALL_KINDS
        .iter()
        .copied()
        .filter(|k| !report.union.covers(&format!("kind:{k}")))
        .collect();
    if uncovered.is_empty() {
        let _ = writeln!(out, "uncovered trace kinds: (none)");
    } else {
        let _ = writeln!(out, "uncovered trace kinds: {}", uncovered.join(", "));
    }

    let worst = report.worst(top_k);
    let _ = writeln!(
        out,
        "\ntop {} worst candidate{} by badness (replayable specs):",
        worst.len(),
        if worst.len() == 1 { "" } else { "s" }
    );
    for &i in &worst {
        let c = &report.candidates[i];
        let _ = writeln!(
            out,
            "\n--- {}  badness {:.2}  coverage {} ---",
            c.eval.program.name,
            c.eval.score.badness(),
            c.eval.coverage.len()
        );
        let _ = write!(out, "{}", c.eval.program.render_spec());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_program_evaluates_with_nonempty_coverage() {
        let cfg = FuzzConfig::sequential(0, 7);
        let base = evaluate(&ScenarioProgram::base("base"), &cfg).unwrap();
        assert!(!base.coverage.is_empty(), "a quiet run still traces joins");
        assert!(base.score.badness().is_finite());
    }

    #[test]
    fn replay_spec_matches_direct_evaluation() {
        let cfg = FuzzConfig::sequential(0, 11);
        let mut program = ScenarioProgram::base("spec");
        program.phases.push(rlive_workload::dsl::Phase::MassOutage {
            at_s: 10,
            dur_s: 10,
            fraction: 0.5,
        });
        let direct = evaluate(&program, &cfg).unwrap();
        let replayed = replay_spec(&program.render_spec(), &cfg).unwrap();
        assert_eq!(replayed.program, program);
        assert_eq!(
            format!("{:?}", replayed.coverage),
            format!("{:?}", direct.coverage)
        );
        assert_eq!(
            replayed.score.badness().to_bits(),
            direct.score.badness().to_bits()
        );
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let a = run_fuzz(&FuzzConfig::sequential(3, 7));
        let b = run_fuzz(&FuzzConfig::sequential(3, 7));
        assert_eq!(render_report(&a, 3), render_report(&b, 3));
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let err = replay_spec("not a spec", &FuzzConfig::sequential(0, 1));
        assert!(err.is_err());
    }
}
