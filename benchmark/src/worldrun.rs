//! Timing, allocation counting and checking of whole world runs.

use rlive::world::{RunReport, World};
use rlive_bench::perf::alloc_snapshot;
use rlive_media::hash::fnv1a;
use std::time::Instant;

/// Tally of operations executed and failed. One world run or one driver
/// check is one operation; a failed check is a failed operation, never a
/// silently dropped sample.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: CHECK FAILED: {what}");
        }
    }
}

/// Host-side measurements of one `World::run`.
#[derive(Debug, Clone)]
pub struct RunSample {
    /// Wall time inside `World::run`, seconds.
    pub run_s: f64,
    /// Simulated events the run handled.
    pub events: u64,
    /// Allocator calls during `World::run`.
    pub allocs: u64,
    /// Bytes requested during `World::run`.
    pub alloc_bytes: u64,
    /// FNV-1a of `format!("{:?}", RunReport)`.
    pub digest: u64,
}

/// Times and alloc-counts the run of an already built world.
pub fn run(world: World) -> (RunSample, RunReport) {
    let (a0, b0) = alloc_snapshot();
    let t0 = Instant::now();
    let report = world.run();
    let run_s = t0.elapsed().as_secs_f64();
    let (a1, b1) = alloc_snapshot();
    let sample = RunSample {
        run_s,
        events: report.event_counts.total(),
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        digest: fnv1a(format!("{report:?}").as_bytes()),
    };
    (sample, report)
}

/// The per-run output checks: the world did simulate something (events
/// handled, sessions opened, frames delivered to clients), and every
/// QoE mean it reports is a number. Delivered rather than played
/// frames, because the shortest workload ends before any player has
/// filled its start-up buffer.
pub fn check_report(ops: &mut Ops, workload: &str, report: &RunReport) {
    let q = &report.test_qoe;
    let sane = report.event_counts.total() > 0
        && q.views > 0
        && report.event_counts.get("client_slice") > 0
        && [
            q.rebuffers_per_100s.mean(),
            q.rebuffer_ms_per_100s.mean(),
            q.bitrate_bps.mean(),
            q.e2e_latency_ms.mean(),
            q.retx_per_100s.mean(),
            q.skips_per_100s.mean(),
            report.invalid_candidate_fraction,
        ]
        .iter()
        .all(|v| v.is_finite());
    ops.check(
        sane,
        &format!(
            "{workload}: world run must have events, views, delivered frames and finite QoE \
             means (events {}, views {}, client slices {})",
            report.event_counts.total(),
            q.views,
            report.event_counts.get("client_slice")
        ),
    );
}
