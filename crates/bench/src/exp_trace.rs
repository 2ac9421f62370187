//! `experiments trace` — render a structured per-session event timeline
//! from one small traced world.
//!
//! Attaches a ring-buffered [`TraceSink`] to a scaled-down RLive world,
//! runs it, and prints the drained timeline grouped by session. The
//! world is single-threaded, so the rendered text is a pure function of
//! the seed (and the optional stream filter).

use rlive::telemetry::{render_timeline, TraceSink};
use rlive_bench::small_world;

/// Ring capacity: large enough to hold a short run's full event record.
const RING_CAPACITY: usize = 4096;

/// Runs [`small_world`] with tracing enabled and prints the per-session
/// timeline. `stream` restricts the session blocks to viewers of that
/// stream; one the world does not have is an error.
pub fn trace(seed: u64, stream: Option<u64>) -> Result<(), String> {
    let mut world = small_world(seed, stream, |_| {})?;
    let sink = TraceSink::ring(RING_CAPACITY);
    world.attach_trace_sink(sink.clone());
    let report = world.run();

    println!(
        "# trace seed={seed} stream={} sessions={} dropped_records={}",
        stream.map_or_else(|| "all".to_string(), |s| s.to_string()),
        report.test_qoe.views + report.control_qoe.views,
        sink.dropped(),
    );
    if sink.dropped() > 0 {
        // Ring saturation is easy to miss in the header; say it plainly
        // (the count is deterministic, so this line is golden-safe).
        println!(
            "warning: {} trace records dropped (ring capacity {RING_CAPACITY}); timeline is truncated at the head",
            sink.dropped()
        );
    }
    print!("{}", render_timeline(&sink.drain(), stream));
    Ok(())
}
