//! §7.3.1 control-plane evaluation: Fig 12 (recommendation latency,
//! invalid candidates, scheduler QPS over a day).

use rlive::config::DeliveryMode;
use rlive_bench::metric::INVALID_CANDIDATES;
use rlive_bench::{compare_head, compare_row, header, peak_spec, print_series, sweep};
use rlive_workload::streams::DiurnalModel;

/// Fig 12: global control plane statistics (a one-world sweep; the
/// projection onto the diurnal curve is pure arithmetic).
pub fn fig12(seed: u64) {
    header("Fig 12 — global control plane statistics");
    let r = sweep("fig12", &[()], &[seed], |_, s| {
        peak_spec(s, DeliveryMode::RLive, |_| {})
    })
    .remove(0)
    .remove(0);

    // (a) recommendation service time distribution.
    let lat = &r.scheduler_latency_ms;
    compare_head();
    compare_row(
        "recommendation P50",
        "58.2 ms",
        &format!("{:.1} ms", lat[50]),
    );
    compare_row(
        "recommendation P90",
        "111.5 ms",
        &format!("{:.1} ms", lat[90]),
    );
    let pts: Vec<(f64, f64)> = lat
        .iter()
        .enumerate()
        .step_by(5)
        .map(|(q, &ms)| (ms, q as f64 / 100.0))
        .collect();
    print_series("fig12a_recommendation_latency_cdf (ms, prob)", &pts);

    // (b) invalid candidate fraction.
    compare_row(
        "invalid candidates (probe failures)",
        "up to 35 %",
        &format!("{:.1} %", INVALID_CANDIDATES(&r) * 100.0),
    );

    // (c) scheduler QPS over a day: requests scale with viewer arrivals
    // and re-mapping; project the measured per-viewer request rate onto
    // the diurnal curve at production scale.
    let per_view = r.scheduler_requests as f64 / r.test_qoe.views.max(1) as f64;
    println!(
        "\nmeasured {} scheduler requests over {} views ({per_view:.1} per view)",
        r.scheduler_requests, r.test_qoe.views
    );
    // Fleet sizing at 18 us/recommendation (a 3x margin over the 5-6 us
    // `control.scheduler.recommend_us_cold` reads in `benchmark/`): how
    // many workers absorb the paper's multi-MQPS peak?
    use rlive_control::capacity::CapacityModel;
    let service = rlive_sim::SimDuration::from_micros(18);
    for peak_mqps in [1.7, 3.0] {
        let workers = CapacityModel::workers_for(
            service,
            peak_mqps * 1e6,
            rlive_sim::SimDuration::from_millis(5),
        );
        println!(
            "fleet sizing: {peak_mqps} MQPS at <=5 ms mean latency needs ~{workers} workers \
             (18 us/request, M/M/c)"
        );
    }
    let m = DiurnalModel::default();
    // Production: ~2.4M peak concurrent streams, hundreds of millions of
    // viewers; Fig 12(c) shows several million QPS at the evening peak.
    let production_peak_qps = 2.0e6;
    let pts: Vec<(f64, f64)> = (0..48)
        .map(|i| {
            let h = i as f64 / 2.0;
            (h, m.load_at(h) * production_peak_qps / 1e6)
        })
        .collect();
    print_series(
        "fig12c_scheduler_qps_diurnal (hour, MQPS at production scale)",
        &pts,
    );
}
