//! §7.2 multi- vs single-source transmission (Fig 11) and §7.3.2
//! centralized vs distributed frame sequencing (Table 3).
//!
//! Both experiments are a (mode × day) [`rlive_bench::sweep`]; the
//! printed tables are identical for any `--jobs` value.

use rlive::config::DeliveryMode;
use rlive_bench::metric::{BITRATE_MBPS, DISRUPTIONS, E2E_MS, GAMMA, REBUFFERS, REBUFFER_MS, RETX};
use rlive_bench::{
    compare_head, compare_row, header, mean, offset_seeds, paired, peak_spec, print_daily,
    print_series, series, sweep, two_tier_spec, Metric,
};

/// Multi's pooled mean against Single's, in % (0 when Single's is ~0).
fn pooled_diff_pct(multi: &[f64], single: &[f64]) -> f64 {
    let (m, s) = (mean(multi), mean(single));
    if s.abs() < 1e-9 {
        0.0
    } else {
        (m - s) / s * 100.0
    }
}

/// Fig 11: robustness and scalability of Multi vs Single in the
/// two-tier deployment (§7.2.1: weak nodes run Multi, high-capacity
/// nodes run Single).
pub fn fig11(seed: u64) {
    header("Fig 11 — multi-source (Multi) vs single-source (Single)");
    let groups = sweep(
        "fig11",
        &[DeliveryMode::SingleSource, DeliveryMode::RLive],
        &offset_seeds(seed, 0..5),
        |&mode, s| two_tier_spec(s, mode),
    );
    let (single, multi) = (&groups[0], &groups[1]);
    let both = |f: Metric| (series(single, f), series(multi, f));
    let (lat_s, lat_m) = both(E2E_MS);
    let (rebuf_s, rebuf_m) = both(REBUFFERS);
    let (disrupt_s, disrupt_m) = both(DISRUPTIONS);
    let (bitrate_s, bitrate_m) = both(BITRATE_MBPS);
    let (gamma_single, gamma_multi) = both(GAMMA);
    println!("\n(a) E2E latency ms per day (Single then Multi):");
    println!("single: {lat_s:.0?}\nmulti:  {lat_m:.0?}");
    println!("\n(b) QoE per day (Single then Multi):");
    println!("rebuffers/100s    single: {rebuf_s:.2?}\nrebuffers/100s    multi:  {rebuf_m:.2?}");
    println!(
        "disruptions/100s  single: {disrupt_s:.2?}\ndisruptions/100s  multi:  {disrupt_m:.2?}"
    );
    println!(
        "bitrate Mbps      single: {bitrate_s:.2?}\nbitrate Mbps      multi:  {bitrate_m:.2?}"
    );
    println!("\n(c) traffic expansion rate γ per day:");
    println!("single (high-capacity tier): {gamma_single:.2?}");
    println!("multi  (weak tier):          {gamma_multi:.2?}");

    // γ over the run on Fig 11(c)'s time axis: day 0 of each mode is the
    // representative trace, reused straight from the worlds above.
    print_series(
        "fig11c_gamma_single (seconds, gamma)",
        &single[0].gamma_over_time,
    );
    print_series(
        "fig11c_gamma_multi (seconds, gamma)",
        &multi[0].gamma_over_time,
    );

    // γ per Mbps of tier capacity: the substream granularity makes weak
    // nodes useful — the robust simulator-scale version of Fig 11(c).
    let eff_single = mean(&gamma_single) / 500.0;
    let eff_multi = mean(&gamma_multi) / 30.0;
    compare_head();
    compare_row(
        "latency Multi vs Single",
        "-12 to -30 %",
        &format!("{:+.1} %", pooled_diff_pct(&lat_m, &lat_s)),
    );
    compare_row(
        "rebuffer count diff (pooled)",
        "negative",
        &format!("{:+.1} %", pooled_diff_pct(&rebuf_m, &rebuf_s)),
    );
    compare_row(
        "disruption diff (pooled)",
        "negative",
        &format!("{:+.1} %", pooled_diff_pct(&disrupt_m, &disrupt_s)),
    );
    compare_row(
        "γ per tier-capacity Mbps (multi/single)",
        "~2x in production",
        &format!("{:.1}x", eff_multi / eff_single.max(1e-9)),
    );
    println!(
        "\nnote: absolute γ at simulator scale is demand-limited; the capacity-normalised \
         ratio captures what substream granularity buys (weak nodes become usable)."
    );
}

/// Distributed sequencing's reduction against central, in % (0 when
/// central's is ~0).
fn reduction_pct(central: f64, distributed: f64) -> f64 {
    if central.abs() < 1e-9 {
        0.0
    } else {
        (central - distributed) / central * 100.0
    }
}

/// Table 3: centralized vs distributed frame sequencing.
pub fn table3(seed: u64) {
    header("Table 3 — centralized vs distributed frame sequencing");
    let groups = sweep(
        "table3",
        &[DeliveryMode::RLiveCentralSequencing, DeliveryMode::RLive],
        &offset_seeds(seed, 0..4),
        |&mode, s| peak_spec(s, mode, |_| {}),
    );
    let reduction = |f: Metric| paired(&groups[0], &groups[1], f, reduction_pct);
    compare_head();
    for (label, paper, f) in [
        ("retransmission rate reduction", "25.50 %", RETX),
        ("rebuffering times reduction", "3.49 %", REBUFFERS),
        ("rebuffering duration reduction", "5.96 %", REBUFFER_MS),
    ] {
        compare_row(label, paper, &format!("{:.1} %", mean(&reduction(f))));
    }
    println!("\nper-day reductions (distributed vs centralized):");
    for (name, f) in [
        ("retransmissions", RETX),
        ("rebuffer times", REBUFFERS),
        ("rebuffer duration", REBUFFER_MS),
    ] {
        print_daily(name, &reduction(f));
    }
}
