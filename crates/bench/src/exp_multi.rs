//! §7.2 multi- vs single-source transmission (Fig 11) and §7.3.2
//! centralized vs distributed frame sequencing (Table 3).
//!
//! Both experiments are a (day × mode) [`Fleet`]; per-world reports are
//! consumed in spec-index order so the printed tables are identical for
//! any `--jobs` value.

use rlive::config::DeliveryMode;
use rlive::world::GroupPolicy;
use rlive::{Fleet, WorldSpec};
use rlive_bench::peak_config;
use rlive_bench::peak_scenario;
use rlive_bench::{
    compare_head, compare_row, header, healthy_cdn_config, offset_seeds, print_daily, runner,
    two_tier_scenario,
};

fn two_tier_spec(mode: DeliveryMode, seed: u64) -> WorldSpec {
    let mut cfg = healthy_cdn_config();
    cfg.mode = mode;
    cfg.multi_on_weak_tier = true;
    WorldSpec {
        seed,
        scenario: two_tier_scenario(),
        config: cfg,
        policy: GroupPolicy::uniform(mode),
        schedule: Vec::new(),
    }
}

/// Fig 11: robustness and scalability of Multi vs Single in the
/// two-tier deployment (§7.2.1: weak nodes run Multi, high-capacity
/// nodes run Single).
pub fn fig11(seed: u64) {
    header("Fig 11 — multi-source (Multi) vs single-source (Single)");
    let days = offset_seeds(seed, 0..5);
    // One world per (day, mode) pair, single first then multi.
    let fleet = Fleet::product(
        "fig11",
        &days,
        &[DeliveryMode::SingleSource, DeliveryMode::RLive],
        |&s, &mode| two_tier_spec(mode, s),
    );
    let reports = runner::run_fleet(fleet).worlds;
    let mut lat_s = Vec::new();
    let mut lat_m = Vec::new();
    let mut rebuf_s = Vec::new();
    let mut rebuf_m = Vec::new();
    let mut disrupt_s = Vec::new();
    let mut disrupt_m = Vec::new();
    let mut bitrate_s = Vec::new();
    let mut bitrate_m = Vec::new();
    let mut gamma_single = Vec::new();
    let mut gamma_multi = Vec::new();
    for day in reports.chunks(2) {
        let (single, multi) = (&day[0], &day[1]);
        lat_s.push(single.test_qoe.e2e_latency_ms.mean());
        lat_m.push(multi.test_qoe.e2e_latency_ms.mean());
        rebuf_s.push(single.test_qoe.rebuffers_per_100s.mean());
        rebuf_m.push(multi.test_qoe.rebuffers_per_100s.mean());
        disrupt_s.push(
            single.test_qoe.rebuffers_per_100s.mean() + single.test_qoe.skips_per_100s.mean(),
        );
        disrupt_m
            .push(multi.test_qoe.rebuffers_per_100s.mean() + multi.test_qoe.skips_per_100s.mean());
        bitrate_s.push(single.test_qoe.bitrate_bps.mean() / 1e6);
        bitrate_m.push(multi.test_qoe.bitrate_bps.mean() / 1e6);
        gamma_single.push(single.test_traffic.expansion_rate().unwrap_or(0.0));
        gamma_multi.push(multi.test_traffic.expansion_rate().unwrap_or(0.0));
    }
    let mean0 = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let pooled = |m: &[f64], s: &[f64]| {
        let (m, s) = (mean0(m), mean0(s));
        if s.abs() < 1e-9 {
            0.0
        } else {
            (m - s) / s * 100.0
        }
    };
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
    let lat_diff = [pooled(&lat_m, &lat_s)];
    let rebuf_num_diff = [pooled(&rebuf_m, &rebuf_s)];
    let rebuf_dur_diff = [pooled(&disrupt_m, &disrupt_s)];

    // γ over the run on Fig 11(c)'s time axis: day 0 of each mode is the
    // representative trace, reused straight from the cells above (cells
    // 0 and 1 are day 0's single/multi worlds).
    let single = &reports[0];
    let multi = &reports[1];
    rlive_bench::print_series(
        "fig11c_gamma_single (seconds, gamma)",
        &single.gamma_over_time,
    );
    rlive_bench::print_series(
        "fig11c_gamma_multi (seconds, gamma)",
        &multi.gamma_over_time,
    );

    // γ per Mbps of tier capacity: the substream granularity makes weak
    // nodes useful — the robust simulator-scale version of Fig 11(c).
    let eff_single = mean0(&gamma_single) / 500.0;
    let eff_multi = mean0(&gamma_multi) / 30.0;
    compare_head();
    compare_row(
        "latency Multi vs Single",
        "-12 to -30 %",
        &format!("{:+.1} %", lat_diff[0]),
    );
    compare_row(
        "rebuffer count diff (pooled)",
        "negative",
        &format!("{:+.1} %", rebuf_num_diff[0]),
    );
    compare_row(
        "disruption diff (pooled)",
        "negative",
        &format!("{:+.1} %", rebuf_dur_diff[0]),
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

/// Table 3: centralized vs distributed frame sequencing.
pub fn table3(seed: u64) {
    header("Table 3 — centralized vs distributed frame sequencing");
    let days = offset_seeds(seed, 0..4);
    let fleet = Fleet::product(
        "table3",
        &days,
        &[DeliveryMode::RLiveCentralSequencing, DeliveryMode::RLive],
        |&s, &mode| {
            let mut c = peak_config();
            c.mode = mode;
            WorldSpec {
                seed: s,
                scenario: peak_scenario(),
                config: c,
                policy: GroupPolicy::uniform(mode),
                schedule: Vec::new(),
            }
        },
    );
    let reports = runner::run_fleet(fleet).worlds;
    let mut retx_red = Vec::new();
    let mut rebuf_times_red = Vec::new();
    let mut rebuf_dur_red = Vec::new();
    for day in reports.chunks(2) {
        let (central, distributed) = (&day[0], &day[1]);
        let red = |central: f64, dist: f64| {
            if central.abs() < 1e-9 {
                0.0
            } else {
                (central - dist) / central * 100.0
            }
        };
        retx_red.push(red(
            central.test_qoe.retx_per_100s.mean(),
            distributed.test_qoe.retx_per_100s.mean(),
        ));
        rebuf_times_red.push(red(
            central.test_qoe.rebuffers_per_100s.mean(),
            distributed.test_qoe.rebuffers_per_100s.mean(),
        ));
        rebuf_dur_red.push(red(
            central.test_qoe.rebuffer_ms_per_100s.mean(),
            distributed.test_qoe.rebuffer_ms_per_100s.mean(),
        ));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    compare_head();
    compare_row(
        "retransmission rate reduction",
        "25.50 %",
        &format!("{:.1} %", mean(&retx_red)),
    );
    compare_row(
        "rebuffering times reduction",
        "3.49 %",
        &format!("{:.1} %", mean(&rebuf_times_red)),
    );
    compare_row(
        "rebuffering duration reduction",
        "5.96 %",
        &format!("{:.1} %", mean(&rebuf_dur_red)),
    );
    println!("\nper-day reductions (distributed vs centralized):");
    print_daily("retransmissions", &retx_red);
    print_daily("rebuffer times", &rebuf_times_red);
    print_daily("rebuffer duration", &rebuf_dur_red);
}
