//! Design ablations called out in the paper's design and discussion
//! sections: probe count (§4.1.2), substream count K (§6/§8.3),
//! exploration mixing (§8.2), NAT traversal refinement (§8.1) and chain
//! length δ (§5.2).
//!
//! Every world-running ablation fans its configuration sweep out as a
//! [`Fleet`]; rows are printed from the spec-ordered per-world reports,
//! so the tables are identical for any `--jobs` value.

use rlive::config::DeliveryMode;
use rlive::world::{GroupPolicy, RunReport};
use rlive::{Fleet, WorldSpec};
use rlive_bench::{
    compare_head, compare_row, header, offset_seeds, peak_config, peak_scenario, runner,
};
use rlive_data::sequencing::{GlobalChain, MatchResult};
use rlive_media::footprint::{ChainGenerator, LocalChain, CHAIN_LEN};
use rlive_media::gop::{GopConfig, GopGenerator};
use rlive_media::packet::PACKET_PAYLOAD;
use rlive_sim::nat::{NatMix, TraversalModel};
use rlive_sim::SimRng;

/// Runs all ablations.
pub fn all(seed: u64) {
    probes(seed);
    substreams(seed);
    explore(seed);
    nat_refinement();
    chain_length(seed);
    dns_bypass(seed);
    chunked_delivery(seed);
    partition_strategy(seed);
}

/// One peak-scenario RLive world with a caller-tweaked config.
fn peak_spec(seed: u64, tweak: impl Fn(&mut rlive::config::SystemConfig)) -> WorldSpec {
    let mut cfg = peak_config();
    cfg.mode = DeliveryMode::RLive;
    tweak(&mut cfg);
    WorldSpec {
        seed,
        scenario: peak_scenario(),
        config: cfg,
        policy: GroupPolicy::uniform(DeliveryMode::RLive),
        schedule: Vec::new(),
    }
}

/// §8.3 (open question, implemented here): criticality-aware substream
/// partitioning — I-frames pinned to substream 0, which the control
/// plane homes on the most stable candidate relay.
pub fn partition_strategy(seed: u64) {
    use rlive_media::substream::PartitionStrategy;
    header("Extension — adaptive substream partitioning (§8.3)");
    println!(
        "{:<14} {:>14} {:>16} {:>12} {:>12}",
        "strategy", "rebuf/100s", "rebuf ms/100s", "E2E ms", "bitrate"
    );
    println!("{}", "-".repeat(72));
    let strategies = [
        ("static-hash", PartitionStrategy::StaticHash),
        ("size-aware", PartitionStrategy::SizeAware),
    ];
    let days = 3u64;
    let day_seeds = offset_seeds(seed, 0..days);
    let fleet = Fleet::product(
        "ablation-partition",
        &strategies,
        &day_seeds,
        |&(_, strategy), &s| peak_spec(s, |cfg| cfg.partition = strategy),
    );
    let reports = runner::run_fleet(fleet).worlds;
    for ((label, _), group) in strategies.iter().zip(reports.chunks(days as usize)) {
        let n = days as f64;
        let sum = |f: &dyn Fn(&RunReport) -> f64| group.iter().map(f).sum::<f64>();
        println!(
            "{label:<14} {:>14.2} {:>16.0} {:>12.0} {:>12.2}",
            sum(&|r| r.test_qoe.rebuffers_per_100s.mean()) / n,
            sum(&|r| r.test_qoe.rebuffer_ms_per_100s.mean()) / n,
            sum(&|r| r.test_qoe.e2e_latency_ms.mean()) / n,
            sum(&|r| r.test_qoe.bitrate_bps.mean() / 1e6) / n,
        );
    }
    println!(
        "
pinning I-frames to the stablest relay trades a little load balance for          fewer GoP-wide decode losses (§8.3's hypothesis)."
    );
}

/// §5.1: chunk-based delivery (HLS-style multi-second segments) vs
/// RLive's frame-level transmission.
pub fn chunked_delivery(seed: u64) {
    header("Ablation — frame-level vs chunk-based relay forwarding (§5.1)");
    println!(
        "{:<16} {:>12} {:>14} {:>14}",
        "granularity", "E2E ms", "rebuf/100s", "bitrate Mbps"
    );
    println!("{}", "-".repeat(60));
    let variants: [(&str, Option<u32>); 4] = [
        ("frame-level", None),
        ("0.5 s chunks", Some(15u32)),
        ("1 s chunks", Some(30)),
        ("2 s chunks", Some(60)),
    ];
    let fleet = Fleet::product("ablation-chunk", &variants, &[seed], |&(_, chunk), &s| {
        peak_spec(s, |cfg| cfg.chunk_frames = chunk)
    });
    let reports = runner::run_fleet(fleet).worlds;
    for ((label, _), r) in variants.iter().zip(&reports) {
        println!(
            "{label:<16} {:>12.0} {:>14.2} {:>14.2}",
            r.test_qoe.e2e_latency_ms.mean(),
            r.test_qoe.rebuffers_per_100s.mean(),
            r.test_qoe.bitrate_bps.mean() / 1e6
        );
    }
    println!(
        "
chunk accumulation adds head-of-line latency at every relay — the reason          RLive pushes at frame granularity (§5.1)."
    );
}

/// §8.1: embedding the publisher IP in packets lets recovery skip DNS.
pub fn dns_bypass(seed: u64) {
    header("Ablation — DNS bypass for frame recovery (§8.1)");
    println!(
        "{:<12} {:>14} {:>16} {:>12}",
        "bypass", "rebuf/100s", "rebuf ms/100s", "E2E ms"
    );
    println!("{}", "-".repeat(58));
    let cells = [true, false];
    let fleet = Fleet::product("ablation-dns", &cells, &[seed], |&bypass, &s| {
        peak_spec(s, |cfg| cfg.dns_bypass = bypass)
    });
    let reports = runner::run_fleet(fleet).worlds;
    for (bypass, r) in cells.iter().zip(&reports) {
        println!(
            "{:<12} {:>14.2} {:>16.0} {:>12.0}",
            bypass,
            r.test_qoe.rebuffers_per_100s.mean(),
            r.test_qoe.rebuffer_ms_per_100s.mean(),
            r.test_qoe.e2e_latency_ms.mean()
        );
    }
    println!(
        "
the bypass removes a resolver RTT from every dedicated recovery request."
    );
}

/// §4.1.2: probing more than three candidates yields <1 % success gain.
pub fn probes(seed: u64) {
    header("Ablation — probe count (§4.1.2: deployed limit is 3)");
    println!(
        "{:<10} {:>16} {:>14} {:>14}",
        "probes", "mapping success", "rebuf/100s", "bitrate Mbps"
    );
    println!("{}", "-".repeat(58));
    let cells = [1usize, 2, 3, 5];
    let fleet = Fleet::product("ablation-probes", &cells, &[seed], |&max_probes, &s| {
        peak_spec(s, |cfg| cfg.client_controller.max_probes = max_probes)
    });
    let reports = runner::run_fleet(fleet).worlds;
    for (max_probes, r) in cells.iter().zip(&reports) {
        let success = 1.0 - r.invalid_candidate_fraction;
        println!(
            "{max_probes:<10} {:>15.1}% {:>14.2} {:>14.2}",
            success * 100.0,
            r.test_qoe.rebuffers_per_100s.mean(),
            r.test_qoe.bitrate_bps.mean() / 1e6
        );
    }
    println!("\npaper: beyond 3 probes, success improves <1 % at linear cost.");
}

/// §6/§8.3: substream count K.
pub fn substreams(seed: u64) {
    header("Ablation — substream count K (deployed: 4)");
    println!(
        "{:<6} {:>12} {:>16} {:>14} {:>12}",
        "K", "rebuf/100s", "rebuf ms/100s", "bitrate Mbps", "E2E ms"
    );
    println!("{}", "-".repeat(64));
    let cells = [1u16, 2, 4, 8];
    let fleet = Fleet::product("ablation-substreams", &cells, &[seed], |&k, &s| {
        peak_spec(s, |cfg| {
            cfg.substreams = k;
            cfg.recovery.substream_count = k;
        })
    });
    let reports = runner::run_fleet(fleet).worlds;
    for (k, r) in cells.iter().zip(&reports) {
        println!(
            "{k:<6} {:>12.2} {:>16.0} {:>14.2} {:>12.0}",
            r.test_qoe.rebuffers_per_100s.mean(),
            r.test_qoe.rebuffer_ms_per_100s.mean(),
            r.test_qoe.bitrate_bps.mean() / 1e6,
            r.test_qoe.e2e_latency_ms.mean()
        );
    }
    println!("\nK=1 loses the multi-source robustness; large K multiplies mapping work.");
}

/// §8.2: global explore–exploit mixing.
pub fn explore(seed: u64) {
    header("Ablation — scheduler exploration fraction (§8.2)");
    println!(
        "{:<10} {:>14} {:>14} {:>16}",
        "explore", "rebuf/100s", "bitrate Mbps", "invalid cands"
    );
    println!("{}", "-".repeat(58));
    let cells = [0.0, 0.2, 0.5];
    let fleet = Fleet::product("ablation-explore", &cells, &[seed], |&frac, &s| {
        peak_spec(s, |cfg| cfg.scheduler.explore_fraction = frac)
    });
    let reports = runner::run_fleet(fleet).worlds;
    for (frac, r) in cells.iter().zip(&reports) {
        println!(
            "{frac:<10} {:>14.2} {:>14.2} {:>15.1}%",
            r.test_qoe.rebuffers_per_100s.mean(),
            r.test_qoe.bitrate_bps.mean() / 1e6,
            r.invalid_candidate_fraction * 100.0
        );
    }
    println!("\nexploration keeps node state fresh at the cost of some riskier picks.");
}

/// §8.1: refined NAT classification expands the usable pool ~22 %.
pub fn nat_refinement() {
    header("Ablation — NAT traversal refinement (§8.1)");
    let mix = NatMix::production();
    let base = TraversalModel::baseline();
    let refined = TraversalModel::default();
    let usable_base = base.usable_fraction(&mix, 0.6);
    let usable_refined = refined.usable_fraction(&mix, 0.6);
    let gain = (usable_refined - usable_base) / usable_base * 100.0;
    compare_head();
    compare_row(
        "usable pool, RFC 5780 only",
        "baseline",
        &format!("{:.1} %", usable_base * 100.0),
    );
    compare_row(
        "usable pool, refined techniques",
        "+~22 %",
        &format!("{:.1} % ({gain:+.1} %)", usable_refined * 100.0),
    );
}

/// §5.2: chain length δ — longer chains tolerate longer chain-loss gaps.
pub fn chain_length(seed: u64) {
    header("Ablation — frame chain length δ (deployed: 4)");
    // Measure how often a gap of `g` consecutive lost chains is bridged
    // by the next arriving chain, for the deployed δ=4 (structural: a
    // chain of length δ bridges gaps up to δ-1). The frame stream is
    // generated once; each gap size is an independent cell over it.
    let mut gen = GopGenerator::new(1, GopConfig::default(), SimRng::new(seed));
    let frames = gen.take_frames(400);
    let mut cg = ChainGenerator::new(PACKET_PAYLOAD);
    let chains: Vec<LocalChain> = frames.iter().map(|f| cg.observe(&f.header)).collect();
    println!(
        "{:<18} {:>16} {:>22}",
        "chain-loss gap", "bridged (δ=4)", "needs mismatch pool"
    );
    println!("{}", "-".repeat(60));
    let gaps: Vec<usize> = (1..=5).collect();
    let rows = runner::map_cells("ablation-chain", &gaps, |&gap| {
        let mut bridged = 0;
        let mut pooled = 0;
        let mut trials = 0;
        for start in (8..frames.len() - gap - 1).step_by(7) {
            let mut gc = GlobalChain::new();
            for f in &frames[..start + gap + 1] {
                gc.ingest_header(f.header);
            }
            gc.ingest_chain(&chains[start]);
            // `gap` consecutive chains lost; the next one arrives.
            match gc.ingest_chain(&chains[start + gap + 1]) {
                MatchResult::Matched => bridged += 1,
                MatchResult::Deferred => pooled += 1,
                MatchResult::Rejected => {}
            }
            trials += 1;
        }
        (bridged, pooled, trials)
    });
    for (gap, (bridged, pooled, trials)) in gaps.iter().zip(&rows) {
        println!(
            "{gap:<18} {:>15.0}% {:>21.0}%",
            *bridged as f64 / *trials as f64 * 100.0,
            *pooled as f64 / *trials as f64 * 100.0
        );
    }
    println!(
        "\nδ = {CHAIN_LEN}: gaps up to δ-1 chains bridge immediately; longer gaps wait \
         in the mismatch pool until a bridging chain arrives (§5.2)."
    );
}
