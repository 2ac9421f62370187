//! Design ablations called out in the paper's design and discussion
//! sections: probe count (§4.1.2), substream count K (§6/§8.3),
//! exploration mixing (§8.2), NAT traversal refinement (§8.1) and chain
//! length δ (§5.2).
//!
//! Every world-running ablation is one [`rlive_bench::sweep`] over its
//! settings, printed as one row per setting, so the tables are identical
//! for any `--jobs` value.

use rlive::config::{DeliveryMode, SystemConfig};
use rlive::WorldSpec;
use rlive_bench::metric::{BITRATE_MBPS, E2E_MS, INVALID_CANDIDATES, REBUFFERS, REBUFFER_MS};
use rlive_bench::Cell::{Fixed, Percent};
use rlive_bench::{
    compare_head, compare_row, header, offset_seeds, peak_spec, print_variants, runner, sweep,
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

/// One peak-scenario RLive world with a caller's config edit.
fn rlive_spec(seed: u64, edit: impl FnOnce(&mut SystemConfig)) -> WorldSpec {
    peak_spec(seed, DeliveryMode::RLive, edit)
}

/// §8.3 (open question, implemented here): criticality-aware substream
/// partitioning — I-frames pinned to substream 0, which the control
/// plane homes on the most stable candidate relay.
pub fn partition_strategy(seed: u64) {
    use rlive_media::substream::PartitionStrategy;
    header("Extension — adaptive substream partitioning (§8.3)");
    let strategies = [
        ("static-hash", PartitionStrategy::StaticHash),
        ("size-aware", PartitionStrategy::SizeAware),
    ];
    let groups = sweep(
        "ablation-partition",
        &strategies,
        &offset_seeds(seed, 0..3),
        |&(_, strategy), s| rlive_spec(s, |cfg| cfg.partition = strategy),
    );
    print_variants(
        ("strategy", 14),
        72,
        &[
            ("rebuf/100s", 14, Fixed(2), REBUFFERS),
            ("rebuf ms/100s", 16, Fixed(0), REBUFFER_MS),
            ("E2E ms", 12, Fixed(0), E2E_MS),
            ("bitrate", 12, Fixed(2), BITRATE_MBPS),
        ],
        strategies.iter().map(|(label, _)| label).zip(groups),
    );
    println!(
        "\npinning I-frames to the stablest relay trades a little load balance for \
         fewer GoP-wide decode losses (§8.3's hypothesis)."
    );
}

/// §5.1: chunk-based delivery (HLS-style multi-second segments) vs
/// RLive's frame-level transmission.
pub fn chunked_delivery(seed: u64) {
    header("Ablation — frame-level vs chunk-based relay forwarding (§5.1)");
    let variants: [(&str, Option<u32>); 4] = [
        ("frame-level", None),
        ("0.5 s chunks", Some(15u32)),
        ("1 s chunks", Some(30)),
        ("2 s chunks", Some(60)),
    ];
    let groups = sweep("ablation-chunk", &variants, &[seed], |&(_, chunk), s| {
        rlive_spec(s, |cfg| cfg.chunk_frames = chunk)
    });
    print_variants(
        ("granularity", 16),
        60,
        &[
            ("E2E ms", 12, Fixed(0), E2E_MS),
            ("rebuf/100s", 14, Fixed(2), REBUFFERS),
            ("bitrate Mbps", 14, Fixed(2), BITRATE_MBPS),
        ],
        variants.iter().map(|(label, _)| label).zip(groups),
    );
    println!(
        "\nchunk accumulation adds head-of-line latency at every relay — the reason \
         RLive pushes at frame granularity (§5.1)."
    );
}

/// §8.1: embedding the publisher IP in packets lets recovery skip DNS.
pub fn dns_bypass(seed: u64) {
    header("Ablation — DNS bypass for frame recovery (§8.1)");
    let cells = [true, false];
    let groups = sweep("ablation-dns", &cells, &[seed], |&bypass, s| {
        rlive_spec(s, |cfg| cfg.dns_bypass = bypass)
    });
    print_variants(
        ("bypass", 12),
        58,
        &[
            ("rebuf/100s", 14, Fixed(2), REBUFFERS),
            ("rebuf ms/100s", 16, Fixed(0), REBUFFER_MS),
            ("E2E ms", 12, Fixed(0), E2E_MS),
        ],
        cells.iter().zip(groups),
    );
    println!("\nthe bypass removes a resolver RTT from every dedicated recovery request.");
}

/// §4.1.2: probing more than three candidates yields <1 % success gain.
pub fn probes(seed: u64) {
    header("Ablation — probe count (§4.1.2: deployed limit is 3)");
    let cells = [1usize, 2, 3, 5];
    let groups = sweep("ablation-probes", &cells, &[seed], |&max_probes, s| {
        rlive_spec(s, |cfg| cfg.client_controller.max_probes = max_probes)
    });
    print_variants(
        ("probes", 10),
        58,
        &[
            ("mapping success", 16, Percent(1), |r| {
                1.0 - INVALID_CANDIDATES(r)
            }),
            ("rebuf/100s", 14, Fixed(2), REBUFFERS),
            ("bitrate Mbps", 14, Fixed(2), BITRATE_MBPS),
        ],
        cells.iter().zip(groups),
    );
    println!("\npaper: beyond 3 probes, success improves <1 % at linear cost.");
}

/// §6/§8.3: substream count K.
pub fn substreams(seed: u64) {
    header("Ablation — substream count K (deployed: 4)");
    let cells = [1u16, 2, 4, 8];
    let groups = sweep("ablation-substreams", &cells, &[seed], |&k, s| {
        rlive_spec(s, |cfg| {
            cfg.substreams = k;
            cfg.recovery.substream_count = k;
        })
    });
    print_variants(
        ("K", 6),
        64,
        &[
            ("rebuf/100s", 12, Fixed(2), REBUFFERS),
            ("rebuf ms/100s", 16, Fixed(0), REBUFFER_MS),
            ("bitrate Mbps", 14, Fixed(2), BITRATE_MBPS),
            ("E2E ms", 12, Fixed(0), E2E_MS),
        ],
        cells.iter().zip(groups),
    );
    println!("\nK=1 loses the multi-source robustness; large K multiplies mapping work.");
}

/// §8.2: global explore–exploit mixing.
pub fn explore(seed: u64) {
    header("Ablation — scheduler exploration fraction (§8.2)");
    let cells = [0.0, 0.2, 0.5];
    let groups = sweep("ablation-explore", &cells, &[seed], |&frac, s| {
        rlive_spec(s, |cfg| cfg.scheduler.explore_fraction = frac)
    });
    print_variants(
        ("explore", 10),
        58,
        &[
            ("rebuf/100s", 14, Fixed(2), REBUFFERS),
            ("bitrate Mbps", 14, Fixed(2), BITRATE_MBPS),
            ("invalid cands", 16, Percent(1), INVALID_CANDIDATES),
        ],
        cells.iter().zip(groups),
    );
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
