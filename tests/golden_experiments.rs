//! Golden-output regression harness for the `experiments` binary.
//!
//! `tests/golden/<subcmd>.seed7.sha256` stores the SHA-256 digest of
//! `experiments <subcmd> 7` stdout, captured before the actor-module
//! refactor. These tests re-run subcommands and require byte-identical
//! output, so any behavioural drift in the simulation — RNG draw order,
//! event ordering, float arithmetic — fails loudly.
//!
//! The tier-1 subset covers the subcommands that finish in well under a
//! second (pure trace/CDF computations). The full 18-subcommand sweep
//! runs whole simulated worlds and takes minutes; it is `#[ignore]`d and
//! run explicitly:
//!
//! ```sh
//! cargo test --release --test golden_experiments -- --ignored
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

// ---------------------------------------------------------------------
// Minimal self-contained SHA-256 (FIPS 180-4). The offline workspace has
// no hashing crate; this keeps the golden files interoperable with
// `sha256sum`.
// ---------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn sha256_hex(data: &[u8]) -> String {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64) * 8;
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh) =
            (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }
    h.iter().map(|v| format!("{v:08x}")).collect()
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn expected_digest(sub: &str) -> String {
    let path = golden_dir().join(format!("{sub}.seed7.sha256"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
        .trim()
        .to_string()
}

fn run_digest(args: &[&str]) -> String {
    let exe = env!("CARGO_BIN_EXE_experiments");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("spawn experiments binary");
    assert!(
        out.status.success(),
        "experiments {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    sha256_hex(&out.stdout)
}

fn assert_golden(sub: &str, extra: &[&str]) {
    let mut args = vec![sub, "7"];
    args.extend_from_slice(extra);
    let got = run_digest(&args);
    let want = expected_digest(sub);
    assert_eq!(
        got, want,
        "stdout of `experiments {sub} 7` drifted from the golden capture"
    );
}

#[test]
fn sha256_matches_known_vectors() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    // Multi-block message (>64 bytes).
    assert_eq!(
        sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

// ----- tier-1 fast subset (no world simulation) ------------------------

#[test]
fn golden_fig1b() {
    assert_golden("fig1b", &[]);
}

#[test]
fn golden_fig2c() {
    assert_golden("fig2c", &[]);
}

#[test]
fn golden_fig2d() {
    assert_golden("fig2d", &[]);
}

#[test]
fn golden_fig3() {
    assert_golden("fig3", &[]);
}

#[test]
fn golden_table1() {
    assert_golden("table1", &[]);
}

// The fleet preset's worlds are deliberately tiny, so the fleet
// subcommand is the one *world-simulating* path cheap enough for
// tier-1. The same digest must come out of every (jobs, world_jobs)
// combination — this is the end-to-end form of the
// crates/core/tests/fleet_invariance.rs battery.

#[test]
fn golden_fleet() {
    let want = expected_digest("fleet");
    for extra in [
        &[][..],
        &["--jobs", "4"][..],
        &["--jobs", "2", "--world-jobs", "2"][..],
    ] {
        let mut args = vec!["fleet", "5", "7"];
        args.extend_from_slice(extra);
        let got = run_digest(&args);
        assert_eq!(
            got, want,
            "stdout of `experiments fleet 5 7` drifted (extra args {extra:?})"
        );
    }
}

// The fleet flag paths: one command covers the obs roll-up, the merged
// alert log and both policy overrides, which the default fleet digest
// above leaves unpinned.

#[test]
fn golden_fleet_flags() {
    let want = expected_digest("fleet_flags");
    for extra in [
        &[][..],
        &["--jobs", "4"][..],
        &["--jobs", "2", "--world-jobs", "2"][..],
    ] {
        let mut args = vec!["fleet", "2", "7", "--obs-window", "500", "--slo"];
        args.extend_from_slice(&["--sched-policy", "adaptive", "--recovery-policy", "racing"]);
        args.extend_from_slice(extra);
        let got = run_digest(&args);
        assert_eq!(
            got, want,
            "stdout of `experiments fleet 2 7` with every flag drifted (extra args {extra:?})"
        );
    }
}

// The adaptive subcommand is the policy A/B: a (static, adaptive) ×
// seeds grid of mass-outage worlds. Its adaptive arm feeds recovery
// and probe telemetry back into relay scores, so this digest pins the
// whole feedback loop — window folding, hysteresis, demotion — as
// byte-identical across the (jobs, world-jobs) grid, the end-to-end
// form of crates/core/tests/adaptive_invariance.rs.

#[test]
fn golden_adaptive() {
    let want = expected_digest("adaptive");
    for extra in [
        &[][..],
        &["--jobs", "4"][..],
        &["--jobs", "2", "--world-jobs", "2"][..],
    ] {
        let mut args = vec!["adaptive", "3", "7"];
        args.extend_from_slice(extra);
        let got = run_digest(&args);
        assert_eq!(
            got, want,
            "stdout of `experiments adaptive 3 7` drifted (extra args {extra:?})"
        );
    }
}

// The recover subcommand races the qoe_edf and racing recovery
// policies over a (policy × seed) Fleet::product grid under a scripted
// mass outage + churn storm. Hedge legs sample retransmission traces
// from the world RNG and resolve as independent events with
// cancel-on-first-win, so its stdout must hit one digest across the
// whole (jobs, world-jobs) grid — the end-to-end form of
// crates/core/tests/recovery_invariance.rs.

#[test]
fn golden_recover() {
    let want = expected_digest("recover");
    for extra in [
        &[][..],
        &["--jobs", "4"][..],
        &["--jobs", "2", "--world-jobs", "2"][..],
    ] {
        let mut args = vec!["recover", "3", "7"];
        args.extend_from_slice(extra);
        let got = run_digest(&args);
        assert_eq!(
            got, want,
            "stdout of `experiments recover 3 7` drifted (extra args {extra:?})"
        );
    }
}

// The obs subcommand simulates one observability-enabled world; its
// windowed series aggregate over the trace stream, so its stdout must
// hit one digest across the whole (jobs, world-jobs) grid — the
// end-to-end form of crates/sim/tests/obs_invariance.rs. (The
// wall-clock stage profile goes to stderr and is not digested.)

#[test]
fn golden_obs() {
    let want = expected_digest("obs");
    for extra in [
        &[][..],
        &["--jobs", "4"][..],
        &["--jobs", "2", "--world-jobs", "2"][..],
    ] {
        let mut args = vec!["obs", "7"];
        args.extend_from_slice(extra);
        let got = run_digest(&args);
        assert_eq!(
            got, want,
            "stdout of `experiments obs 7` drifted (extra args {extra:?})"
        );
    }
}

// The slo subcommand runs a two-world scripted-storm fleet with the
// SLO engine on and prints the rulebook, the merged fire/resolve alert
// log and the per-injection incident timelines. Alert evaluation reads
// only sealed windows and the per-world alert streams merge in window
// order (exactly associative), so one digest must come out of the
// whole (jobs, world-jobs) grid — the end-to-end form of
// crates/core/tests/slo_invariance.rs.

#[test]
fn golden_slo() {
    let want = expected_digest("slo");
    for extra in [
        &[][..],
        &["--jobs", "4"][..],
        &["--jobs", "2", "--world-jobs", "2"][..],
    ] {
        let mut args = vec!["slo", "7"];
        args.extend_from_slice(extra);
        let got = run_digest(&args);
        assert_eq!(
            got, want,
            "stdout of `experiments slo 7` drifted (extra args {extra:?})"
        );
    }
}

// The fuzz subcommand drives the coverage-guided scenario fuzzer: a
// seed-deterministic mutation/evaluation/selection loop over small DSL
// worlds. Its digest pins the whole campaign — mutation draws, batch
// evaluation, greedy keep decisions, the rendered coverage matrix and
// replayable specs — as byte-identical across the (jobs, world-jobs)
// grid, the end-to-end form of crates/core/tests/fuzz_invariance.rs.

#[test]
fn golden_fuzz() {
    let want = expected_digest("fuzz");
    for extra in [
        &[][..],
        &["--jobs", "4"][..],
        &["--jobs", "2", "--world-jobs", "2"][..],
    ] {
        let mut args = vec!["fuzz", "3", "7"];
        args.extend_from_slice(extra);
        let got = run_digest(&args);
        assert_eq!(
            got, want,
            "stdout of `experiments fuzz 3 7` drifted (extra args {extra:?})"
        );
    }
}

// ----- tier-1 sharded re-run -------------------------------------------
//
// The same fast subset again with the world event loop sharded across
// two workers. The digests are the *same* golden files: `--world-jobs`
// must be byte-invisible in stdout (DESIGN.md "Sharded world
// execution"). These subcommands simulate no worlds, so this pins the
// cheap half of the contract — flag parsing and the N=1-identical
// formation path; `golden_sharded_sweep` below pins the expensive half.

#[test]
fn golden_fig1b_sharded() {
    assert_golden("fig1b", &["--world-jobs", "2"]);
}

#[test]
fn golden_fig2c_sharded() {
    assert_golden("fig2c", &["--world-jobs", "2"]);
}

#[test]
fn golden_fig2d_sharded() {
    assert_golden("fig2d", &["--world-jobs", "2"]);
}

#[test]
fn golden_fig3_sharded() {
    assert_golden("fig3", &["--world-jobs", "2"]);
}

#[test]
fn golden_table1_sharded() {
    assert_golden("table1", &["--world-jobs", "2"]);
}

// A name that is not a subcommand — `bench` was one until the repo
// benchmark (`benchmark/`) replaced it — is a usage error on stderr
// with a non-zero exit, never a panic and never a silent default.
#[test]
fn unknown_subcommand_is_a_usage_error() {
    for sub in ["bench", "nosuch"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .arg(sub)
            .output()
            .expect("spawn experiments binary");
        assert_eq!(out.status.code(), Some(2), "experiments {sub}");
        assert!(out.stdout.is_empty(), "experiments {sub} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown subcommand '{sub}'\n")),
            "experiments {sub}: {stderr}"
        );
    }
}

// An export path that cannot be created is an error before the world
// runs — usage on stderr, exit 2, empty stdout — not a panic after it.
// No file can be created under a regular file, on any host.
#[test]
fn unwritable_obs_export_is_an_error_not_a_panic() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["obs", "7", "--obs-export", path])
        .output()
        .expect("spawn experiments binary");
    assert_eq!(out.status.code(), Some(2), "obs --obs-export {path}");
    assert!(out.stdout.is_empty(), "obs --obs-export wrote to stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(&format!("error: cannot create {path}.jsonl: ")),
        "obs --obs-export {path}: {stderr}"
    );
}

// ----- full sweep (simulated worlds; minutes in release) ---------------

#[test]
#[ignore = "runs full simulated worlds; use --release -- --ignored"]
fn golden_full_sweep() {
    for sub in [
        "fig2a", "fig2b", "fig8", "fig9", "table2", "fig10", "fig11", "fig12", "table3", "fig13",
        "table4", "fallback", "ablation",
    ] {
        assert_golden(sub, &[]);
        eprintln!("golden ok: {sub}");
    }
}

#[test]
#[ignore = "runs a simulated world twice; use --release -- --ignored"]
fn golden_output_is_jobs_invariant() {
    // The runner merges cells deterministically: worker count must not
    // change a single output byte.
    let a = run_digest(&["fig12", "7", "--jobs", "1"]);
    let b = run_digest(&["fig12", "7", "--jobs", "4"]);
    assert_eq!(a, b, "--jobs changed experiments output");
    assert_eq!(a, expected_digest("fig12"));
}

#[test]
#[ignore = "runs full simulated worlds sharded; use --release -- --ignored"]
fn golden_sharded_sweep() {
    // Every world-simulating subcommand, with the event loop *inside*
    // each world sharded across worker threads, must hit the exact
    // digest the sequential run pinned. This is the end-to-end form of
    // the shard-invariance battery in crates/core/tests.
    for jobs in ["2", "8"] {
        for sub in [
            "fig2a", "fig2b", "fig8", "fig9", "table2", "fig10", "fig11", "fig12", "table3",
            "fig13", "table4", "fallback", "ablation",
        ] {
            assert_golden(sub, &["--world-jobs", jobs]);
            eprintln!("golden ok (world-jobs={jobs}): {sub}");
        }
    }
}
