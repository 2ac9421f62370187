//! Metric catalogue, the per-run result line, and the `results.json`
//! schema the suite writes and `--check` validates.
//!
//! The catalogue below is the same list as `BENCHMARK.json`; a test
//! holds the two together.

use crate::stats::Summary;
use crate::worldrun::Ops;
use rlive_bench::perf::Json;

/// Schema tag of `results.json`.
pub const SCHEMA: &str = "rlive-benchmark-v1";

/// End-to-end metrics: `(name, unit, better, bound)`. All host time or
/// host memory; `bound` is the share of the parent's median by which
/// the metric may worsen.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("events_per_sec", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("allocs_per_event", "count", "lower", 0.10),
    ("alloc_bytes_per_event", "B", "lower", 0.20),
    ("peak_heap_mb", "MB", "lower", 0.20),
];

/// Every event kind `World::handle` counts, for `core.world.ev.<kind>`.
pub const EVENT_KINDS: [&str; 13] = [
    "stream_frame",
    "relay_frame",
    "client_slice",
    "chain_delivery",
    "player_tick",
    "control_tick",
    "recovery_outcome",
    "hedge_outcome",
    "relay_tick",
    "cdn_tick",
    "client_arrival",
    "multi_source_upgrade",
    "client_departure",
];

/// Per-layer metrics other than the event-kind counts:
/// `(name, unit, better)`, named `<crate>.<module>.<metric>`.
const PER_LAYER: [(&str, &str, &str); 51] = [
    ("core.world.peak_rss_mb", "MB", "lower"),
    ("core.world.events", "count", "lower"),
    ("core.world.run_s", "s", "lower"),
    ("core.world.alloc_count_m", "M", "lower"),
    ("core.world.alloc_gb", "GB", "lower"),
    ("core.world.unattributed_share", "ratio", "lower"),
    ("core.world.trace_overhead_frac", "ratio", "lower"),
    ("control.scheduler.recommend_calls", "count", "lower"),
    ("control.scheduler.recommend_self_s", "s", "lower"),
    ("control.scheduler.recommend_us_cold", "us", "lower"),
    ("control.scheduler.recommend_us_warm", "us", "lower"),
    ("control.scheduler.recommend_alloc_kb_cold", "KB", "lower"),
    (
        "control.scheduler.stream_utilization_us_warm",
        "us",
        "lower",
    ),
    ("control.scheduler.heartbeat_ns", "ns", "lower"),
    ("control.scheduler.register_ns", "ns", "lower"),
    ("control.registry.retrieve_us_cold", "us", "lower"),
    ("control.registry.pool_per_want_cold", "ratio", "lower"),
    ("control.registry.reindex_ns", "ns", "lower"),
    ("control.adviser.evaluate_ns", "ns", "lower"),
    ("data.reorder.drain_calls", "count", "lower"),
    ("data.reorder.drain_self_s", "s", "lower"),
    ("data.reorder.ingest_ns_per_pkt", "ns", "lower"),
    ("data.reorder.ingest_ns_per_pkt_lossy", "ns", "lower"),
    ("data.reorder.release_share", "ratio", "higher"),
    ("data.sequencing.chain_ns", "ns", "lower"),
    ("data.recovery.decide_calls", "count", "lower"),
    ("data.recovery.decide_self_s", "s", "lower"),
    ("data.recovery.decide_ns_per_frame", "ns", "lower"),
    ("data.recovery.racing_plan_ns_per_frame", "ns", "lower"),
    ("media.packet.packetize_ns_per_frame", "ns", "lower"),
    ("media.packet.codec_ns", "ns", "lower"),
    ("media.footprint.observe_ns", "ns", "lower"),
    ("media.flv.decode_mb_s", "MB/s", "higher"),
    ("sim.event.push_pop_ns", "ns", "lower"),
    ("sim.obs.window_seal_calls", "count", "lower"),
    ("sim.obs.window_seal_self_s", "s", "lower"),
    ("sim.obs.ingest_ns_per_record", "ns", "lower"),
    ("sim.obs.seal_us_per_window", "us", "lower"),
    ("sim.obs.export_mb_s", "MB/s", "higher"),
    ("sim.slo.alert_eval_self_s", "s", "lower"),
    ("sim.slo.observe_ns_per_window", "ns", "lower"),
    ("core.session.hedge_resolve_calls", "count", "lower"),
    ("core.session.hedge_resolve_self_s", "s", "lower"),
    ("core.shard.shardable_event_share", "ratio", "higher"),
    ("core.shard.execute_self_s", "s", "lower"),
    ("core.shard.merge_self_s", "s", "lower"),
    ("core.shard.speedup_wj2", "ratio", "higher"),
    ("core.fleet.fold_ms", "ms", "lower"),
    ("core.fleet.speedup_jobs2", "ratio", "higher"),
    ("workload.nodes.generate_s", "s", "lower"),
    ("workload.dsl.compile_us", "us", "lower"),
];

/// The full per-layer list: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for kind in EVENT_KINDS {
        out.push((format!("core.world.ev.{kind}"), "count", "lower"));
    }
    out
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }

    /// The `name: {value, unit}` member this metric is in every document.
    pub fn to_member(&self) -> (String, Json) {
        let body = Json::Obj(vec![
            ("value".into(), Json::Num(self.value)),
            ("unit".into(), Json::Str(self.unit.clone())),
        ]);
        (self.name.clone(), body)
    }
}

/// Everything one run (one process) reports.
#[derive(Debug)]
pub struct RunResult {
    pub workload: String,
    pub metrics: Vec<Metric>,
    pub ops: Ops,
    /// FNV-1a over the digests of every world of the panel, in order;
    /// an untraced run has it, a traced run (world 0 only) does not.
    pub panel_digest: Option<u64>,
    /// Digest of world 0 of the panel, which both kinds of run simulate.
    pub world0_digest: u64,
}

/// Renders `json` on one line. `Json::render` breaks lines only between
/// tokens (newlines inside strings are escaped), so joining the trimmed
/// lines keeps the document intact.
pub fn render_line(json: &Json) -> Result<String, String> {
    Ok(json.render()?.lines().map(str::trim).collect())
}

impl RunResult {
    /// The result object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.ops.failed == 0)),
            ("attempted".into(), Json::Num(self.ops.attempted as f64)),
            ("failed".into(), Json::Num(self.ops.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(self.metrics.iter().map(Metric::to_member).collect()),
            ),
        ])
    }

    /// Prints every metric as `workload metric value unit`, then the
    /// digests, then the result object as the last line of stdout.
    pub fn print(&self) -> Result<(), String> {
        let line = render_line(&self.to_json())?;
        for m in &self.metrics {
            println!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        println!("{} ops {} count", self.workload, self.ops.attempted);
        println!("{} ops_failed {} count", self.workload, self.ops.failed);
        if let Some(d) = self.panel_digest {
            println!("{} sim_digest {d:016x} fnv1a", self.workload);
        }
        println!(
            "{} sim_digest_world0 {:016x} fnv1a",
            self.workload, self.world0_digest
        );
        println!("{line}");
        Ok(())
    }
}

/// Reads a [`RunResult`] back from a child's stdout: the digest lines
/// and the final result object.
pub fn parse_run_output(workload: &str, stdout: &str) -> Result<RunResult, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let doc = Json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("result line lacks numeric '{key}'"))
    };
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err("result line lacks object 'metrics'".into());
    };
    let mut metrics = Vec::with_capacity(fields.len());
    for (name, m) in fields {
        let value = m.get("value").and_then(Json::as_num);
        let unit = m.get("unit").and_then(Json::as_str);
        match (value, unit) {
            (Some(v), Some(u)) => metrics.push(Metric::new(name, v, u)),
            _ => return Err(format!("metric '{name}' lacks value or unit")),
        }
    }
    let digest = |name: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{workload} {name} ")))
            .and_then(|rest| u64::from_str_radix(rest.split_whitespace().next()?, 16).ok())
    };
    Ok(RunResult {
        workload: workload.to_string(),
        metrics,
        ops: Ops {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
        },
        panel_digest: digest("sim_digest"),
        world0_digest: digest("sim_digest_world0").ok_or("child printed no digest line")?,
    })
}

/// A [`Summary`] as a JSON object, with the metric's unit.
pub fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::Obj(vec![
        ("unit".into(), Json::Str(unit.into())),
        ("n".into(), Json::Num(s.n as f64)),
        ("min".into(), Json::Num(s.min)),
        ("q1".into(), Json::Num(s.q1)),
        ("median".into(), Json::Num(s.median)),
        ("q3".into(), Json::Num(s.q3)),
        ("max".into(), Json::Num(s.max)),
    ])
}

fn require_num(obj: &Json, key: &str, what: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{what}: missing numeric key '{key}'"))
}

/// Validates a `results.json` document: schema tag, `"claim": null`,
/// and for every workload the five end-to-end summaries (ordered
/// min ≤ q1 ≤ median ≤ q3 ≤ max, n ≥ 1) plus every per-layer metric
/// with a unit. Smoke documents are held to the same shape.
pub fn check(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema {other:?} != {SCHEMA:?}")),
    }
    if doc.get("claim") != Some(&Json::Null) {
        return Err("'claim' must be present and null: the benchmark claims no gain".into());
    }
    for key in ["seed", "repeats", "seconds"] {
        require_num(doc, key, "document")?;
    }
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .filter(|w| !w.is_empty())
        .ok_or("'workloads' must be a non-empty array")?;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload lacks string 'name'")?;
        if crate::workloads::by_name(name).is_none() {
            return Err(format!("unknown workload '{name}'"));
        }
        for key in [
            "nodes",
            "viewers",
            "streams",
            "sim_secs",
            "ops",
            "ops_failed",
        ] {
            require_num(w, key, name)?;
        }
        if require_num(w, "ops", name)? < 1.0 {
            return Err(format!("{name}: 'ops' must be at least 1"));
        }
        w.get("sim_digest")
            .and_then(Json::as_str)
            .filter(|d| d.len() == 16 && u64::from_str_radix(d, 16).is_ok())
            .ok_or_else(|| format!("{name}: 'sim_digest' must be 16 hex digits"))?;
        let e2e = w
            .get("end_to_end")
            .ok_or_else(|| format!("{name}: missing 'end_to_end'"))?;
        for (metric, unit, _, _) in END_TO_END {
            let what = format!("{name}.{metric}");
            let s = e2e.get(metric).ok_or_else(|| format!("{what}: missing"))?;
            if s.get("unit").and_then(Json::as_str) != Some(unit) {
                return Err(format!("{what}: unit must be '{unit}'"));
            }
            if require_num(s, "n", &what)? < 1.0 {
                return Err(format!("{what}: needs at least one sample"));
            }
            let v = |key: &str| require_num(s, key, &what);
            let (min, q1, median, q3, max) =
                (v("min")?, v("q1")?, v("median")?, v("q3")?, v("max")?);
            // Quartiles of two or three samples may extrapolate past
            // min and max, so each pair is only ordered around the
            // median — and only to rounding, since interpolating
            // between equal samples can land an ulp either side.
            let le = |a: f64, b: f64| a <= b + 1e-9 * b.abs();
            if !(le(q1, median) && le(median, q3) && le(min, median) && le(median, max)) {
                return Err(format!(
                    "{what}: q1 <= median <= q3 and min <= median <= max must hold"
                ));
            }
            if median <= 0.0 {
                return Err(format!("{what}: median must be positive"));
            }
        }
        let layers = w
            .get("per_layer")
            .ok_or_else(|| format!("{name}: missing 'per_layer'"))?;
        for (metric, unit, _) in per_layer() {
            let what = format!("{name}.{metric}");
            let m = layers
                .get(&metric)
                .ok_or_else(|| format!("{what}: missing"))?;
            require_num(m, "value", &what)?;
            if m.get("unit").and_then(Json::as_str) != Some(unit) {
                return Err(format!("{what}: unit must be '{unit}'"));
            }
        }
    }
    Ok(())
}

/// `--check FILE`.
pub fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    check(&Json::parse(&text).map_err(|e| format!("'{path}': {e}"))?)
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::stats::summarize;

    /// A minimal valid document, for this module's and the suite's tests.
    pub fn sample_doc() -> Json {
        let s = summarize(&[1.0, 2.0, 4.0]).unwrap();
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u, _, _)| (n.to_string(), summary_json(&s, u)))
            .collect();
        let layers = per_layer()
            .into_iter()
            .map(|(n, u, _)| Metric::new(&n, 0.5, u).to_member())
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("claim".into(), Json::Null),
            ("seed".into(), Json::Num(101.0)),
            ("repeats".into(), Json::Num(3.0)),
            ("seconds".into(), Json::Num(20.0)),
            (
                "workloads".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("storm".into())),
                    ("nodes".into(), Json::Num(200.0)),
                    ("viewers".into(), Json::Num(300.0)),
                    ("streams".into(), Json::Num(4.0)),
                    ("sim_secs".into(), Json::Num(60.0)),
                    ("ops".into(), Json::Num(9.0)),
                    ("ops_failed".into(), Json::Num(0.0)),
                    ("sim_digest".into(), Json::Str("00ff00ff00ff00ff".into())),
                    ("end_to_end".into(), Json::Obj(e2e)),
                    ("per_layer".into(), Json::Obj(layers)),
                ])]),
            ),
        ])
    }

    /// Replaces the value at `path` (object keys; arrays take index 0).
    fn set(doc: &mut Json, path: &[&str], value: Option<Json>) {
        let (head, rest) = path.split_first().expect("non-empty path");
        let target = match doc {
            Json::Arr(items) => return set(&mut items[0], path, value),
            Json::Obj(fields) => fields,
            _ => panic!("path runs through a scalar"),
        };
        if rest.is_empty() {
            target.retain(|(k, _)| k != head);
            if let Some(v) = value {
                target.push((head.to_string(), v));
            }
        } else {
            let next = target
                .iter_mut()
                .find(|(k, _)| k == head)
                .expect("key on path");
            set(&mut next.1, rest, value);
        }
    }

    #[test]
    fn results_round_trip_through_perf_json() {
        let doc = sample_doc();
        let text = doc.render().unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        check(&doc).unwrap();
        // The one-line form is the same document.
        let line = render_line(&doc).unwrap();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn run_output_round_trips_and_keeps_every_digit() {
        let r = RunResult {
            workload: "storm".into(),
            metrics: vec![
                Metric::new("events_per_sec", 412345.6789012345, "1/s"),
                Metric::new("allocs_per_event", 20.0, "count"),
            ],
            ops: Ops {
                attempted: 7,
                failed: 1,
            },
            panel_digest: Some(0xdead_beef_0000_0001),
            world0_digest: 0x17,
        };
        let line = render_line(&r.to_json()).unwrap();
        let stdout = format!(
            "storm events_per_sec 4.1 1/s\nstorm sim_digest deadbeef00000001 fnv1a\n\
             storm sim_digest_world0 0000000000000017 fnv1a\n{line}\n"
        );
        let back = parse_run_output("storm", &stdout).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!((back.ops.attempted, back.ops.failed), (7, 1));
        assert_eq!(back.panel_digest, r.panel_digest);
        assert_eq!(back.world0_digest, r.world0_digest);
        assert_eq!(r.to_json().get("correct"), Some(&Json::Bool(false)));
        assert!(parse_run_output("storm", "").is_err());
        assert!(
            parse_run_output("storm", &line).is_err(),
            "digest line is required"
        );
    }

    #[test]
    fn check_rejects_broken_documents() {
        let broken = |path: &[&str], value: Option<Json>| {
            let mut d = sample_doc();
            set(&mut d, path, value);
            check(&d).unwrap_err()
        };
        assert!(broken(&["schema"], Some(Json::Str("v0".into()))).contains("schema"));
        assert!(broken(&["claim"], None).contains("claim"));
        assert!(broken(&["claim"], Some(Json::Num(1.2))).contains("claim"));
        assert!(broken(&["workloads"], Some(Json::Arr(vec![]))).contains("non-empty"));
        assert!(broken(&["workloads", "name"], Some(Json::Str("x".into()))).contains("unknown"));
        assert!(broken(&["workloads", "ops"], Some(Json::Num(0.0))).contains("ops"));
        assert!(
            broken(&["workloads", "sim_digest"], Some(Json::Str("xyz".into())))
                .contains("sim_digest")
        );
        assert!(
            broken(&["workloads", "end_to_end", "events_per_sec"], None).contains("events_per_sec")
        );
        assert!(broken(
            &["workloads", "end_to_end", "events_per_sec", "q3"],
            Some(Json::Num(0.1))
        )
        .contains("q3"));
        assert!(broken(
            &["workloads", "end_to_end", "setup_s", "unit"],
            Some(Json::Str("ms".into()))
        )
        .contains("unit"));
        assert!(
            broken(&["workloads", "per_layer", "sim.event.push_pop_ns"], None)
                .contains("push_pop_ns")
        );
    }

    /// `BENCHMARK.json` and the catalogue above are one list.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<Vec<(String, Json)>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|row| match row {
                    Json::Obj(fields) => fields.clone(),
                    _ => panic!("{key} rows are objects"),
                })
                .collect()
        };
        let s = |v: &str| Json::Str(v.into());
        let want: Vec<Vec<(String, Json)>> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| {
                vec![
                    ("name".into(), s(n)),
                    ("unit".into(), s(u)),
                    ("better".into(), s(b)),
                    ("bound".into(), Json::Num(bound)),
                ]
            })
            .collect();
        assert_eq!(rows("end_to_end"), want);
        let want: Vec<Vec<(String, Json)>> = per_layer()
            .into_iter()
            .map(|(n, u, b)| {
                vec![
                    ("name".into(), s(&n)),
                    ("unit".into(), s(u)),
                    ("better".into(), s(b)),
                ]
            })
            .collect();
        assert_eq!(rows("per_layer"), want);
        let want: Vec<Vec<(String, Json)>> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| vec![("name".into(), s(w.name)), ("why".into(), s(w.why))])
            .collect();
        assert_eq!(rows("workloads"), want);
    }
}
