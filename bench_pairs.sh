#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark runs, judged on every
# end-to-end metric of BENCHMARK.json the way the benchmark's gate
# judges them.
#
#   bench_pairs.sh <parent-rev> [--workload W] [--pairs N] [--seconds S] [--cpu N]
#
# Per workload and metric it prints the pairs the change won and lost
# (a tie counts for neither side), both medians and quartiles, and two
# verdicts:
# - by the rule of benchmark/README.md "Noise study": *faster* (a time)
#   or *better* (a count) when the change wins at least nine tenths of
#   the pairs and the medians are further apart than the parent's
#   interquartile range, *slower* or *worse* when the parent does,
#   *unresolved* otherwise;
# - against the metric's bound in BENCHMARK.json: how much worse the
#   change's median is than the parent's, and whether that is within
#   the bound.
# Count columns that are not paired metrics (`sim_digest`,
# `core.world.events`, every `core.world.ev.<kind>`) need no pairs: any
# that differs is named.
#
# `setup_s` is the best of a few hundred back-to-back builds, about
# 20 ms in all, so one slow phase of a shared host covers every one of
# them: on a two-vCPU guest the 200-node build read 40-50 us in some
# processes and 58-76 us in others, of one binary. Pinning both sides to
# one CPU with `--cpu N` (`taskset -c N`, applied to this script's own
# benchmark processes only) narrows that; a change that claims nothing
# on `setup_s` still needs headroom against its 25 % bound.
#
# The parent is <parent-rev> as committed; the change is the working
# tree as it stands (tracked and untracked files, ignored ones left
# out). Each is copied to its own directory under $TMPDIR and builds its
# own rlive-benchmark there, so a run leaves the repository untouched.
# Defaults: every workload, 10 pairs, 5 s per run, seed 101, no pinning.
# Besides the untraced pairs, each side makes one traced run per
# workload for the per-kind event counts.
set -euo pipefail

usage() {
  echo "usage: bench_pairs.sh <parent-rev> [--workload W] [--pairs N] [--seconds S] [--cpu N]" >&2
  exit 2
}

[[ $# -ge 1 && $1 != -* ]] || usage
parent_rev=$1
shift
workloads=(sched_10k sched_30k dataplane storm)
pairs=10
seconds=5
seed=101
pin=()
while [[ $# -gt 0 ]]; do
  case $1 in
    --workload) workloads=("${2:?--workload needs a value}"); shift 2 ;;
    --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
    --cpu) pin=(taskset -c "${2:?--cpu needs a value}"); shift 2 ;;
    *) usage ;;
  esac
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "bench_pairs: --pairs must be a positive integer" >&2; exit 2; }
if ((${#pin[@]})) && ! [[ ${pin[2]} =~ ^[0-9]+$ ]]; then
  echo "bench_pairs: --cpu must be a CPU number" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")" && pwd)
if ! git -C "$root" rev-parse --verify --quiet "$parent_rev^{commit}" > /dev/null; then
  echo "bench_pairs: unknown revision $parent_rev" >&2
  exit 2
fi
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/parent" "$work/change"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent"
(
  cd "$root"
  git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
    tar --null --no-recursion -T - -cf -
) | tar -x -C "$work/change"

for side in parent change; do
  echo "bench_pairs: building the $side's rlive-benchmark" >&2
  CARGO_TARGET_DIR="$work/$side/benchmark/target" \
    cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
done

# "name unit better bound" of each end-to-end metric, from the
# parent's BENCHMARK.json: the contract the change is held to.
awk '
  /"end_to_end"/ { on = 1 }
  /"per_layer"/ { on = 0 }
  on && /"(name|unit|better)"/ { v = $2; gsub(/[",]/, "", v); key = $1; gsub(/[":]/, "", key); f[key] = v }
  on && /"bound"/ { v = $2; gsub(/[",]/, "", v); print f["name"], f["unit"], f["better"], v }
' "$work/parent/BENCHMARK.json" > "$work/metrics"
[[ -s $work/metrics ]] || { echo "bench_pairs: no end_to_end metrics in BENCHMARK.json" >&2; exit 1; }

# run SIDE WORKLOAD TRACE: the run's metric lines as "name value".
run() {
  (cd "$work/$1" && "${pin[@]}" benchmark/target/release/rlive-benchmark --out "$work/out-$1" \
    --workload "$2" --seed "$seed" --seconds "$seconds" --trace "$3" 2> /dev/null) |
    awk -v w="$2" '$1 == w { print $2, $3 }'
}

for w in "${workloads[@]}"; do
  : > "$work/$w.pairs"
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      run "$side" "$w" 0 > "$work/$w.$side"
      # Count columns are read from the first pair: they repeat exactly.
      ((i > 0)) || cp "$work/$w.$side" "$work/$w.$side.counts"
    done
    # One line per end-to-end metric: "name parent change".
    awk 'FILENAME == ARGV[1] { want[$1] = 1; next }
         FILENAME == ARGV[2] { if ($1 in want) p[$1] = $2; next }
         ($1 in p) { print $1, p[$1], $2 }' \
      "$work/metrics" "$work/$w.parent" "$work/$w.change" >> "$work/$w.pairs"
  done
  for side in parent change; do
    run "$side" "$w" 1 | awk '$1 == "core.world.events" || $1 ~ /^core\.world\.ev\./' \
      >> "$work/$w.$side.counts"
  done

  echo "$w: $pairs pairs${pin[*]:+, both sides under ${pin[*]}}"
  awk '
    # Python statistics.quantiles(n=4) exclusive method, as benchmark/src/stats.rs.
    function quartile(v, n, i,   m, j, delta) {
      if (n == 1) return v[1]
      m = n + 1
      j = int(i * m / 4)
      if (j < 1) j = 1
      if (j > n - 1) j = n - 1
      delta = i * m - j * 4
      return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
    }
    function sort(v, n,   i, j, t) {
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    FILENAME == ARGV[1] {
      order[++m] = $1; better[$1] = $3; bound[$1] = $4
      # A time metric is faster or slower; a count is better or worse.
      up[$1] = $2 ~ /^(s|1\/s)$/ ? "faster" : "better"; down[$1] = $2 ~ /^(s|1\/s)$/ ? "slower" : "worse"
      next
    }
    {
      k = $1; n[k]++
      p[k, n[k]] = $2; c[k, n[k]] = $3
      sign = better[k] == "higher" ? 1 : -1
      if (sign * ($3 - $2) > 0) won[k]++
      else if (sign * ($3 - $2) < 0) lost[k]++
    }
    END {
      for (x = 1; x <= m; x++) {
        k = order[x]
        if (!n[k]) { printf "  %s: not reported\n", k; continue }
        delete pv; delete cv
        for (i = 1; i <= n[k]; i++) { pv[i] = p[k, i]; cv[i] = c[k, i] }
        sort(pv, n[k]); sort(cv, n[k])
        p1 = quartile(pv, n[k], 1); pm = quartile(pv, n[k], 2); p3 = quartile(pv, n[k], 3)
        c1 = quartile(cv, n[k], 1); cm = quartile(cv, n[k], 2); c3 = quartile(cv, n[k], 3)
        sign = better[k] == "higher" ? 1 : -1
        gain = sign * (cm - pm)
        verdict = "unresolved"
        if (won[k] >= 0.9 * n[k] && gain > p3 - p1) verdict = up[k]
        if (lost[k] >= 0.9 * n[k] && -gain > p3 - p1) verdict = down[k]
        if (pm == cm) verdict = "equal"
        worse = pm == 0 ? 0 : -gain / pm
        printf "  %s (%s is better): the change won %d and lost %d\n", k, better[k], won[k], lost[k]
        printf "    parent median %.6g (q1 %.6g, q3 %.6g)\n", pm, p1, p3
        printf "    change median %.6g (q1 %.6g, q3 %.6g), x%.3f, verdict: %s\n", cm, c1, c3, pm == 0 ? 1 : cm / pm, verdict
        shift = sprintf((worse > 0) ? "%.1f %% worse" : "%.1f %% better", 100 * ((worse > 0) ? worse : -worse))
        printf "    bound %.0f %%: the change is %s, %s\n", 100 * bound[k], shift, (worse > bound[k] ? "OVER THE BOUND" : "within it")
      }
    }' "$work/metrics" "$work/$w.pairs"

  awk '
    $1 !~ /^(sim_digest|sim_digest_world0|core\.world\.events|core\.world\.ev\..*)$/ { next }
    FNR == NR { parent[$1] = $2; next }
    {
      seen[$1] = 1
      if (!($1 in parent)) print "  count " $1 ": only the change reports it (" $2 ")"
      else if (parent[$1] != $2) print "  count " $1 ": " parent[$1] " -> " $2
      else same++
    }
    END {
      for (k in parent) if (!(k in seen)) print "  count " k ": only the parent reports it (" parent[k] ")"
      print "  counts: " same + 0 " equal, any other listed above"
    }' "$work/$w.parent.counts" "$work/$w.change.counts"
done
