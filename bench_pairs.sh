#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark runs, judged by the rule
# of benchmark/README.md "Noise study": the change is *faster* when it
# wins at least nine tenths of the pairs (ties count for neither side)
# and the medians of events/s are further apart than the parent's
# interquartile range, *slower* when the parent does, and *unresolved*
# otherwise. Count columns need no pairs: any that differs is named.
#
#   bench_pairs.sh <parent-rev> [--workload W] [--pairs N] [--seconds S]
#
# The parent is <parent-rev> as committed; the change is the working
# tree as it stands (tracked and untracked files, ignored ones left
# out). Each is copied to its own directory under $TMPDIR and builds its
# own rlive-benchmark there, so a run leaves the repository untouched.
# Defaults: every workload, 10 pairs, 5 s per run, seed 101. Besides the
# untraced pairs, each side makes one traced run per workload for the
# per-kind event counts.
set -euo pipefail

usage() {
  echo "usage: bench_pairs.sh <parent-rev> [--workload W] [--pairs N] [--seconds S]" >&2
  exit 2
}

[[ $# -ge 1 && $1 != -* ]] || usage
parent_rev=$1
shift
workloads=(sched_10k sched_30k dataplane storm)
pairs=10
seconds=5
seed=101
while [[ $# -gt 0 ]]; do
  case $1 in
    --workload) workloads=("${2:?--workload needs a value}"); shift 2 ;;
    --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
    *) usage ;;
  esac
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "bench_pairs: --pairs must be a positive integer" >&2; exit 2; }

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

# run SIDE WORKLOAD TRACE: the run's metric lines as "name value".
run() {
  (cd "$work/$1" && benchmark/target/release/rlive-benchmark --out "$work/out-$1" \
    --workload "$2" --seed "$seed" --seconds "$seconds" --trace "$3" 2> /dev/null) |
    awk -v w="$2" '$1 == w { print $2, $3 }'
}

for w in "${workloads[@]}"; do
  : > "$work/$w.rates"
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      run "$side" "$w" 0 > "$work/$w.$side"
      awk '$1 == "events_per_sec" { print $2 }' "$work/$w.$side" > "$work/$w.$side.rate"
      # Count columns are read from the first pair: they repeat exactly.
      ((i > 0)) || cp "$work/$w.$side" "$work/$w.$side.counts"
    done
    paste -d ' ' "$work/$w.parent.rate" "$work/$w.change.rate" >> "$work/$w.rates"
  done
  for side in parent change; do
    run "$side" "$w" 1 | awk '$1 == "core.world.events" || $1 ~ /^core\.world\.ev\./' \
      >> "$work/$w.$side.counts"
  done

  awk -v w="$w" '
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
    NF == 2 {
      n++; p[n] = $1; c[n] = $2
      if ($2 > $1) won++
      else if ($2 < $1) lost++
    }
    END {
      sort(p, n); sort(c, n)
      p1 = quartile(p, n, 1); pm = quartile(p, n, 2); p3 = quartile(p, n, 3)
      c1 = quartile(c, n, 1); cm = quartile(c, n, 2); c3 = quartile(c, n, 3)
      iqr = p3 - p1
      verdict = "unresolved"
      if (won >= 0.9 * n && cm - pm > iqr) verdict = "faster"
      if (lost >= 0.9 * n && pm - cm > iqr) verdict = "slower"
      printf "%s: events/s over %d pairs, the change won %d and lost %d\n", w, n, won, lost
      printf "  parent median %.0f (q1 %.0f, q3 %.0f)\n", pm, p1, p3
      printf "  change median %.0f (q1 %.0f, q3 %.0f), x%.3f\n", cm, c1, c3, cm / pm
      printf "  verdict: %s\n", verdict
    }' "$work/$w.rates"

  awk '
    $1 !~ /^(allocs_per_event|alloc_bytes_per_event|peak_heap_mb|sim_digest|sim_digest_world0|core\.world\.events|core\.world\.ev\..*)$/ { next }
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
