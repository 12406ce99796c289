#!/bin/sh
# A/B pairs of perfsuite workloads on two checkouts: the rule a change that
# claims a gain is judged by (at least ten pairs, alternating which side
# runs first; a gain needs nine pairs in ten won and medians further apart
# than the parent's own quartiles) — and, with the other workloads listed
# too, the "did not move" rows that go beside the claim.
#
# Usage: scripts/perf_pairs.sh <parent-checkout> <change-checkout> <workloads> [pairs=10] [trace=1]
#
# <workloads> is one workload, a comma-separated list of them, or `all`
# (every workload the change's BENCHMARK.json names); one table is printed
# per workload, in the order given. Builds each checkout's perfsuite
# offline into that checkout's own perfsuite/target, runs pair i of both
# with seed 2005 + i, and reads only the last stdout line of each run.
# Prints, per end-to-end metric and side, the quartiles over the pairs and
# the pairs won (all four metrics are lower-is-better; a tie goes to
# neither), then attempted/failed operations. Then, unless the fifth
# argument is 0, one `--seed 2005 --trace 1` pass per side and every
# per-layer metric whose value differs between the sides, as `name parent
# change ratio` — where the difference came from. Counts repeat exactly;
# timings are one sample each. Exits 1 if any run did not report
# "correct": true.
set -eu

if [ "$#" -lt 3 ] || [ "$#" -gt 5 ]; then
  echo "usage: $0 <parent-checkout> <change-checkout> <workload[,workload...]|all> [pairs=10] [trace=1]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${4:-10}
trace=${5:-1}
if [ "$3" = all ]; then
  workloads=$(sed -n 's/.*{"name": "\([a-z_0-9]*\)", "why".*/\1/p' "$change/BENCHMARK.json")
else
  workloads=$(echo "$3" | tr ',' ' ')
fi
if [ -z "$workloads" ]; then
  echo "$0: no workload named" >&2
  exit 2
fi

for side in "$parent" "$change"; do
  CARGO_TARGET_DIR="$side/perfsuite/target" \
    cargo build --release --quiet --offline --manifest-path "$side/perfsuite/Cargo.toml"
done
parent_bin=$parent/perfsuite/target/release/perfsuite
change_bin=$change/perfsuite/target/release/perfsuite

# Runs happen in a scratch directory, so neither checkout is written to.
scratch=${TMPDIR:-/tmp}/perf_pairs.$$
mkdir -p "$scratch"
trap 'rm -rf "$scratch"' EXIT INT TERM
cd "$scratch"

status=0
for workload in $workloads; do
  i=0
  : > runs
  while [ "$i" -lt "$pairs" ]; do
    seed=$((2005 + i))
    if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      if [ "$side" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
      line=$("$bin" --workload "$workload" --seed "$seed" | tail -n 1) || true
      printf '%s %s\n' "$side" "$line" >> runs
      echo "$workload pair $i seed $seed $side: $line" >&2
    done
    i=$((i + 1))
  done

  : > traced
  if [ "$trace" != 0 ]; then
    for side in parent change; do
      if [ "$side" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
      line=$("$bin" --workload "$workload" --seed 2005 --trace 1 | tail -n 1) || true
      printf '%s %s\n' "$side" "$line" >> traced
    done
  fi

  awk -v workload="$workload" -v pairs="$pairs" '
# The number after `"name": ` or `"name": {"value": ` in a result line.
function field(line, name,    s) {
  if (!match(line, "\"" name "\": (\\{\"value\": )?")) return ""
  s = substr(line, RSTART + RLENGTH)
  sub(/[,}].*/, "", s)
  return s
}
# Quantile p of v[1..n], sorted ascending, by linear interpolation.
function quantile(v, n, p,    h, lo) {
  h = (n - 1) * p + 1
  lo = int(h)
  if (lo >= n) return v[n]
  return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function summarize(m, side,    n, i, j, t, v) {
  n = runs[side]
  for (i = 1; i <= n; i++) v[i] = val[m, side, i]
  for (i = 2; i <= n; i++)
    for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
  q1[side] = quantile(v, n, 0.25); q2[side] = quantile(v, n, 0.5); q3[side] = quantile(v, n, 0.75)
}
BEGIN { nm = split("setup_s peak_rss_mb op_p10_ms work_p10_s", metric, " ") }
FILENAME == "traced" {
  if (index($0, "\"correct\": true") == 0) wrong++
  traced[$1] = $0
  next
}
{
  side = $1
  n = ++runs[side]
  if (index($0, "\"correct\": true") == 0) wrong++
  attempted[side] += field($0, "attempted")
  failed[side] += field($0, "failed")
  for (k = 1; k <= nm; k++) val[metric[k], side, n] = field($0, metric[k]) + 0
}
END {
  printf "%s: %d pairs, seeds 2005..%d, sides alternating first\n", workload, pairs, 2004 + pairs
  printf "%-12s %-7s %12s %12s %12s %10s\n", "metric", "side", "q1", "median", "q3", "pairs won"
  for (k = 1; k <= nm; k++) {
    m = metric[k]
    won["parent"] = 0; won["change"] = 0
    for (i = 1; i <= runs["parent"] && i <= runs["change"]; i++) {
      if (val[m, "change", i] < val[m, "parent", i]) won["change"]++
      else if (val[m, "parent", i] < val[m, "change", i]) won["parent"]++
    }
    summarize(m, "parent"); summarize(m, "change")
    printf "%-12s %-7s %12.4f %12.4f %12.4f %10d\n", m, "parent", q1["parent"], q2["parent"], q3["parent"], won["parent"]
    printf "%-12s %-7s %12.4f %12.4f %12.4f %10d\n", "", "change", q1["change"], q2["change"], q3["change"], won["change"]
    if (q2["parent"] != 0)
      printf "%-12s change median %+.1f %% of the parent median; parent q3 - q1 = %.4f\n", "", \
        100 * (q2["change"] - q2["parent"]) / q2["parent"], q3["parent"] - q1["parent"]
  }
  printf "attempted/failed: parent %d/%d, change %d/%d\n", \
    attempted["parent"], failed["parent"], attempted["change"], failed["change"]
  if ("parent" in traced && "change" in traced) {
    printf "traced, seed 2005: per-layer metrics that differ\n"
    printf "%-44s %14s %14s %8s\n", "name", "parent", "change", "ratio"
    rest = traced["parent"]
    while (match(rest, /"[^"]+": \{"value": /)) {
      name = substr(rest, RSTART + 1, RLENGTH - 14)
      rest = substr(rest, RSTART + RLENGTH)
      p = field(traced["parent"], name); c = field(traced["change"], name)
      if (p == c) continue
      if (p + 0 != 0) printf "%-44s %14.6g %14.6g %8.3f\n", name, p, c, c / p
      else printf "%-44s %14.6g %14.6g %8s\n", name, p, c, "-"
    }
  }
  if (wrong) { printf "%d run(s) did not report \"correct\": true\n", wrong; exit 1 }
}' runs traced || status=1
  echo
done
exit "$status"
