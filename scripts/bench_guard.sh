#!/usr/bin/env bash
# Bench regression guard: compares the working-tree BENCH_*.json
# artifacts against the committed baselines (git show HEAD:<file>) on
# the key performance ratios, config row by config row, and enforces
# the absolute telemetry contracts. A key ratio more than
# BENCH_GUARD_THRESHOLD_PCT (default 15) percent below its baseline
# row fails the guard.
#
# Zero dependencies beyond git, grep, and awk — the artifacts are flat
# JSON written by soc-bench's own emitter, so a line-oriented scrape of
# "key": number pairs is exact, not approximate.
#
# Usage: scripts/bench_guard.sh
#   BENCH_GUARD_THRESHOLD_PCT=20 scripts/bench_guard.sh   # loosen
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD_PCT=${BENCH_GUARD_THRESHOLD_PCT:-15}
fail=0

# Mean of every "key": <number> occurrence on stdin, or NA.
avg_key() {
  { grep -o "\"$1\": *-\{0,1\}[0-9][0-9.e+-]*" || true; } |
    awk -F': *' '{ s += $2; n++ } END { if (n) printf "%.6f\n", s / n; else print "NA" }'
}

# "name<TAB>value" for every config row on stdin that carries
# "key": <number> and whose name matches the awk regex $2. Rows are one
# line each (soc-bench's emitter renders them inline).
row_values() {
  awk -v key="$1" -v pat="$2" '
    match($0, /"name": *"[^"]*"/) {
      name = substr($0, RSTART, RLENGTH)
      sub(/^"name": *"/, "", name)
      sub(/"$/, "", name)
      if (name !~ pat) next
      if (match($0, "\"" key "\": *-?[0-9][0-9.e+-]*")) {
        v = substr($0, RSTART, RLENGTH)
        sub(/^[^:]*: */, "", v)
        print name "\t" v
      }
    }'
}

# A higher-is-better ratio must not fall more than THRESHOLD_PCT below
# the committed baseline, compared row by row on the config "name" so
# rows of different kinds never average into each other. The optional
# third argument (an awk regex) restricts the check to matching names.
# A missing file, key, or committed baseline skips (new experiments
# have none yet); that is reported, never silently dropped. A guarded
# row that vanishes from the fresh artifact fails.
check_ratio() {
  local file=$1 key=$2 pat=${3:-.} base fresh name b f
  if [ ! -f "$file" ]; then
    echo "  skip        $file: not in the working tree"
    return
  fi
  base=$(git show "HEAD:$file" 2>/dev/null | row_values "$key" "$pat")
  fresh=$(row_values "$key" "$pat" <"$file")
  if [ -z "$base" ]; then
    echo "  skip        $file/$key: no committed baseline"
    return
  fi
  while IFS=$'\t' read -r name b; do
    f=$(printf '%s\n' "$fresh" | awk -F'\t' -v n="$name" '$1 == n { print $2; exit }')
    if [ -z "$f" ]; then
      echo "  FAIL        $file/$name/$key: row vanished from the fresh artifact"
      fail=1
      continue
    fi
    if ! awk -v b="$b" -v f="$f" -v t="$THRESHOLD_PCT" \
      -v label="$file/$name/$key" 'BEGIN {
        lim = b * (1 - t / 100);
        ok = (f >= lim);
        printf "  %-11s %s: baseline=%.3f fresh=%.3f floor=%.3f\n",
               (ok ? "ok" : "REGRESSION"), label, b, f, lim;
        exit ok ? 0 : 1
      }'; then
      fail=1
    fi
  done <<<"$base"
}

# An absolute ceiling on the fresh artifact (telemetry contracts).
check_max() {
  local file=$1 key=$2 limit=$3 fresh
  if [ ! -f "$file" ]; then
    echo "  skip        $file: not in the working tree"
    return
  fi
  fresh=$(avg_key "$key" <"$file")
  if [ "$fresh" = NA ]; then
    echo "  FAIL        $file/$key: key missing from the fresh artifact"
    fail=1
    return
  fi
  if ! awk -v f="$fresh" -v lim="$limit" -v file="$file" -v key="$key" 'BEGIN {
      ok = (f <= lim);
      printf "  %-11s %s/%s: fresh=%.3f ceiling=%.3f\n",
             (ok ? "ok" : "VIOLATION"), file, key, f, lim;
      exit ok ? 0 : 1
    }'; then
    fail=1
  fi
}

echo "bench guard: ratios within ${THRESHOLD_PCT}% of the HEAD baselines"
check_ratio BENCH_serving.json speedup_vs_baseline
check_ratio BENCH_index.json speedup_vs_dense '/hybrid$'
check_ratio BENCH_sketch.json speedup
check_ratio BENCH_ilp.json throughput_vs_cold

echo "bench guard: absolute telemetry contracts"
# Enabled-telemetry overhead on the serving batch stays within 5%, and
# the quantile sketches stay within 2% of exact sorted-sample quantiles.
check_max BENCH_obs.json overhead_vs_disabled_pct 5.0
check_max BENCH_obs.json sketch_max_rel_err_pct 2.0

if [ "$fail" -ne 0 ]; then
  echo "bench guard: FAILED"
  exit 1
fi
echo "bench guard: OK"
