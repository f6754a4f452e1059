#!/bin/sh
# Paired daemon benchmark runs: a parent revision against the working tree.
#
#   sh bench/pairs.sh [--parent REV] [--workload NAME] [--seed N]
#                     [--seconds S] [--pairs N]
#
# REV is extracted with `git archive` into .bench_tmp/pairs-<rev>/ and
# built there by its own daemonbench/run.sh; the working tree is built in
# place.  Each pair runs both sides once, the parent first in odd pairs
# and the working tree first in even ones, so a drift in host load
# favours neither side.  Every run prints its end-to-end metrics (the
# last line daemonbench writes) with its median steal share and median
# reference-loop time (ref_loop, in ms) over the round lines.  The
# summary gives, per metric and for steal and ref_loop, each side's
# median and quartiles, the working tree's wins (pairs where it is
# strictly better in the direction BENCHMARK.json names), the same count
# over quiet pairs only, and whether the medians lie further apart than
# the parent's quartile spread.  A pair is quiet when neither side's
# median steal share is above 5% and the two sides' median ref_loop
# times differ by at most 3% (the slower over the faster): steal does
# not show every change in host speed, and daemonbench throughput
# follows ref_loop.  Each flagged pair is printed with its reason.
# Defaults: parent HEAD, cold-solve, seed 4099, 30 s, 10 pairs.
set -eu
cd "$(dirname "$0")/.."

parent=HEAD
workload=cold-solve
seed=4099
seconds=30
pairs=10
while [ $# -gt 0 ]; do
  case "$1" in
    --parent) parent=$2; shift 2 ;;
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    *)
      echo "usage: sh bench/pairs.sh [--parent REV] [--workload NAME]" \
        "[--seed N] [--seconds S] [--pairs N]" >&2
      exit 2 ;;
  esac
done

# A pair is flagged and left out of the quiet count when either side's
# steal share is above steal_max, or when one side's ref_loop is more than
# ref_gap_max slower than the other's.
steal_max=0.05
ref_gap_max=0.03

rev=$(git rev-parse --short "$parent^{commit}")
tree=.bench_tmp/pairs-$rev
if [ ! -f "$tree/daemonbench/run.sh" ]; then
  rm -rf "$tree"
  mkdir -p "$tree"
  git archive "$rev" | tar -x -C "$tree"
fi
results=.bench_tmp/pairs-$rev-$workload-$seed.tsv
log=.bench_tmp/pairs-run.log
: > "$results"

# One run of [side] from checkout [dir]: append "pair side key value" rows
# (the end-to-end metrics, correct, and the median round steal and
# ref_loop) to $results and print them on one line.
run() {
  side=$1 dir=$2 pair=$3
  status=0
  sh "$dir/daemonbench/run.sh" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$log" || status=$?
  awk -v pair="$pair" -v side="$side" -v status="$status" '
    function median(a, n,   i, j, t) {
      for (i = 1; i <= n; i++)
        for (j = i + 1; j <= n; j++)
          if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
      return n == 0 ? 0 : (n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2)
    }
    /^round [0-9]+:/ {
      n++
      for (i = 1; i <= NF; i++) {
        v = $(i + 1)
        if ($i == "steal") { sub(/%/, "", v); steal[n] = v / 100 }
        if ($i == "ref_loop") { sub(/ms/, "", v); ref[n] = v + 0 }
      }
    }
    { last = $0 }
    END {
      print pair, side, "steal", median(steal, n)
      print pair, side, "ref_loop", median(ref, n)
      print pair, side, "exit", status
      s = last
      if (match(s, /"correct": (true|false)/))
        print pair, side, "correct", substr(s, RSTART + 11, RLENGTH - 11)
      while (match(s, /"[A-Za-z0-9_.-]+": \{"value": [^,}]+/)) {
        m = substr(s, RSTART, RLENGTH)
        s = substr(s, RSTART + RLENGTH)
        split(m, parts, "\"")
        v = m
        sub(/.*"value": /, "", v)
        print pair, side, parts[2], v
      }
    }' "$log" | tee -a "$results" |
    awk -v pair="$pair" -v side="$side" '
      { line = line " " $3 "=" $4 }
      END { printf "pair %d %-6s%s\n", pair, side, line }'
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$tree" "$i"
    run change . "$i"
  else
    run change . "$i"
    run parent "$tree" "$i"
  fi
  i=$((i + 1))
done

# Per metric: medians and quartiles per side, wins of the change, wins
# over quiet pairs, and whether the gap between medians exceeds the
# parent's interquartile range.
awk -v steal_max="$steal_max" -v ref_gap_max="$ref_gap_max" -v pairs="$pairs" '
  FNR == NR {
    if ($0 ~ /"name":/) { name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name) }
    if ($0 ~ /"better":/) { b = $0; sub(/.*"better": "/, "", b); sub(/".*/, "", b); better[name] = b }
    next
  }
  { v[$1, $2, $3] = $4; if ($2 == "parent" && !($3 in seen)) { seen[$3] = 1; keys[++nk] = $3 } }
  function sortv(a, n,   i, j, t) {
    for (i = 1; i <= n; i++)
      for (j = i + 1; j <= n; j++)
        if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
  }
  function q(a, n, p,   h, lo) {
    h = 1 + p * (n - 1); lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  END {
    quiet = 0
    for (p = 1; p <= pairs; p++) {
      ps = v[p, "parent", "steal"]; cs = v[p, "change", "steal"]
      pr = v[p, "parent", "ref_loop"]; cr = v[p, "change", "ref_loop"]
      gap = (pr > 0 && cr > 0) ? (pr > cr ? pr / cr : cr / pr) - 1 : 0
      why = ""
      if (ps > steal_max || cs > steal_max)
        why = sprintf("steal parent %.4f change %.4f above %s", ps, cs, steal_max)
      if (gap > ref_gap_max)
        why = why (why == "" ? "" : "; ") \
          sprintf("ref_loop parent %.2f ms change %.2f ms, %.1f%% apart (above %g%%)",
            pr, cr, 100 * gap, 100 * ref_gap_max)
      loud[p] = why != ""
      if (loud[p]) printf "pair %d flagged: %s\n", p, why
      else quiet++
    }
    printf "%d of %d pairs quiet (steal <= %s, ref_loop within %g%%)\n", quiet, pairs,
      steal_max, 100 * ref_gap_max
    bad = 0
    for (p = 1; p <= pairs; p++)
      for (s = 0; s < 2; s++) {
        side = s ? "change" : "parent"
        if (v[p, side, "exit"] != 0 || v[p, side, "correct"] != "true") {
          bad++
          printf "pair %d %s: exit %s correct %s\n", p, side, v[p, side, "exit"], v[p, side, "correct"]
        }
      }
    printf "%s\n", bad ? bad " runs failed or answered incorrectly" : "every run exited 0 with correct: true"
    printf "%-16s %28s %28s %8s %7s %7s %8s\n", "metric", "parent median [q1, q3]",
      "change median [q1, q3]", "ratio", "wins", "quiet", "gap>iqr"
    for (k = 1; k <= nk; k++) {
      key = keys[k]
      if (key == "exit" || key == "correct") continue
      n = 0; wins = 0; qwins = 0
      for (p = 1; p <= pairs; p++) {
        if (!((p, "parent", key) in v) || !((p, "change", key) in v)) continue
        n++
        a[n] = v[p, "parent", key] + 0; c[n] = v[p, "change", key] + 0
        w = (better[key] == "higher") ? c[n] > a[n] : (better[key] == "lower" ? c[n] < a[n] : 0)
        wins += w; if (!loud[p]) qwins += w
      }
      if (n == 0) continue
      sortv(a, n); sortv(c, n)
      pm = q(a, n, 0.5); cm = q(c, n, 0.5); iqr = q(a, n, 0.75) - q(a, n, 0.25)
      gap = cm - pm; if (gap < 0) gap = -gap
      printf "%-16s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %8.4f %4d/%-2d %4d/%-2d %8s\n",
        key, pm, q(a, n, 0.25), q(a, n, 0.75), cm, q(c, n, 0.25), q(c, n, 0.75),
        (pm == 0 ? 0 : cm / pm), wins, n, qwins, quiet, (gap > iqr ? "yes" : "no")
    }
  }' BENCHMARK.json "$results"
echo "rows: $results"
