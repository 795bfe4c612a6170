#!/usr/bin/env bash
# bench.sh — run the benchmark suite (root package + ./serve) and record
# the results as JSON,
# extending the repository's performance trajectory. Each run writes
# BENCH_<date>.json (go test -bench -json stream) next to this script's
# repo root; pass a benchmark regex to restrict the run, e.g.
#
#   scripts/bench.sh 'BenchmarkE2Fig5|BenchmarkE14'
#
# Compare two snapshots with a benchstat-style delta table (matched by
# benchmark name; the worker-count suffix is stripped; each side is the
# median over the snapshot's repetitions):
#
#   scripts/bench.sh -compare BENCH_old.json BENCH_new.json
#
# Guard a hot path against regression (CI gate): benchmarks matching the
# regex must not grow median allocs/op at all, nor median ns/op past the
# threshold.
# Exits non-zero on violation (or when nothing matches):
#
#   scripts/bench.sh -guard BENCH_old.json BENCH_new.json 'Evaluate|WideM80' 40
#
# Without the threshold the guard checks allocs/op only (ns/op deltas are
# printed but never fail). allocs/op does not depend on the machine, so
# this mode compares against a committed snapshot; ns/op is worth
# guarding only against a run of the base commit on the same machine:
#
#   scripts/bench.sh -guard BENCH_20261018_121129.json BENCH_new.json 'ColdM80Solve'
#
# Snapshot paths given to -compare and -guard are resolved against the
# directory the script is called from; an unreadable one exits 2.
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 1s)
#   COUNT      repetitions per benchmark (default 1)
set -euo pipefail

caller_dir="$(pwd)"
cd "$(dirname "$0")/.."

# snapshot prints its snapshot argument resolved against the caller's
# directory, or fails when the file cannot be read.
snapshot() {
    local path="$1"
    [[ "${path}" == /* ]] || path="${caller_dir}/${path}"
    if [[ ! -f "${path}" || ! -r "${path}" ]]; then
        echo "no such snapshot: $1" >&2
        return 1
    fi
    printf '%s\n' "${path}"
}

# extract_lines reassembles the Output fragments of a -json stream (the
# stream splits benchmark lines across events) and prints the measurement
# lines.
extract_lines() {
    grep -o '"Output":"[^"]*"' "$1" \
        | sed -e 's/^"Output":"//' -e 's/"$//' \
        | while IFS= read -r frag; do printf '%b' "${frag}"; done \
        | grep -E '^Benchmark.*(ns/op|allocs/op)' || true
}

# MEDIANS_AWK is the awk prelude both comparison modes share. It reads
# the old snapshot's lines, a ===SPLIT=== marker, then the new snapshot's
# lines; collects every repetition of each benchmark (matched by name, the
# worker-count suffix stripped; only names matching the awk variable
# regex, when set); and lists names per side in first-seen order
# (order[side, i], i ≤ norder[side]; side 0 old, 1 new). med(side, name,
# metric) returns the median of metric ("ns" or "allocs") over that
# benchmark's repetitions, or "" when it has none, so a COUNT>1 snapshot
# compares as a whole rather than by its last repetition.
MEDIANS_AWK='
function med(side, name, metric,    a, k, i, j, v) {
    k = 0
    for (i = 1; i <= cnt[side, name]; i++) {
        v = val[side, name, metric, i]
        if (v != "") a[++k] = v + 0
    }
    if (k == 0) return ""
    for (i = 2; i <= k; i++) {
        v = a[i]
        for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
        a[j + 1] = v
    }
    if (k % 2) return a[(k + 1) / 2]
    return (a[k / 2] + a[k / 2 + 1]) / 2
}
BEGIN { side = 0 }
/^===SPLIT===$/ { side = 1; next }
{
    name = $1; sub(/-[0-9]+$/, "", name)
    if (regex != "" && name !~ regex) next
    ns = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    c = ++cnt[side, name]
    val[side, name, "ns", c] = ns
    val[side, name, "allocs", c] = allocs
    if (c == 1) order[side, ++norder[side]] = name
}
'

if [[ "${1:-}" == "-guard" ]]; then
    if [[ $# -ne 4 && $# -ne 5 ]]; then
        echo "usage: $0 -guard old.json new.json 'name-regex' [max-ns-regress-pct]" >&2
        exit 2
    fi
    old_file="$(snapshot "$2")" || exit 2
    new_file="$(snapshot "$3")" || exit 2
    regex="$4" maxpct="${5:-}"
    { extract_lines "${old_file}"; echo "===SPLIT==="; extract_lines "${new_file}"; } \
        | awk -v regex="${regex}" -v maxpct="${maxpct}" "${MEDIANS_AWK}"'
            END {
                bad = 0; n = 0
                for (i = 1; i <= norder[0]; i++) {
                    name = order[0, i]
                    if (!((1, name) in cnt)) {
                        printf "GUARD FAIL %s: benchmark disappeared\n", name
                        bad = 1; continue
                    }
                    n++
                    oldNs = med(0, name, "ns"); newNs = med(1, name, "ns")
                    oldAllocs = med(0, name, "allocs"); newAllocs = med(1, name, "allocs")
                    d = (newNs - oldNs) / oldNs * 100
                    status = "ok"
                    if (oldAllocs != "" && newAllocs != "" && newAllocs > oldAllocs) {
                        status = "FAIL: allocs/op grew"; bad = 1
                    } else if (maxpct != "" && d > maxpct + 0) {
                        status = sprintf("FAIL: ns/op regressed past %s%%", maxpct); bad = 1
                    }
                    printf "guard %-44s ns/op %+8.1f%%  allocs %s\xe2\x86\x92%s  %s\n", \
                        name, d, oldAllocs, newAllocs, status
                }
                if (n == 0) { printf "GUARD FAIL: no benchmark matched %s\n", regex; bad = 1 }
                exit bad
            }'
    exit 0
fi

if [[ "${1:-}" == "-compare" ]]; then
    if [[ $# -ne 3 ]]; then
        echo "usage: $0 -compare old.json new.json" >&2
        exit 2
    fi
    old_file="$(snapshot "$2")" || exit 2
    new_file="$(snapshot "$3")" || exit 2
    { extract_lines "${old_file}"; echo "===SPLIT==="; extract_lines "${new_file}"; } \
        | awk "${MEDIANS_AWK}"'
            END {
                # One-sided rows keep all five columns: a benchmark present
                # in only one snapshot renders with "-" placeholders instead
                # of dropping fields, so the table stays aligned and
                # machine-splittable.
                printf "%-44s %14s %14s %9s %18s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs old→new"
                for (i = 1; i <= norder[0]; i++) {
                    name = order[0, i]
                    oldNs = med(0, name, "ns"); oldAllocs = med(0, name, "allocs")
                    if (!((1, name) in cnt)) {
                        printf "%-44s %14.0f %14s %9s %18s\n", name, oldNs, "-", "gone", oldAllocs "→-"
                        continue
                    }
                    newNs = med(1, name, "ns")
                    d = (newNs - oldNs) / oldNs * 100
                    printf "%-44s %14.0f %14.0f %+8.1f%% %18s\n", name, oldNs, newNs, d, oldAllocs "→" med(1, name, "allocs")
                }
                for (i = 1; i <= norder[1]; i++) {
                    name = order[1, i]
                    if ((0, name) in cnt) continue
                    printf "%-44s %14s %14.0f %9s %18s\n", name, "-", med(1, name, "ns"), "new", "-→" med(1, name, "allocs")
                }
            }'
    exit 0
fi

PATTERN="${1:-.}"
BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
OUT="BENCH_$(date +%Y%m%d_%H%M%S).json"

echo "benchmarking '${PATTERN}' (benchtime=${BENCHTIME}, count=${COUNT}) -> ${OUT}" >&2
go test -run '^$' -bench "${PATTERN}" -benchmem \
    -benchtime "${BENCHTIME}" -count "${COUNT}" -json . ./serve > "${OUT}"

# Human summary.
extract_lines "${OUT}"

echo "wrote ${OUT}" >&2
