#!/usr/bin/env bash
# bench_api.sh — run the API amortization benchmarks and emit
# machine-readable results to BENCH_api.json.
#
# Usage:
#   scripts/bench_api.sh [benchtime]
#
# benchtime is passed to `go test -benchtime` (default 1s; CI smoke uses
# a small fixed count). The JSON is an array of objects:
#   {"name", "iterations", "ns_per_op", "bytes_per_op", "allocs_per_op"}
# covering one full wire sync per iteration from warm, long-lived Set
# handles (BenchmarkAPI/warm-set; BenchmarkAPI/warm-set-churn, which
# toggles 5 of 200k elements between syncs) versus per-call construction
# through the legacy wrappers (BenchmarkAPI/cold-construct), so the Set
# API's amortization win — skipped re-validation, incremental ToW sketch,
# cached snapshot, partitions and round-1 folds, views derived in
# O(changes) — is checkable by tooling.
set -euo pipefail

cd "$(dirname "$0")/.."
benchtime="${1:-1s}"
out="BENCH_api.json"

raw="$(go test -run '^$' -bench 'BenchmarkAPI' -benchmem \
	-benchtime "$benchtime" .)"

echo "$raw" | awk '
BEGIN { print "[" }
/^Benchmark/ {
	# BenchmarkAPI/warm-set/d=100-8  100  4659028 ns/op  123 B/op  4 allocs/op
	name = $1
	sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
	if (n++) printf ",\n"
	printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, $2, $3, $5, $7
}
END { if (n) printf "\n"; print "]" }
' >"$out"

echo "wrote $out:" >&2
cat "$out"
