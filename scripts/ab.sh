#!/usr/bin/env bash
# Interleaved A/B runs of the repository benchmark: the benchmark as it
# stood at <rev> (side A) against the working tree's (side B).
#
#   scripts/ab.sh <rev> <outdir> [pairs [seed [workload ...]]]
#
# It builds ./benchmark of <rev>, extracted with `git archive` into a
# temporary directory (so an interrupted run leaves no worktree behind),
# and of the working tree. Then, for each pair and each workload (all
# four by default), it runs both binaries one after the other, swapping
# which goes first from one pair to the next, so box drift lands on
# both sides alike. Each run appends to <outdir>/a.json or
# <outdir>/b.json (its output goes to <outdir>/a.log or b.log), and the
# script ends with `benchmark -compare` of the two files. pairs
# defaults to 10 and seed to 42. Run it from anywhere in the
# repository; the runs' scratch files go to the repository root.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <rev> <outdir> [pairs [seed [workload ...]]]" >&2
	exit 2
fi
REV="$1"
OUT="$2"
PAIRS="${3:-10}"
SEED="${4:-42}"
shift $(($# < 4 ? $# : 4))
WORKLOADS=("$@")
if [ ${#WORKLOADS[@]} -eq 0 ]; then
	WORKLOADS=(learn_mono steady_cluster dist_boundary durable_resume)
fi

ROOT="$(git rev-parse --show-toplevel)"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/src"
git -C "$ROOT" archive "$REV" | tar -x -C "$TMP/src"
(cd "$TMP/src" && go build -o "$TMP/a" ./benchmark)
(cd "$ROOT" && go build -o "$TMP/b" ./benchmark)

cd "$ROOT"
run() { # side workload
	echo "== pair $pair $2 side $1" >>"$OUT/$1.log"
	"$TMP/$1" -workload "$2" -seed "$SEED" -out "$OUT/$1.json" >>"$OUT/$1.log" 2>&1
}
for ((pair = 1; pair <= PAIRS; pair++)); do
	for w in "${WORKLOADS[@]}"; do
		if ((pair % 2)); then
			run a "$w"
			run b "$w"
		else
			run b "$w"
			run a "$w"
		fi
	done
	echo "pair $pair/$PAIRS done" >&2
done
"$TMP/b" -compare -spec "$ROOT/BENCHMARK.json" "$OUT/a.json" "$OUT/b.json"
