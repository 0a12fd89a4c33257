#!/usr/bin/env bash
# The distributed mode's like-for-like gate: one dtsim scenario run in
# both cluster modes, one cell per station in one process (-cells)
# against the same cells split over two in-process workers
# (-workers 2).
#
#   scripts/modegate.sh [pairs [users ...]]
#
# For each population (4000 and 16000 users by default) and seed (42
# and 314) it runs `dtsim -users U -bs 8 -intervals 24 -format bin`
# in both modes, pairs times (10 by default), swapping which mode goes
# first from one pair to the next so that box drift lands on both
# alike. The two traces of every pair must be byte-identical, or the
# script stops. Wall time is taken around each run; CPU seconds and
# peak RSS are the dtmsvs_process_* gauges of the run's own
# -metrics-out snapshot. It prints, per population and seed, each
# mode's medians and the median of the per-pair ratios workers/cells
# with their range, next to the bounds the mode is held to: wall
# <= 1.15x and max RSS <= 1.25x. It reports; it decides nothing.
set -euo pipefail

PAIRS="${1:-10}"
shift $(($# < 1 ? $# : 1))
USERS=("$@")
if [ ${#USERS[@]} -eq 0 ]; then
	USERS=(4000 16000)
fi
SEEDS=(42 314)

ROOT="$(git rev-parse --show-toplevel)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
(cd "$ROOT" && go build -o "$TMP/dtsim" ./cmd/dtsim)

run() { # mode users seed: appends "wall cpu rss" to $TMP/<mode>.tsv
	local extra
	case $1 in
	cells) extra=(-cells) ;;
	workers) extra=(-workers 2) ;;
	esac
	local t0 t1
	t0=$(date +%s%N)
	"$TMP/dtsim" -users "$2" -bs 8 -intervals 24 -seed "$3" -format bin \
		-out "$TMP/$1.bin" -metrics-out "$TMP/$1.json" "${extra[@]}" 2>/dev/null
	t1=$(date +%s%N)
	python3 - "$TMP/$1.json" "$t0" "$t1" >>"$TMP/$1.tsv" <<'EOF'
import json, sys
fams = {f["name"]: f["series"][0].get("value", 0) for f in json.load(open(sys.argv[1]))["families"]}
wall = (int(sys.argv[3]) - int(sys.argv[2])) / 1e9
print(wall, fams["dtmsvs_process_cpu_seconds"], fams["dtmsvs_process_max_rss_bytes"])
EOF
}

for users in "${USERS[@]}"; do
	for seed in "${SEEDS[@]}"; do
		rm -f "$TMP/cells.tsv" "$TMP/workers.tsv"
		for ((pair = 1; pair <= PAIRS; pair++)); do
			if ((pair % 2)); then
				run cells "$users" "$seed"
				run workers "$users" "$seed"
			else
				run workers "$users" "$seed"
				run cells "$users" "$seed"
			fi
			if ! cmp -s "$TMP/cells.bin" "$TMP/workers.bin"; then
				echo "modegate: users $users seed $seed pair $pair: the two modes' traces differ" >&2
				exit 1
			fi
		done
		python3 - "$TMP/cells.tsv" "$TMP/workers.tsv" "$users" "$seed" <<'EOF'
import statistics, sys
def rows(path):
    return [[float(v) for v in line.split()] for line in open(path)]
cells, workers = rows(sys.argv[1]), rows(sys.argv[2])
out = [f"users {sys.argv[3]} seed {sys.argv[4]}, {len(cells)} pairs, traces identical:"]
for i, (name, unit, scale, bound) in enumerate(
        [("wall", "s", 1, 1.15), ("cpu", "s", 1, None), ("max_rss", "MB", 1e-6, 1.25)]):
    c = statistics.median(r[i] for r in cells) * scale
    w = statistics.median(r[i] for r in workers) * scale
    ratios = [wr[i] / cr[i] for cr, wr in zip(cells, workers)]
    gate = f", bound <= {bound:.2f}x" if bound else ""
    out.append(f"  {name:8} cells {c:8.2f} {unit:2}  workers {w:8.2f} {unit:2}  "
               f"ratio median {statistics.median(ratios):.3f}x ({min(ratios):.3f}-{max(ratios):.3f}){gate}")
print("\n".join(out))
EOF
	done
done
