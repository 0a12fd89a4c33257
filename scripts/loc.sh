#!/bin/sh
# Prints the non-test .go line count of every package directory, then
# the total. Run from the repository root: ./scripts/loc.sh (make loc).
set -eu
find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -exec wc -l {} + |
	awk -v sort='LC_ALL=C sort -k2' '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		n[dir] += $1; total += $1
	}
	END { for (d in n) printf "%6d %s\n", n[d], d | sort; close(sort); printf "%6d total\n", total }'
