#!/usr/bin/env python3
"""Aggregate `go test -bench` output into a JSON benchmark record.

Reads the raw benchmark text on stdin, takes the median of repeated
counts per benchmark and metric, and emits a stable JSON document
(sorted keys) suitable for committing as BENCH_baseline.json. Each
metric key (ns_per_op, bytes_per_op, allocs_per_op, custom units)
holds the median; `<key>_iqr` holds the distance between the upper and
lower quartiles of the same samples (0 for a single count). The median
rather than the mean, so one slow sample on a shared machine does not
move a recorded baseline or the 1.3x wall gate that compares them.
"""
import json
import statistics
import sys


def median_iqr(vs):
    """Median and interquartile range of the samples (inclusive
    quartiles: with five counts, the 2nd and 4th smallest)."""
    if len(vs) < 2:
        return vs[0], 0.0
    q1, _, q3 = statistics.quantiles(vs, n=4, method="inclusive")
    return statistics.median(vs), q3 - q1


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    env = {}
    samples = {}
    for line in sys.stdin:
        line = line.strip()
        # cpufeatures/goamd64/workers/tags come from bench.sh's
        # prologue: they pin which kernel dispatch (AVX2 vs generic),
        # codegen level and worker pool produced the numbers.
        for key in ("goos", "goarch", "cpu", "pkg", "cpufeatures", "goamd64", "workers", "tags"):
            if line.startswith(key + ":"):
                env[key] = line.split(":", 1)[1].strip()
        if not line.startswith("Benchmark"):
            continue
        tok = line.split()
        if len(tok) < 3:
            continue
        name = tok[0].split("-")[0]  # strip -GOMAXPROCS suffix
        rec = samples.setdefault(name, {"iterations": [], "metrics": {}})
        try:
            rec["iterations"].append(int(tok[1]))
        except ValueError:
            continue
        # Remaining tokens come in (value, unit) pairs.
        vals = tok[2:]
        for v, unit in zip(vals[::2], vals[1::2]):
            try:
                fv = float(v)
            except ValueError:
                continue
            rec["metrics"].setdefault(unit, []).append(fv)

    benches = []
    for name in sorted(samples):
        rec = samples[name]
        out = {"name": name, "runs": len(rec["iterations"])}
        for unit, vs in sorted(rec["metrics"].items()):
            key = {
                "ns/op": "ns_per_op",
                "B/op": "bytes_per_op",
                "allocs/op": "allocs_per_op",
            }.get(unit, unit)
            out[key], out[key + "_iqr"] = median_iqr(vs)
        benches.append(out)

    doc = {
        "count": count,
        "env": env,
        "benchmarks": benches,
    }
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
