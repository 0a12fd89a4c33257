// Command benchmark is the repository's benchmark: four session
// workloads driven through the public Session API (end-to-end pass) and
// a traced pass that adds spans, the metrics registry and per-layer
// probes. BENCHMARK.json at the repository root names every metric it
// prints; README.md in this directory explains them.
//
//	go run ./benchmark -workload learn_mono -seed 42 -seconds 20 -trace 0
//	go run ./benchmark -trace 1 -out traced.json     # every workload, one child process each
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	if os.Getenv(calibrateEnv) != "" {
		calibrateChild()
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run in this process (default: each one in its own child process)")
		seed    = flag.Int64("seed", 42, "workload seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 25, "run length: at 25 and above a workload makes all its repetitions, below that a share of them")
		trace   = flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass with per-layer metrics")
		out     = flag.String("out", "", "append this run (metrics, env block, trace digest, spans) to a JSON file")
		compare = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
		spec    = flag.String("spec", "BENCHMARK.json", "with -compare, the file that holds the regression bounds")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two -out files")
			break
		}
		err = compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	case *name == "":
		err = runChildren(*seed, *seconds, *trace, *out)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		err = runOne(w, *seed, *seconds, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runChildren runs every workload in its own re-exec'd child, one at a
// time, so peak RSS and CPU seconds are per workload.
func runChildren(seed int64, seconds float64, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		args := []string{
			"-workload", w.name,
			"-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace),
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// metricValue is one metric in the result line and the -out file.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run in an -out file.
type runRecord struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Sizes       map[string]int    `json:"sizes"`
	Env         envBlock          `json:"env"`
	TraceSHA256 string            `json:"trace_sha256"`
	Samples     map[string]int    `json:"samples"`
	Notes       map[string]string `json:"notes,omitempty"`
	Spans       []span            `json:"spans,omitempty"`
	result
}

type outFile struct {
	Runs []runRecord `json:"runs"`
}

// runOne runs one workload in this process, prints each metric as
// "workload metric value unit" and the result as the last line, and
// fails when anything the run attempted failed.
func runOne(w workload, seed int64, seconds float64, traced bool, out string) error {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h := &harness{dir: dir}

	var (
		readings []reading
		sha      string
	)
	if traced {
		h.tr = newTracer()
		readings, sha, err = tracedPass(h, w, seed)
	} else {
		if h.cal, err = startCalibrator(); err != nil {
			return err
		}
		defer h.cal.stop()
		readings, sha, err = endToEnd(h, w, seed, seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w (%d of %d operations failed)", w.name, err, h.failed, h.attempted)
	}

	rec := runRecord{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Sizes: map[string]int{
			"users": w.users, "cells": w.cells, "intervals": w.intervals,
			"repetitions": w.repetitions(seconds), "workers": w.workers,
		},
		Env:         captureEnv(),
		TraceSHA256: sha,
		Samples:     map[string]int{},
		Notes:       map[string]string{},
		result: result{
			Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed,
			Metrics: map[string]metricValue{},
		},
	}
	if h.tr != nil {
		rec.Spans = h.tr.spans
	}
	for _, r := range readings {
		line := fmt.Sprintf("%s %s %.6g %s", w.name, r.name, r.value, r.unit)
		if r.samples > 0 {
			line += fmt.Sprintf(" n=%d", r.samples)
			rec.Samples[r.name] = r.samples
		}
		if r.note != "" {
			line += " " + r.note
			rec.Notes[r.name] = r.note
		}
		fmt.Println(line)
		rec.Metrics[r.name] = metricValue{Value: r.value, Unit: r.unit}
	}
	if h.cal != nil {
		note := fmt.Sprintf("burst_ms=%.6g", median(h.cal.burstMs))
		fmt.Printf("%s box_speed %.6g x n=%d %s\n", w.name, h.cal.speed(), len(h.cal.burstMs), note)
		rec.Samples["box_speed"] = len(h.cal.burstMs)
		rec.Notes["box_speed"] = fmt.Sprintf("%.6g %s", h.cal.speed(), note)
	}
	fmt.Printf("%s failed_ops_pct %.6g %% n=%d\n", w.name, 100*float64(h.failed)/float64(h.attempted), h.attempted)
	fmt.Printf("%s trace_sha256 %s\n", w.name, sha)

	if out != "" {
		if err := appendRun(out, rec); err != nil {
			return err
		}
	}
	last, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if h.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations and checks failed", w.name, h.failed, h.attempted)
	}
	return nil
}

// appendRun adds rec to the runs already in path, so interleaved sets
// of runs accumulate in one file per side of a comparison.
func appendRun(path string, rec runRecord) error {
	var file outFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	file.Runs = append(file.Runs, rec)
	data, err = json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
