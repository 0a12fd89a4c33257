package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges side B against side A for one metric of one workload.
// worse is how far B's median is on the wrong side of A's, as a share
// of A's. A metric whose run-to-run spread (interquartile distance over
// median, either side) exceeds its bound cannot be called unchanged: it
// is unresolved unless every B run is at least as good as every A run.
// It is regressed when the median is worse by more than the bound and
// either the spread resolves that or every B run is worse than every A
// run.
func verdict(a, b []float64, lowerBetter bool, bound float64) (worse, spread float64, v string) {
	qa, qb := quartiles(a), quartiles(b)
	if qa[1] == 0 || qb[1] == 0 {
		return 0, 0, "unresolved"
	}
	worse = (qb[1] - qa[1]) / qa[1]
	if !lowerBetter {
		worse = -worse
	}
	spread = max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
	sa, sb := sorted(a), sorted(b)
	allBetter, allWorse := sb[len(sb)-1] <= sa[0], sb[0] > sa[len(sa)-1]
	if !lowerBetter {
		allBetter, allWorse = sb[0] >= sa[len(sa)-1], sb[len(sb)-1] < sa[0]
	}
	switch {
	case worse > bound && (spread <= bound || allWorse):
		v = "regressed"
	case spread > bound && !allBetter:
		v = "unresolved"
	default:
		v = "ok"
	}
	return worse, spread, v
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the ratio with its base, the bound and the
// verdict, and fails when any metric regressed.
func compareFiles(out io.Writer, specPath, pathA, pathB string) error {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var fa, fb outFile
	if err := readJSON(pathA, &fa); err != nil {
		return err
	}
	if err := readJSON(pathB, &fb); err != nil {
		return err
	}
	values := func(f outFile, workload, metric string) []float64 {
		var vs []float64
		for _, r := range f.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}

	fmt.Fprintf(out, "A = %s, B = %s; ratio is B median ÷ A median (base A).\n", pathA, pathB)
	fmt.Fprintln(out, "Runs on a shared box drift (prologue_s read 3.06 → 3.65 s over three back-to-back runs of one commit):")
	fmt.Fprintln(out, "take the two sides interleaved, ten runs each, or the verdicts below mean nothing.")
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A\tbound\tspread\tverdict")
	regressed := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(fa, w.name, m.Name), values(fb, w.name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			qa, qb := quartiles(a), quartiles(b)
			_, spread, v := verdict(a, b, m.Better == "lower", m.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%.4f\t%.3g\t%.3g\t%s\n",
				w.name, m.Name, m.Unit, qa[1], qa[0], qa[2], len(a), qb[1], qb[0], qb[2], len(b),
				qb[1]/qa[1], m.Bound, spread, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Equal seeds must give byte-identical traces unless a change meant
	// to move them; the digests are information, not a gate.
	type key struct {
		workload string
		seed     int64
	}
	digests := map[key]string{}
	for _, r := range fa.Runs {
		if !r.Traced {
			digests[key{r.Workload, r.Seed}] = r.TraceSHA256
		}
	}
	for _, r := range fb.Runs {
		k := key{r.Workload, r.Seed}
		if da, ok := digests[k]; ok && !r.Traced {
			same := "same"
			if da != r.TraceSHA256 {
				same = "DIFFERS"
			}
			fmt.Fprintf(out, "trace digest %s seed %d: %s\n", r.Workload, r.Seed, same)
			delete(digests, k)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
