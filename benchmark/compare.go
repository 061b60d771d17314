package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// -compare A.json B.json judges B (the change) against A (the parent)
// by the bounds BENCHMARK.json fixes. End-to-end timings pass within
// their bound; counts must be exact; er.allocs may differ by
// allocTolerance; other per-layer timings are shown and not judged.

// manifest is the part of BENCHMARK.json -compare reads.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and metric and reports
// whether B stays within every bound.
func compareFiles(out io.Writer, manifestPath, pathA, pathB string) (bool, error) {
	var mf manifest
	var a, b result
	for path, v := range map[string]any{manifestPath: &mf, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if a.Env.Seed != b.Env.Seed || a.Env.Smoke != b.Env.Smoke {
		return false, fmt.Errorf("results are of different inputs: seed %d smoke %v against seed %d smoke %v",
			a.Env.Seed, a.Env.Smoke, b.Env.Seed, b.Env.Smoke)
	}
	ok := compareResults(out, mf, &a, &b)
	return ok, nil
}

func compareResults(out io.Writer, mf manifest, a, b *result) bool {
	byName := make(map[string]*workloadResult)
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	defs := make(map[string]metricDef)
	for _, d := range perLayer {
		defs[d.name] = d
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tlimit\tverdict")
	ok := true
	row := func(w, metric string, va, vb float64, limit, verdict string) {
		change := "-"
		if va != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(vb-va)/math.Abs(va))
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", w, metric, va, vb, change, limit, verdict)
		if verdict == "BREACH" {
			ok = false
		}
	}
	verdictOf := func(pass bool) string {
		if pass {
			return "ok"
		}
		return "BREACH"
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		// Any increase in the failed share is a regression.
		fa, fb := share(wa.Failed, wa.Attempted), share(wb.Failed, wb.Attempted)
		row(wa.Name, "failed_share", fa, fb, "no increase", verdictOf(fb <= fa))
		row(wa.Name, "comparisons", float64(wa.Comparisons), float64(wb.Comparisons), "exact", verdictOf(wa.Comparisons == wb.Comparisons))
		row(wa.Name, "matches", float64(wa.Matches), float64(wb.Matches), "exact", verdictOf(wa.Matches == wb.Matches && wa.Digest == wb.Digest))
		for _, m := range mf.EndToEnd {
			ma, inA := wa.Metrics[m.Name]
			mb, inB := wb.Metrics[m.Name]
			if !inA || !inB {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if m.Better == "higher" {
				worse = -worse
			}
			row(wa.Name, m.Name, ma.Value, mb.Value, fmt.Sprintf("%.0f%%", 100*m.Bound), verdictOf(worse <= m.Bound))
		}
		for _, m := range mf.PerLayer {
			ma, inA := wa.Metrics[m.Name]
			mb, inB := wb.Metrics[m.Name]
			if !inA || !inB {
				continue
			}
			switch d := defs[m.Name]; {
			case d.exact:
				row(wa.Name, m.Name, ma.Value, mb.Value, "exact", verdictOf(ma.Value == mb.Value))
			case d.allocs:
				row(wa.Name, m.Name, ma.Value, mb.Value, fmt.Sprintf("±%.0f%%", 100*allocTolerance),
					verdictOf(math.Abs(mb.Value-ma.Value) <= allocTolerance*ma.Value))
			default:
				row(wa.Name, m.Name, ma.Value, mb.Value, "-", "shown")
			}
		}
	}
	return ok
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
