package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the job launcher, as the
// benchmark binary does for itself.
func TestMain(m *testing.M) {
	if launchIfAsked() {
		return
	}
	os.Exit(m.Run())
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	s := skewSpec.shrink(smokeShrink)
	a, b, c := generate(s, 7), generate(s, 7), generate(s, 8)
	if !bytes.Equal(a.csv, b.csv) {
		t.Fatal("the same seed gave different CSV bytes")
	}
	if bytes.Equal(a.csv, c.csv) {
		t.Fatal("a different seed gave the same CSV bytes")
	}
}

func TestCensusCountsPairsExactly(t *testing.T) {
	for _, s := range []spec{skewSpec.shrink(smokeShrink), flatSpec.shrink(smokeShrink)} {
		d := generate(s, 3)
		if want := s.base + int(float64(s.base)*s.dupRate); d.census.entities != want || len(d.records) != want {
			t.Errorf("%s: %d entities, want %d", s.name, d.census.entities, want)
		}
		var pairs int64
		for i := range d.records {
			for j := i + 1; j < len(d.records); j++ {
				if blockKey(d.records[i].title) == blockKey(d.records[j].title) {
					pairs++
				}
			}
		}
		if d.census.pairs != pairs {
			t.Errorf("%s: census says %d pairs, the nested loop %d", s.name, d.census.pairs, pairs)
		}
		sum := 0
		for _, n := range d.census.blocks {
			sum += n
		}
		if sum != d.census.entities {
			t.Errorf("%s: block sizes sum to %d, want %d", s.name, sum, d.census.entities)
		}
		if len(d.census.mustMatch) == 0 || len(d.census.mustMatch) > len(d.planted) {
			t.Errorf("%s: %d of %d planted duplicates must match", s.name, len(d.census.mustMatch), len(d.planted))
		}
	}
}

// The full-size profiles are what the workloads were chosen on.
func TestDatasetProfiles(t *testing.T) {
	skew := generate(skewSpec, 1).census
	if skew.entities != 118560 || len(skew.blocks) != 2375 {
		t.Errorf("skew: %d entities in %d blocks, want 118560 in 2375", skew.entities, len(skew.blocks))
	}
	if skew.pairs < 19e6 || skew.pairs > 21e6 || skew.largestPairShare < 0.65 || skew.largestPairShare > 0.77 {
		t.Errorf("skew: %d pairs, %.2f in the largest block; want about 20 M and 0.71", skew.pairs, skew.largestPairShare)
	}
	flat := generate(flatSpec, 1).census
	if flat.entities != 132000 || len(flat.blocks) != 17576 {
		t.Errorf("flat: %d entities in %d blocks, want 132000 in 17576", flat.entities, len(flat.blocks))
	}
	if flat.pairs < 0.4e6 || flat.pairs > 0.5e6 || flat.largestBlock > 30 {
		t.Errorf("flat: %d pairs, largest block %d; want about 0.45 M and small blocks", flat.pairs, flat.largestBlock)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(vs, n=4).
	cases := []struct {
		vs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 8, 2, 32},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vs)
		if median(c.vs) != c.med || q1 != c.q1 || q3 != c.q3 || iqr(c.vs) != c.q3-c.q1 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.vs, median(c.vs), q1, q3, c.med, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestParseReport(t *testing.T) {
	out := "strategy=BlockSplit entities=118560 m=4 r=16\nblocks=2375 pairs=19974254 largest-block=5334\n" +
		"comparisons=19974254 matches=4643 wall=645.139732ms\nmatches streamed to m.csv (csv)\n"
	r, err := parseReport(out)
	if err != nil || r.comparisons != 19974254 || r.matches != 4643 {
		t.Fatalf("got %+v, %v", r, err)
	}
	for _, bad := range []string{"", "strategy=Basic\n", "comparisons=12 wall=1s\n", "comparisons=x matches=1\n"} {
		if _, err := parseReport(bad); err == nil {
			t.Errorf("parseReport(%q) should fail", bad)
		}
	}
}

func TestEditDistance(t *testing.T) {
	for _, c := range []struct {
		a, b string
		d    int
	}{{"", "", 0}, {"abc", "", 3}, {"kitten", "sitting", 3}, {"flaw", "lawn", 2}, {"abc", "abc", 0}} {
		if got := editDistance(c.a, c.b); got != c.d {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
	if s := similarity("abcde", "abcdx"); s != 0.8 {
		t.Errorf("similarity on the threshold = %v, want 0.8", s)
	}
}

// A correct match file for a dataset, built by the benchmark's own rule.
func referenceOutput(d *dataset) (report, []byte) {
	byBlock := make(map[string][]record)
	for _, r := range d.records {
		byBlock[blockKey(r.title)] = append(byBlock[blockKey(r.title)], r)
	}
	var buf bytes.Buffer
	buf.WriteString("a,b,similarity\n")
	rep := report{comparisons: d.census.pairs}
	for _, block := range byBlock {
		for i := range block {
			for j := i + 1; j < len(block); j++ {
				if sim := similarity(block[i].title, block[j].title); sim >= threshold {
					a, b := block[i].id, block[j].id
					if a > b {
						a, b = b, a
					}
					fmt.Fprintf(&buf, "%s,%s,%v\n", a, b, sim)
					rep.matches++
				}
			}
		}
	}
	return rep, buf.Bytes()
}

func TestCheckOutputCatchesEachViolation(t *testing.T) {
	d := generate(skewSpec.shrink(smokeShrink), 5)
	rep, good := referenceOutput(d)
	digest, err := checkOutput(d, rep, good, "")
	if err != nil {
		t.Fatalf("a correct output was rejected: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(good), "\n"), "\n")
	without := func(i int) []byte {
		kept := append(append([]string(nil), lines[:i]...), lines[i+1:]...)
		return []byte(strings.Join(kept, "\n") + "\n")
	}
	first := strings.Split(lines[1], ",")
	// A pair from one block that does not reach the threshold.
	var below string
	for _, r := range d.records {
		if r.id != first[0] && blockKey(r.title) == blockKey(d.titles[first[0]]) && similarity(r.title, d.titles[first[0]]) < threshold {
			a, b := r.id, first[0]
			if a > b {
				a, b = b, a
			}
			below = fmt.Sprintf("%s,%s,%v", a, b, similarity(r.title, d.titles[first[0]]))
			break
		}
	}
	cases := map[string]struct {
		rep  report
		csv  []byte
		want string
	}{
		"wrong comparisons":    {report{rep.comparisons + 1, rep.matches}, good, ""},
		"a row dropped":        {report{rep.comparisons, rep.matches - 1}, without(1), ""},
		"count disagrees":      {report{rep.comparisons, rep.matches + 1}, good, ""},
		"a similarity changed": {rep, bytes.Replace(good, []byte(lines[1]), []byte(first[0]+","+first[1]+",0.8125"), 1), ""},
		"a row below the threshold": {report{rep.comparisons, rep.matches + 1},
			append(append([]byte(nil), good...), below+"\n"...), ""},
		"another digest": {rep, good, strings.Repeat("0", 64)},
		"no header":      {rep, good[len("a,b,similarity\n"):], ""},
	}
	for name, c := range cases {
		if _, err := checkOutput(d, c.rep, c.csv, c.want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := checkOutput(d, rep, good, digest); err != nil {
		t.Errorf("the output's own digest was rejected: %v", err)
	}
}

// manifestFile is all of BENCHMARK.json.
type manifestFile struct {
	manifest
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var mf manifestFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, mf.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, listed []manifestMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			if got := listed[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got, d)
			}
		}
	}
	same("end_to_end", mf.EndToEnd, endToEnd)
	same("per_layer", mf.PerLayer, perLayer)
}

// TestSmoke is the whole benchmark on tiny data: binaries built from
// the checkout, every workload once through real child processes, the
// traced run once, every metric present, every check passing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	scratch := t.TempDir()
	res, spans, err := run(context.Background(), options{seed: 1, smoke: true}, "..", scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || len(res.Workloads) != len(workloads) {
		t.Fatalf("smoke run failed: %+v", res.Workloads)
	}
	if len(spans) == 0 {
		t.Error("the traced run recorded no spans")
	}
	byName := make(map[string]workloadResult)
	for _, w := range res.Workloads {
		byName[w.Name] = w
		for _, d := range allMetrics() {
			m, ok := w.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s is %+v (present %v), want a number in %s", w.Name, d.name, m, ok, d.unit)
			}
		}
		if w.Attempted != 2 || w.Digest == "" || w.Comparisons == 0 {
			t.Errorf("%s: attempted %d, digest %q, comparisons %d", w.Name, w.Attempted, w.Digest, w.Comparisons)
		}
		// Each workload is a different path to the same answer.
		if w.Digest != res.Workloads[0].Digest && w.Digest != res.Workloads[len(res.Workloads)-1].Digest {
			t.Errorf("%s: digest %s is neither dataset's", w.Name, w.Digest)
		}
	}
	for _, w := range workloads {
		runs := byName[w.name].Metrics["runio.spill_runs"].Value
		if inMemory := w.spillBudget == 0 && !w.dist; inMemory != (runs == 0) {
			t.Errorf("%s: runio.spill_runs = %v", w.name, runs)
		}
	}
	if v := byName["skew-basic-par"].Metrics["bdm.job_s"].Value; v != 0 {
		t.Errorf("skew-basic-par has no BDM job, bdm.job_s = %v", v)
	}
	basic := byName["skew-basic-par"].Metrics["core.reduce_max_share"].Value
	split := byName["skew-blocksplit-par"].Metrics["core.reduce_max_share"].Value
	if basic <= split {
		t.Errorf("core.reduce_max_share: Basic %v should exceed BlockSplit %v", basic, split)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(scratch, "run-*")); len(leftovers) > 0 {
		t.Errorf("the run left %v behind", leftovers)
	}

	// The result file round-trips and compares clean against itself;
	// a slower copy and a copy with another count do not.
	mf := manifest{}
	for _, d := range endToEnd {
		mf.EndToEnd = append(mf.EndToEnd, manifestMetric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		mf.PerLayer = append(mf.PerLayer, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	clone := func() *result {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var c result
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		return &c
	}
	var out bytes.Buffer
	if !compareResults(&out, mf, res, clone()) {
		t.Errorf("a result does not compare clean against itself:\n%s", out.String())
	}
	edit := func(metric string, factor float64) *result {
		c := clone()
		m := c.Workloads[2].Metrics[metric]
		m.Value *= factor
		c.Workloads[2].Metrics[metric] = m
		return c
	}
	for metric, factor := range map[string]float64{
		"wall_s": 1.3, "mpairs_per_s": 0.7, "peak_rss_mb": 1.15, "core.map_emits": 1.001, "er.allocs": 1.05,
	} {
		if compareResults(&out, mf, res, edit(metric, factor)) {
			t.Errorf("%s × %v passed -compare", metric, factor)
		}
	}
	for metric, factor := range map[string]float64{
		"wall_s": 1.2, "wall_s ": 0.5, "peak_rss_mb": 1.05, "er.allocs": 1.01, "er.match_job_s": 3,
	} {
		if !compareResults(&out, mf, res, edit(strings.TrimSpace(metric), factor)) {
			t.Errorf("%s × %v failed -compare", metric, factor)
		}
	}
	failed := clone()
	failed.Workloads[0].Failed = 1
	if compareResults(&out, mf, res, failed) {
		t.Error("a new failed iteration passed -compare")
	}
}
