// Command benchmark is the repo's one yardstick: CSV in, match pairs
// out, end to end through the ermatch binary, over seven named
// workloads, with a per-layer table from a separate traced run. It
// generates its own inputs from -seed, checks every output, and prints
// every metric by name and unit. README.md beside this file says what
// each metric and workload is for; BENCHMARK.json at the repo root
// names them for the driver.
//
// Usage, from the repo root:
//
//	go run ./benchmark -seed 1                      all seven workloads, 21 iterations each, then the traced runs
//	go run ./benchmark -workload flat-spill -seed 3 -seconds 15 -trace 0
//	go run ./benchmark -smoke                       tiny data, one iteration (what go test runs)
//	go run ./benchmark -compare A.json B.json       judge two result files by BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"
)

// options are the command line.
type options struct {
	seed     int64
	workload string
	seconds  int
	trace    string
	smoke    bool
	out      string
}

// The phases -trace selects. Unset runs both.
const (
	traceOff  = "0" // end-to-end only: child processes, no tracing
	traceOnly = "1" // the traced run only: per-layer metrics
)

func main() {
	if launchIfAsked() {
		return
	}
	var o options
	var compare bool
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input generator, its only input")
	flag.StringVar(&o.workload, "workload", "", "run this workload only (default: all seven, iterations interleaved)")
	flag.IntVar(&o.seconds, "seconds", 0, "measure each workload for this long instead of for 21 iterations")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end metrics only; 1: per-layer metrics from the traced run only (default: both)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny datasets, one iteration, traced run once")
	flag.StringVar(&o.out, "out", "", "directory for result.json and spans.json (default: .bench_build/out)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if o.trace != "" && o.trace != traceOff && o.trace != traceOnly {
		fatal(fmt.Errorf("-trace %q: want 0 or 1", o.trace))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	res, spans, err := run(ctx, o, root, filepath.Join(root, ".bench_build"))
	if err != nil {
		fatal(err)
	}
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "out")
	}
	if err := writeOutputs(o.out, res, spans); err != nil {
		fatal(err)
	}
	printTable(os.Stdout, res)
	line, err := json.Marshal(res.lastLine(o.trace))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

// workloadResult is one workload's row of the result file.
type workloadResult struct {
	Name        string              `json:"name"`
	Attempted   int                 `json:"attempted"`
	Failed      int                 `json:"failed"`
	Errors      []string            `json:"errors,omitempty"`
	Comparisons int64               `json:"comparisons"`
	Matches     int64               `json:"matches"`
	Digest      string              `json:"digest"`
	Metrics     map[string]measured `json:"metrics"`
}

// result is the result file.
type result struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// finalLine is the last line of standard output, the driver's contract.
type finalLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// lastLine flattens the result. A single workload's metrics go by
// their own names, as BENCHMARK.json lists them; several workloads
// prefix theirs with "<workload>:".
func (r *result) lastLine(trace string) finalLine {
	fl := finalLine{Correct: r.correct(), Metrics: make(map[string]measured)}
	var defs []metricDef
	if trace != traceOnly {
		defs = append(defs, endToEnd...)
	}
	if trace != traceOff {
		defs = append(defs, perLayer...)
	}
	for _, w := range r.Workloads {
		fl.Attempted += w.Attempted
		fl.Failed += w.Failed
		for _, d := range defs {
			name := d.name
			if len(r.Workloads) > 1 {
				name = w.Name + ":" + name
			}
			if m, ok := w.Metrics[d.name]; ok {
				fl.Metrics[name] = count(m.Unit, m.Value) // value and unit only
			}
		}
	}
	return fl
}

// iterations is how often each workload runs when -seconds is not
// given: with 21 samples the median has ten on either side.
const iterations = 21

// setupReps is how often set-up is repeated; setup_s is the median, so
// the one cold build of a fresh checkout does not show.
const setupReps = 3

// traceChildRuns is how many child-process runs the traced run's
// residual is taken against.
const traceChildRuns = 3

// smokeShrink divides the dataset sizes under -smoke.
const smokeShrink = 60

// reference is the untimed run that gives each dataset its reference
// digest: Basic, in memory, the simplest path through the program.
// Every iteration of every workload on the dataset must reproduce it,
// which is how the strategies and dataflows are held to one answer.
var reference = workload{name: "reference", strategy: "basic", parallelism: 2}

// run executes the selected workloads and returns the result and the
// traced run's spans. root is the repo checkout; everything written
// goes under scratch.
func run(ctx context.Context, o options, root, scratch string) (*result, []span, error) {
	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	rounds, reps, childRuns, nSetups, spill := iterations, stagedReps, traceChildRuns, setupReps, int64(spillBudgetBytes)
	if o.smoke {
		o.seconds = 0
		rounds, reps, childRuns, nSetups = 1, 1, 1, 1
		// The budget shrinks with the data, so flat-spill still spills.
		spill /= smokeShrink
		selected = append([]workload(nil), selected...)
		for i := range selected {
			if selected[i].spillBudget > 0 {
				selected[i].spillBudget = spill
			}
		}
	}

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, err
	}
	runDir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)

	var (
		bin      binaries
		datasets map[string]*dataset
		setups   []float64
	)
	for i := 0; i < nSetups; i++ {
		start := time.Now()
		if bin, err = build(ctx, root, filepath.Join(scratch, "bin")); err != nil {
			return nil, nil, err
		}
		if datasets, err = makeDatasets(selected, o, runDir); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setup := sample("s", setups)
	// Set-up leaves garbage; collect it now so this process's collector
	// does not run beside the first timed jobs.
	runtime.GC()

	var cal calibration
	jobs := 0
	job := func(w *workload, parallelism int) (jobStats, error) {
		jobs++
		cal.spin()
		return runJob(ctx, bin, w, csvPath(runDir, w.dataset), filepath.Join(runDir, fmt.Sprintf("job-%d", jobs)), parallelism)
	}

	digests := make(map[string]string)
	for name, d := range datasets {
		ref := reference
		ref.dataset = name
		st, err := job(&ref, ref.parallelism)
		if err == nil {
			digests[name], err = checkOutput(d, st.report, st.matchCSV, "")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("reference run on %s: %w", name, err)
		}
	}

	res := &result{Env: recordEnvironment(ctx, o.seed, o.smoke)}
	samples := make([][]jobStats, len(selected))
	for _, w := range selected {
		res.Workloads = append(res.Workloads, workloadResult{
			Name: w.name, Digest: digests[w.dataset], Metrics: map[string]measured{"setup_s": setup},
		})
	}
	// iterate runs the workload once, checks the output, and books the
	// outcome. A failed iteration contributes no timing.
	iterate := func(i int, parallelism int) (jobStats, bool) {
		w, wr := &selected[i], &res.Workloads[i]
		d := datasets[w.dataset]
		wr.Attempted++
		st, err := job(w, parallelism)
		if err == nil {
			_, err = checkOutput(d, st.report, st.matchCSV, wr.Digest)
		}
		if err != nil {
			wr.Failed++
			wr.Errors = append(wr.Errors, err.Error())
			fmt.Fprintf(os.Stderr, "benchmark: %s: iteration %d failed: %v\n", w.name, wr.Attempted, err)
			return st, false
		}
		wr.Comparisons, wr.Matches = st.report.comparisons, st.report.matches
		return st, true
	}

	if o.trace != traceOnly {
		// Iteration i of every workload runs before iteration i+1 of
		// any: this box's interference comes in minute-long waves, and
		// this order makes a wave hit all workloads alike.
		deadline := time.Now().Add(time.Duration(o.seconds*len(selected)) * time.Second)
		for round := 0; ctx.Err() == nil; round++ {
			if o.seconds > 0 && !time.Now().Before(deadline) || o.seconds == 0 && round == rounds {
				break
			}
			for i := range selected {
				if st, ok := iterate(i, selected[i].parallelism); ok {
					samples[i] = append(samples[i], st)
				}
			}
		}
		for i := range selected {
			endToEndMetrics(res.Workloads[i].Metrics, samples[i], datasets[selected[i].dataset])
		}
	}

	var spans []span
	if o.trace != traceOff {
		t := newTracer()
		for i := range selected {
			w := &selected[i]
			// The residual compares like with like: the staged run is
			// at parallelism 1, so its child runs are too. flat-dist
			// keeps its own, in both.
			parallelism := 1
			if w.dist {
				parallelism = w.parallelism
			}
			var walls []float64
			for k := 0; k < childRuns && ctx.Err() == nil; k++ {
				if st, ok := iterate(i, parallelism); ok {
					walls = append(walls, st.wall.Seconds())
				}
			}
			if len(walls) == 0 {
				continue
			}
			lr := &layerRun{
				t: t, w: w, csv: csvPath(runDir, w.dataset), dir: filepath.Join(runDir, "trace-"+w.name),
				reps: reps, spill: spill,
			}
			layer, err := traceWorkload(ctx, lr, datasets[w.dataset], res.Workloads[i].Digest, median(walls), &cal)
			if err != nil {
				return nil, nil, err
			}
			for name, m := range layer {
				res.Workloads[i].Metrics[name] = m
			}
		}
		spans = t.spans
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	res.Env.CalibMS, res.Env.CalibSpread = cal.summary()
	for i := range res.Workloads {
		res.Workloads[i].Metrics["env.calib_ms"] = count("ms", res.Env.CalibMS)
		res.Workloads[i].Metrics["env.calib_spread"] = count("ratio", res.Env.CalibSpread)
	}
	return res, spans, nil
}

func csvPath(runDir, dataset string) string { return filepath.Join(runDir, dataset+".csv") }

// build compiles the programs under test from the checkout's source.
// go build leaves an up-to-date binary alone, so only the first set-up
// of a checkout pays for it.
func build(ctx context.Context, root, binDir string) (binaries, error) {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator), "./cmd/ermatch", "./cmd/erworker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build ./cmd/ermatch ./cmd/erworker in %s: %w\n%s", root, err, out)
	}
	return binaries{ermatch: filepath.Join(binDir, "ermatch"), erworker: filepath.Join(binDir, "erworker")}, nil
}

// makeDatasets generates the datasets the selected workloads read and
// writes their CSV files.
func makeDatasets(selected []workload, o options, runDir string) (map[string]*dataset, error) {
	datasets := make(map[string]*dataset)
	for _, w := range selected {
		if datasets[w.dataset] != nil {
			continue
		}
		s := skewSpec
		if w.dataset == flatSpec.name {
			s = flatSpec
		}
		if o.smoke {
			s = s.shrink(smokeShrink)
		}
		d := generate(s, o.seed)
		if err := os.WriteFile(csvPath(runDir, d.name), d.csv, 0o644); err != nil {
			return nil, err
		}
		datasets[d.name] = d
	}
	return datasets, nil
}

// endToEndMetrics turns the successful iterations into the end-to-end
// row. Throughputs are the dataset's exact counts over wall_s.
func endToEndMetrics(m map[string]measured, sts []jobStats, d *dataset) {
	if len(sts) == 0 {
		return // every iteration failed: there is nothing to report but that
	}
	var wall, cpu, rss []float64
	for _, st := range sts {
		wall = append(wall, st.wall.Seconds())
		cpu = append(cpu, st.cpu.Seconds())
		rss = append(rss, float64(st.rssKB)/1024)
	}
	m["wall_s"] = undisturbed("s", wall)
	m["cpu_s"] = undisturbed("s", cpu)
	m["peak_rss_mb"] = sample("MB", rss)
	m["mpairs_per_s"] = count("Mpairs/s", float64(d.census.pairs)/1e6/m["wall_s"].Value)
	m["kentities_per_s"] = count("kentities/s", float64(d.census.entities)/1e3/m["wall_s"].Value)
}

func writeOutputs(dir string, res *result, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, v := range map[string]any{"result.json": res, "spans.json": spans} {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printTable prints every metric of every workload by name and unit,
// with the size, median, interquartile range and minimum of each sample.
func printTable(out *os.File, res *result) {
	e := res.Env
	fmt.Fprintf(out, "seed=%d smoke=%v nproc=%d GOMAXPROCS=%d %s kernel=%s load=%q commit=%s\n",
		e.Seed, e.Smoke, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.LoadAvg, e.Commit)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tn\tmedian\tiqr\tmin")
	for _, w := range res.Workloads {
		for _, d := range allMetrics() {
			m, ok := w.Metrics[d.name]
			if !ok {
				continue
			}
			spread := "\t\t\t"
			if m.N > 0 {
				spread = fmt.Sprintf("%d\t%.4g\t%.4g\t%.4g", m.N, m.Median, m.IQR, m.Min)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\n", w.Name, d.name, m.Value, m.Unit, spread)
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%d/%d\t\t\t\t\t\n", w.Name, w.Failed, w.Attempted)
		if w.Digest != "" {
			fmt.Fprintf(tw, "%s\tdigest\t%s\t\t\t\t\t\n", w.Name, w.Digest[:12])
		}
	}
	tw.Flush()
}
