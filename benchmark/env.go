package main

import (
	"context"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment is recorded in every result file, so two files that
// disagree can be told apart from two machines that disagree.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	LoadAvg    string `json:"load_average"`
	Seed       int64  `json:"seed"`
	Smoke      bool   `json:"smoke"`
	// CalibMS and CalibSpread are the median and q3 ÷ q1 of the fixed
	// spin timed before every iteration: when the box is busy the spin
	// slows with the workloads, and the spread says so.
	CalibMS     float64 `json:"calib_ms"`
	CalibSpread float64 `json:"calib_spread"`
}

func recordEnvironment(ctx context.Context, seed int64, smoke bool) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadAvg:    firstLine("/proc/loadavg"),
		Seed:       seed,
		Smoke:      smoke,
	}
	// The driver's checkout is not a git repository; a commit is
	// recorded where there is one.
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}

// calibSink keeps the spin's result live so the loop is not removed.
var calibSink uint64

// calibrate times a fixed pure-Go spin of about 20 ms and returns the
// time in milliseconds. It touches no memory and makes no calls, so
// what moves it is the machine, not the program.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 12_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// calibration collects the spins of one run.
type calibration struct{ ms []float64 }

func (c *calibration) spin() { c.ms = append(c.ms, calibrate()) }

// summary returns the median and q3 ÷ q1.
func (c *calibration) summary() (med, spread float64) {
	q1, q3 := quartiles(c.ms)
	return median(c.ms), q3 / q1
}
