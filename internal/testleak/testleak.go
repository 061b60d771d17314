// Package testleak is the shared goroutine-leak assertion of the
// cancellation and fault-tolerance tests: snapshot the goroutine count
// before the code under test, then Check that the count returns to the
// snapshot afterwards, waiting out goroutines that are mid-teardown.
// Supervisor workers, timed-out attempts, and dispatch goroutines all
// must drain on every exit path — a stuck goroutine shows up as a Check
// failure with the final count.
package testleak

import (
	"runtime"
	"testing"
	"time"
)

// Snapshot records the current goroutine count. Take it before starting
// the code under test (and before spawning any test helpers that
// legitimately outlive it).
func Snapshot() int { return runtime.NumGoroutine() }

// Check fails t if the goroutine count has not returned to the before
// snapshot within 5 seconds. Goroutines need a moment to unwind after
// cancellation, hence the retry-wait rather than a single sample.
func Check(t testing.TB, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after (waited 5s)", before, n)
}
