//go:build !race

package mapreduce_test

// raceEnabled gates pool-hit assertions; see race_test.go.
const raceEnabled = false
