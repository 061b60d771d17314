//go:build !race

package bdm

// raceEnabled gates the allocation bound; see race_test.go.
const raceEnabled = false
