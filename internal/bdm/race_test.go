//go:build race

package bdm

// raceEnabled gates the allocation bound: under the race detector
// sync.Pool drops items at will, so pooled buffers are allocated again.
const raceEnabled = true
