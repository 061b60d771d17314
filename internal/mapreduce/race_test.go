//go:build race

package mapreduce_test

// raceEnabled gates pool-hit assertions: under the race detector
// sync.Pool deliberately drops items to widen interleavings, so a
// buffer put back is not guaranteed to be there for the next Get.
const raceEnabled = true
