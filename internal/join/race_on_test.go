//go:build race

package join

// raceEnabled gates the allocation assertions: under the race detector
// sync.Pool drops items at random, so a pooled kernel arena is not reliably
// reused and "allocates nothing" cannot hold.
const raceEnabled = true
