//go:build race

package textproc

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a random share of Puts, so pooled paths allocate a
// varying number of objects.
const raceEnabled = true
