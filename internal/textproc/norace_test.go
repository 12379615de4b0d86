//go:build !race

package textproc

const raceEnabled = false
