//go:build race

package engine

// raceEnabled reports a race-detector build, whose sync.Pool drops pooled
// buffers at random: allocation budgets do not hold there.
const raceEnabled = true
