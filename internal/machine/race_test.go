//go:build race

package machine

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts mean nothing.
const raceEnabled = true
