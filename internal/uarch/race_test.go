//go:build race

package uarch

// raceEnabled reports a -race build, under which sync.Pool drops entries
// at random, so allocation counts are not stable.
const raceEnabled = true
