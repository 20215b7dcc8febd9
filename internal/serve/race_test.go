//go:build race

package serve

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation counts through a pool are not pinned under it.
const raceEnabled = true
