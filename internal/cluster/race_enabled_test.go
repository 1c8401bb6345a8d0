//go:build race

package cluster_test

// raceEnabled reports that this test binary was built with -race, under
// which sync.Pool drops a quarter of its Puts on purpose — lease misses
// then prove nothing about releases.
const raceEnabled = true
