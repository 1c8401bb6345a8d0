//go:build !race

package backing

const raceEnabled = false
