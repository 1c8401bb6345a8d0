//go:build race

package backing

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates on its own: heap bounds prove nothing there.
const raceEnabled = true
