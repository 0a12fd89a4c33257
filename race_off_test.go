//go:build !race

package dtmsvs

// raceEnabled reports a build with the race detector, whose
// instrumentation allocates where a plain build does not.
const raceEnabled = false
