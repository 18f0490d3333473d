//go:build !race

package uncertain_test

// raceEnabled reports whether the race detector is compiled in; heap pins
// skip under it, since instrumentation changes allocation sizes.
const raceEnabled = false
