//go:build !race

package shard

// raceEnabled reports whether the race detector is compiled in; allocation
// pins skip under it, since instrumentation changes allocation counts.
const raceEnabled = false
