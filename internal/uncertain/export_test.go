package uncertain

// Exports for the external uncertain_test package.

// RaceEnabled reports whether the race detector is compiled in; heap pins
// skip under it, since instrumentation changes allocation sizes.
const RaceEnabled = raceEnabled

// StableRankOrder is the reference rank order Build's sort must reproduce.
var StableRankOrder = stableRankOrder
