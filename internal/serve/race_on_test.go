//go:build race

package serve

// raceEnabled reports whether the race detector is active; allocation
// pins skip under it (the detector randomly drops sync.Pool items,
// perturbing AllocsPerRun).
const raceEnabled = true
