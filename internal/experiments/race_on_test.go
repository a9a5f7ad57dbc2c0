//go:build race

package experiments

// raceEnabled reports that this binary was built with the race
// detector, under which full-system runs cost ~15x; race-built tests
// shrink their matrices to a small subset.
const raceEnabled = true
