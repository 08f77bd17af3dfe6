//go:build race

package transport

// raceEnabled reports a build with the race detector, under which
// allocation budgets do not hold.
const raceEnabled = true
