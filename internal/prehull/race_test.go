//go:build race

package prehull

// raceEnabled trims the slowest exact-arithmetic cases under the race
// detector, where they cost minutes; plain test runs keep them.
const raceEnabled = true
