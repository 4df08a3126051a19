//go:build !race

package prehull

const raceEnabled = false
