//go:build race

package monitor

func init() { raceEnabled = true }
