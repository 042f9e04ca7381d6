//go:build race

package perfbench

const raceEnabled = true
