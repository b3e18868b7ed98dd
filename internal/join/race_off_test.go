//go:build !race

package join

// raceEnabled gates the allocation assertions (see race_on_test.go).
const raceEnabled = false
