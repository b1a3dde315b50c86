//go:build !race

package master_test

const raceDetector = false
