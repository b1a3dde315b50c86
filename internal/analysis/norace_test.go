//go:build !race

package analysis_test

const raceDetector = false
