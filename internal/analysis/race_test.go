//go:build race

package analysis_test

// raceDetector reports a -race build, whose sync.Pool drops a share of
// what is put back: allocation counts are those of the uninstrumented build.
const raceDetector = true
