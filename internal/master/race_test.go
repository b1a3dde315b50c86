//go:build race

package master_test

// raceDetector reports a -race build, whose instrumentation changes what
// escapes to the heap: byte budgets are those of the uninstrumented build.
const raceDetector = true
