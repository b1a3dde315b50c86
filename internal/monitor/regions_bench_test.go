package monitor_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/monitor"
)

// BenchmarkRegions times the boot's region-derivation step alone:
// monitor.NewVersioned over a built HOSP master, which derives the certain
// regions of §5 (CompCRegion and GRegion) by checking sampled rows with the
// Theorem-4 test. The master is built once, outside the loop. Sampling
// caps the rows checked, so one master size is enough. GOMAXPROCS is 1
// and GC off while timing, so that allocs/op and B/op repeat from run to
// run, as the perf gate needs: the checker's scratch pool is per P, and a
// goroutine that moves to another P, or a collection, leaves a check
// without the scratch the last one put back.
func BenchmarkRegions(b *testing.B) {
	for _, n := range []int{1_000} {
		b.Run(fmt.Sprintf("Dm=%d", n), func(b *testing.B) {
			ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: n, Tuples: 1})
			if err != nil {
				b.Fatal(err)
			}
			ver := master.NewVersioned(ds.Master)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := monitor.NewVersioned(ds.Sigma, ver, monitor.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if len(m.Regions()) == 0 {
					b.Fatal("no region derived")
				}
			}
		})
	}
}
