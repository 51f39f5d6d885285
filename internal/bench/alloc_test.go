//go:build !race

package bench

import (
	"runtime"
	"testing"
)

// TestFigure13SweepAllocs bounds what one Figure 13 sweep allocates
// where the planners' buffers dominate: tinyConfig (50 000 rows per
// table, batch 64) with Workers=1. The sweep's envs share one spare
// pool and run their largest cache fraction first, so each table's slot
// metadata, Hit-Map and recency lists are allocated once per sweep, not
// once per class and larger fraction: 32.0 MB before, 7.2 MB after.
func TestFigure13SweepAllocs(t *testing.T) {
	const bound = 12 // MB
	cfg := tinyConfig()
	cfg.Workers = 1
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := CollectFigure13(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("one Figure 13 sweep allocated %.2f MB", mb)
	if mb > bound {
		t.Fatalf("one Figure 13 sweep allocated %.2f MB, over the %d MB bound", mb, bound)
	}
}
