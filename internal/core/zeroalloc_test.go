package core

import (
	"math/rand"
	"testing"

	"repro/internal/de9im"
)

// TestZeroAllocSweeper pins the whole observed hot path — MBR filter,
// intermediate filter, scratch-based refinement, sink delivery — to zero
// heap allocations per pair once objects are warm (wired into
// `make bench`), for all three sweeper operations. This is the loop
// every sweep and every serving request runs; one allocation here is
// millions per join.
func TestZeroAllocSweeper(t *testing.T) {
	b := testBuilder(t)
	rng := rand.New(rand.NewSource(23))
	pairs := testPairs(t, b, rng)
	mask := de9im.MustMask("T********")
	for _, m := range Methods {
		sweep := NewSweeper(NopSink{})
		run := func() {
			for _, p := range pairs {
				sweep.FindRelation(m, p[0], p[1])
				sweep.RelatePred(m, p[0], p[1], de9im.Intersects)
				sweep.RelateMask(m, p[0], p[1], mask)
			}
		}
		// Warm up: build every Prepared, force interior points via the
		// probe fallbacks, and grow the scratch.
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: sweep over %d warm pairs allocates %v per run, want 0",
				m, len(pairs), allocs)
		}
		sweep.Release()
	}
}
