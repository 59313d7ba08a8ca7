package harness

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestSlowPairTracking: both sweep shapes report the slowest pair, and
// the parallel merge preserves it across workers.
func TestSlowPairTracking(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	serial := RunFindRelation(core.PC, pairs)
	if serial.SlowPairTime <= 0 {
		t.Fatalf("serial sweep tracked no slow pair: %+v", serial)
	}
	if serial.SlowPair < 0 || serial.SlowPair >= len(pairs) {
		t.Fatalf("serial slow pair index %d out of range", serial.SlowPair)
	}

	par, err := RunFindRelationParallelCtx(context.Background(), core.PC, pairs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if par.SlowPairTime <= 0 {
		t.Fatalf("parallel sweep tracked no slow pair: %+v", par)
	}
	if par.SlowPair < 0 || par.SlowPair >= len(pairs) {
		t.Fatalf("parallel slow pair index %d out of range", par.SlowPair)
	}
}

// TestParallelSweepWorkerSpans: a sampled trace context threads through
// the parallel sweep into per-worker spans with pair and stage children.
func TestParallelSweepWorkerSpans(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{Sample: 1, Capacity: 4, MaxSpans: 1 << 16})
	ctx, root := tr.Start(context.Background(), "sweep")
	if _, err := RunFindRelationParallelCtx(ctx, core.PC, pairs, 4, nil); err != nil {
		t.Fatal(err)
	}
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	td := traces[0]
	workers, pairSpans, stageSpans := 0, 0, 0
	for _, w := range td.Root.Children {
		if w.Name != "sweep.worker" {
			continue
		}
		workers++
		for _, p := range w.Children {
			if p.Name != "pair" {
				continue
			}
			pairSpans++
			stageSpans += len(p.Children)
		}
	}
	if workers == 0 || pairSpans == 0 || stageSpans == 0 {
		t.Fatalf("spans: workers=%d pairs=%d stages=%d (want all > 0)", workers, pairSpans, stageSpans)
	}
	if got := td.Root.Depth(); got < 4 {
		t.Fatalf("depth = %d, want >= 4 (root → worker → pair → stage)", got)
	}
	// Sum of per-worker pair counts covers the whole workload.
	var swept int64
	for _, w := range td.Root.Children {
		if w.Name == "sweep.worker" {
			if n, ok := w.IntAttr("pairs"); ok {
				swept += n
			}
		}
	}
	if swept != int64(len(pairs)) {
		t.Fatalf("workers swept %d pairs, want %d", swept, len(pairs))
	}
}

// TestParallelSweepUnsampledOverheadPath: an unsampled context runs the
// sweep through the nil-span path and still tracks the slow pair.
func TestParallelSweepUnsampledOverheadPath(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{Sample: 0, Capacity: 4})
	ctx, root := tr.Start(context.Background(), "sweep")
	st, err := RunFindRelationParallelCtx(ctx, core.PC, pairs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if st.SlowPairTime <= 0 {
		t.Fatalf("unsampled sweep lost slow-pair tracking: %+v", st)
	}
	if got := len(tr.Traces()); got != 0 {
		t.Fatalf("unsampled fast trace kept: %d", got)
	}
}
