package harness

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestParallelMatchesSequential(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	seq := RunFindRelation(core.PC, pairs)
	for _, workers := range []int{1, 2, 7, 0} {
		par, _ := RunFindRelationParallelCtx(context.Background(), core.PC, pairs, workers, nil)
		if par.Relations != seq.Relations {
			t.Fatalf("workers=%d: relation histogram differs\nseq: %v\npar: %v",
				workers, seq.Relations, par.Relations)
		}
		if par.Undetermined != seq.Undetermined {
			t.Fatalf("workers=%d: undetermined %d != %d", workers, par.Undetermined, seq.Undetermined)
		}
		if par.Pairs != seq.Pairs {
			t.Fatalf("workers=%d: pair count mismatch", workers)
		}
		if par.MBRSettled != seq.MBRSettled || par.IFSettled != seq.IFSettled {
			t.Fatalf("workers=%d: verdict split differs: mbr %d/%d if %d/%d",
				workers, par.MBRSettled, seq.MBRSettled, par.IFSettled, seq.IFSettled)
		}
	}
}

// TestParallelStageTimers: the parallel sweep must populate the stage
// timers (they were zero before the obs rebuild) with the same
// invariants as the serial path.
func TestParallelStageTimers(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := RunFindRelationParallelCtx(context.Background(), core.PC, pairs, 4, nil)
	if par.FilterTime <= 0 {
		t.Errorf("parallel FilterTime = %v, must be populated", par.FilterTime)
	}
	if par.Undetermined > 0 && par.RefineTime <= 0 {
		t.Errorf("parallel RefineTime = %v with %d refinements", par.RefineTime, par.Undetermined)
	}
	if par.MBRSettled+par.IFSettled+par.Undetermined != par.Pairs {
		t.Errorf("verdicts %d+%d+%d do not sum to %d pairs",
			par.MBRSettled, par.IFSettled, par.Undetermined, par.Pairs)
	}
}

func TestParallelSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single CPU")
	}
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	// OP2 refines everything, so it parallelizes near-linearly; allow a
	// loose bound to keep the test robust on loaded machines. One pass over
	// the combo takes about a millisecond, too short to time against
	// scheduler noise, so the pair list is repeated until a sequential
	// sweep takes tens of milliseconds, and each side keeps its best of
	// several trials.
	work := pairs
	for {
		seq, _ := RunFindRelationParallelCtx(context.Background(), core.OP2, work, 1, nil)
		if seq.Elapsed >= 30*time.Millisecond {
			break
		}
		work = slices.Concat(work, pairs)
	}
	best := func(workers int) time.Duration {
		b := time.Duration(math.MaxInt64)
		for trial := 0; trial < 5; trial++ {
			st, _ := RunFindRelationParallelCtx(context.Background(), core.OP2, work, workers, nil)
			b = min(b, st.Elapsed)
		}
		return b
	}
	seq, par := best(1), best(0)
	if par >= seq {
		t.Errorf("no speedup over %d pairs: sequential %v, parallel %v", len(work), seq, par)
	}
}

// TestParallelCtxVisit: the visitor sees every pair exactly once and the
// visited results agree with the serial sweep.
func TestParallelCtxVisit(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	visited := make([]int32, len(pairs))
	st, err := RunFindRelationParallelCtx(context.Background(), core.PC, pairs, 4,
		func(i int, res core.Result) { atomic.AddInt32(&visited[i], 1) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != len(pairs) {
		t.Fatalf("Pairs = %d, want %d", st.Pairs, len(pairs))
	}
	for i, n := range visited {
		if n != 1 {
			t.Fatalf("pair %d visited %d times", i, n)
		}
	}
}

// TestParallelCtxCancelled: a cancelled sweep must stop early, return the
// context error, and report only the pairs it actually evaluated.
func TestParallelCtxCancelled(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	st, err := RunFindRelationParallelCtx(ctx, core.PC, pairs, 2,
		func(i int, res core.Result) {
			if seen.Add(1) == 4 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if st.Pairs >= len(pairs) {
		t.Fatalf("cancelled sweep evaluated all %d pairs", st.Pairs)
	}
	if got := st.MBRSettled + st.IFSettled + st.Undetermined; got != st.Pairs {
		t.Fatalf("verdicts %d do not sum to evaluated pairs %d", got, st.Pairs)
	}

	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	st, err = RunFindRelationParallelCtx(pre, core.PC, pairs, 4, nil)
	if !errors.Is(err, context.Canceled) || st.Pairs != 0 {
		t.Fatalf("pre-cancelled sweep: pairs=%d err=%v", st.Pairs, err)
	}
}

func TestParallelEmptyAndTiny(t *testing.T) {
	st, _ := RunFindRelationParallelCtx(context.Background(), core.PC, nil, 4, nil)
	if st.Pairs != 0 || st.Undetermined != 0 {
		t.Errorf("empty input: %+v", st)
	}
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	one := pairs[:1]
	st, _ = RunFindRelationParallelCtx(context.Background(), core.PC, one, 8, nil)
	if st.Pairs != 1 {
		t.Errorf("single pair: %+v", st)
	}
}

// TestParallelPanicIsolated: a pair whose evaluation panics (here: a
// poisoned object with nil geometry forced into refinement) must come
// back as a *PanicError — not a process crash, not a deadlocked
// wg.Wait — and every healthy pair must still be evaluated.
func TestParallelPanicIsolated(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := RunFindRelationParallelCtx(context.Background(), core.OP2, pairs, 4, nil)

	poisoned := make([]Pair, len(pairs))
	copy(poisoned, pairs)
	// A fresh Object (never copy one: it caches its Prepared behind a
	// sync.Once) with the same filter inputs but no geometry: OP2 always
	// refines, and refining a nil polygon panics.
	bad := &core.Object{ID: pairs[3].R.ID, MBR: pairs[3].R.MBR, Approx: pairs[3].R.Approx}
	poisoned[3] = Pair{R: bad, S: pairs[3].S}

	st, err := RunFindRelationParallelCtx(context.Background(), core.OP2, poisoned, 4, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Count != 1 || pe.Index != 3 {
		t.Fatalf("PanicError = count %d index %d, want 1/3", pe.Count, pe.Index)
	}
	if pe.Value == nil || pe.Stack == "" {
		t.Fatalf("PanicError missing evidence: value=%v stack %d bytes", pe.Value, len(pe.Stack))
	}
	if st.Pairs != clean.Pairs-1 {
		t.Fatalf("swept %d pairs, want %d (all but the poisoned one)", st.Pairs, clean.Pairs-1)
	}

	// Several poisoned pairs: all recovered, count accumulates.
	for _, i := range []int{0, 5, 9} {
		b := &core.Object{ID: pairs[i].R.ID, MBR: pairs[i].R.MBR, Approx: pairs[i].R.Approx}
		poisoned[i] = Pair{R: b, S: pairs[i].S}
	}
	_, err = RunFindRelationParallelCtx(context.Background(), core.OP2, poisoned, 4, nil)
	if !errors.As(err, &pe) || pe.Count != 4 {
		t.Fatalf("4 poisoned pairs: err = %v", err)
	}
}
