package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// PanicError reports pairs whose evaluation panicked during a parallel
// sweep. Panics are recovered at pair granularity: the poisonous pair
// is abandoned, every other pair is still evaluated, and the sweep
// returns this error instead of crashing the process (before the
// barrier existed, one malformed geometry took down the whole worker
// pool — and with it the server). Stats cover only settled pairs.
type PanicError struct {
	// Index is the pair index of the first recovered panic; Value and
	// Stack are its panic value and goroutine stack.
	Index int
	Value any
	Stack string
	// Count is the total number of pairs that panicked in the sweep.
	Count int
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("harness: %d pair(s) panicked during sweep (first: pair %d: %v)",
		e.Count, e.Index, e.Value)
}

// An Op evaluates pair i of a sweep through one of the operations its
// worker's sweeper offers — FindRelation, RelatePred or RelateMask — and
// keeps whatever answer its caller wants; ops run concurrently on all
// workers. An op may skip a pair by evaluating nothing: a skipped pair
// is neither counted nor traced.
type Op func(w *Worker, i int)

// Worker is one sweep worker, handed to the Op with every pair: a
// core.Sweeper, whose pooled scratch and timed refiner serve all three
// operations, feeding the worker's partial stats.
type Worker struct {
	*core.Sweeper
	sink statsSink
}

// Tally is one request's share of a sweep that serves several requests
// at once, as the relate batcher's does: its settled and refined pair
// counts, its panicked pairs, its slowest pair, and the trace span its
// pair spans hang under. The engine updates it from the workers under
// its lock; read it after Sweep returns.
type Tally struct {
	Span *trace.Span

	mu           sync.Mutex
	Pairs        int
	Refined      int
	Panics       int
	SlowPair     Pair
	SlowPairTime time.Duration
}

func (t *Tally) settle(p Pair, v core.Verdict, d time.Duration) {
	t.mu.Lock()
	t.Pairs++
	if v == core.VerdictRefine {
		t.Refined++
	}
	if d > t.SlowPairTime {
		t.SlowPair, t.SlowPairTime = p, d
	}
	t.mu.Unlock()
}

func (t *Tally) panicked() {
	t.mu.Lock()
	t.Panics++
	t.mu.Unlock()
}

// Sweep is the parallel sweep engine behind every filter→refine pass of
// the repo — find-relation, relate_p and mask; joins and batched relate
// probes. It runs op over the pairs on a worker pool, as in the parallel
// in-memory join evaluation the paper builds on (Tsitsigkos et al.,
// SIGSPATIAL 2019). Pairs are claimed in chunks from an atomic cursor so
// stragglers (high-complexity refinements) do not imbalance the workers.
// workers <= 0 selects GOMAXPROCS.
//
// The engine owns everything around the op:
//   - cancellation: workers re-check ctx at every chunk claim, so a
//     cancelled sweep stops within one chunk per worker and returns
//     ctx's error;
//   - panic isolation: each pair runs behind a recover barrier, and the
//     sweep returns a *PanicError once every other pair is done;
//   - stats: each worker keeps a private MethodStats fed by its
//     sweeper's events, merged after the pool drains — so FilterTime
//     and RefineTime are CPU time summed across workers, not wall
//     clock, and Pairs counts only the pairs that settled;
//   - forensics: the slowest pair, and with a sampled trace in ctx one
//     sweep.worker span per worker carrying pair spans with their
//     filter/refine stage children.
//
// tally, when non-nil, names the request each pair belongs to in a
// sweep serving several: that pair's counts, panic and slowness also go
// to its Tally, and its pair span hangs under the Tally's span instead
// of a worker span.
func Sweep(ctx context.Context, pairs []Pair, workers int, tally func(i int) *Tally, op Op) (MethodStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(pairs)))
	const chunk = 16

	var cursor atomic.Int64
	partial := make([]MethodStats, workers)

	// First recovered panic wins the detail slot; the rest just count.
	var pmu sync.Mutex
	var perr *PanicError

	start := time.Now()
	var wg sync.WaitGroup
	for n := range partial {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &Worker{sink: statsSink{st: &partial[n]}}
			w.Sweeper = core.NewSweeper(&w.sink)
			defer w.Release()
			// With tracing off or unsampled, wsp is nil and every span
			// call below is a pointer check.
			wsp := trace.FromContext(ctx).Child("sweep.worker")
			wsp.SetInt("worker", int64(n))
			swept := 0
			for {
				lo := int(cursor.Add(chunk)) - chunk
				if lo >= len(pairs) {
					break
				}
				hi := min(lo+chunk, len(pairs))
				if ctx.Err() != nil {
					continue // keep claiming to drain the cursor fast
				}
				for i := lo; i < hi; i++ {
					var t *Tally
					if tally != nil {
						t = tally(i)
					}
					w.sink.begin()
					if pv, stack := w.eval(op, i); pv != nil {
						pmu.Lock()
						if perr == nil {
							perr = &PanicError{Index: i, Value: pv, Stack: stack}
						}
						perr.Count++
						pmu.Unlock()
						if t != nil {
							t.panicked()
						}
						continue
					}
					d, ok := w.sink.settled()
					if !ok {
						continue
					}
					w.sink.st.Pairs++
					noteSlow(w.sink.st, i, d)
					parent := wsp
					if t != nil {
						t.settle(pairs[i], w.sink.lastVerdict, d)
						parent = t.Span
					}
					recordPairSpan(parent, i, pairs[i], &w.sink, d)
				}
				swept += hi - lo
			}
			wsp.SetInt("pairs", int64(swept))
			wsp.End()
		}()
	}
	wg.Wait()
	st := MethodStats{Elapsed: time.Since(start)}
	for _, p := range partial {
		st.merge(p)
	}
	if perr != nil {
		return st, perr
	}
	return st, ctx.Err()
}

// eval runs op on pair i behind the recover barrier: a panic —
// degenerate geometry, a bug in a pipeline stage, a fault injected by a
// test — is captured and returned instead of unwinding through the
// worker and killing the process.
func (w *Worker) eval(op Op, i int) (pv any, stack string) {
	defer func() {
		if r := recover(); r != nil {
			pv = r
			stack = string(debug.Stack())
		}
	}()
	op(w, i)
	return nil, ""
}

// recordPairSpan retroactively attaches one pair span (with its
// filter/refine stage children) under parent, reusing the durations the
// sweeper already measured — no extra clock reads on the unsampled
// path, one on the sampled path. No-op when parent is not recording or
// the trace's span budget is spent.
func recordPairSpan(parent *trace.Span, idx int, p Pair, sink *statsSink, total time.Duration) {
	if !parent.Recording() {
		return
	}
	end := time.Now()
	ps := parent.ChildAt("pair", end.Add(-total), total)
	if ps == nil {
		return
	}
	ps.SetInt("index", int64(idx))
	ps.SetInt("r_id", int64(p.R.ID))
	ps.SetInt("s_id", int64(p.S.ID))
	ps.SetStr("verdict", sink.lastVerdict.String())
	// Stage spans: filter ran first, refinement (when any) last.
	ps.ChildAt("filter", end.Add(-total), sink.lastFilter)
	if sink.lastRefine > 0 {
		ps.ChildAt("refine", end.Add(-sink.lastRefine), sink.lastRefine)
	}
}

// RunFindRelationParallelCtx sweeps method m over the pairs on the
// engine (see Sweep), with per-request cancellation and an optional
// per-pair visitor. The returned stats cover only the pairs actually
// evaluated (Pairs is reduced accordingly); a non-nil error is either a
// *PanicError (some pairs' evaluation panicked; the rest were still
// swept) or ctx's error. visit, when non-nil, is called concurrently
// from the workers with the pair index and its result; it must be safe
// for concurrent use.
func RunFindRelationParallelCtx(ctx context.Context, m core.Method, pairs []Pair, workers int, visit func(i int, res core.Result)) (MethodStats, error) {
	st, err := Sweep(ctx, pairs, workers, nil, func(w *Worker, i int) {
		res := w.FindRelation(m, pairs[i].R, pairs[i].S)
		w.sink.st.Relations[res.Relation]++
		if visit != nil {
			visit(i, res)
		}
	})
	st.Method = m
	return st, err
}
