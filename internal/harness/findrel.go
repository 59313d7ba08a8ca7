package harness

import (
	"time"

	"repro/internal/core"
	"repro/internal/de9im"
	"repro/internal/obs"
)

// MethodStats aggregates one find-relation sweep of a method over a pair
// workload. It is built on the observed pipeline path: each pair's
// filter and refinement stages are timed separately at the source, so
// FilterTime no longer mis-attributes the filter work of refined pairs
// to RefineTime (the accounting Fig. 8b depends on).
type MethodStats struct {
	Method       core.Method
	Pairs        int
	MBRSettled   int // pairs settled by the MBR filter alone
	IFSettled    int // pairs settled by the intermediate filter
	Undetermined int // pairs that needed DE-9IM refinement (Fig. 7b)
	Elapsed      time.Duration
	// FilterTime and RefineTime are sums of per-pair stage durations; in
	// the parallel sweep they aggregate CPU time across workers and so
	// exceed Elapsed. Elapsed additionally covers loop overhead, so
	// FilterTime+RefineTime <= Elapsed per worker.
	FilterTime time.Duration // MBR + intermediate filter time
	RefineTime time.Duration // DE-9IM time
	// Relations tallies find-relation results; relate_p and mask sweeps
	// leave it zero.
	Relations [de9im.NumRelations]int
	// SlowPair is the index (into the sweep's pair slice) of the pair
	// with the largest filter+refine time, the seed of the slow-query
	// forensics; only meaningful when SlowPairTime > 0.
	SlowPair     int
	SlowPairTime time.Duration
}

// Throughput returns processed pairs per second (Fig. 7a's metric).
func (s MethodStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Pairs) / s.Elapsed.Seconds()
}

// UndeterminedPct returns the percentage of pairs requiring refinement.
func (s MethodStats) UndeterminedPct() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return 100 * float64(s.Undetermined) / float64(s.Pairs)
}

// merge accumulates another partial sweep (e.g. one worker's share) into
// s. Elapsed is deliberately not merged: wall clock is the caller's.
func (s *MethodStats) merge(o MethodStats) {
	s.Pairs += o.Pairs
	s.MBRSettled += o.MBRSettled
	s.IFSettled += o.IFSettled
	s.Undetermined += o.Undetermined
	s.FilterTime += o.FilterTime
	s.RefineTime += o.RefineTime
	if o.SlowPairTime > s.SlowPairTime {
		s.SlowPair, s.SlowPairTime = o.SlowPair, o.SlowPairTime
	}
	for i, n := range o.Relations {
		s.Relations[i] += n
	}
}

// Publish adds the sweep's counters to reg under prefix, labeled with
// the method: verdict counts, relation tallies, and stage nanoseconds.
func (s MethodStats) Publish(reg *obs.Registry, prefix string) {
	method := s.Method.String()
	reg.Counter(obs.Name(prefix+"_pairs_total", "method", method)).Add(int64(s.Pairs))
	reg.Counter(obs.Name(prefix+"_verdict_total", "method", method, "stage", core.VerdictMBR.String())).Add(int64(s.MBRSettled))
	reg.Counter(obs.Name(prefix+"_verdict_total", "method", method, "stage", core.VerdictIF.String())).Add(int64(s.IFSettled))
	reg.Counter(obs.Name(prefix+"_verdict_total", "method", method, "stage", core.VerdictRefine.String())).Add(int64(s.Undetermined))
	reg.Counter(obs.Name(prefix+"_filter_ns_total", "method", method)).Add(int64(s.FilterTime))
	reg.Counter(obs.Name(prefix+"_refine_ns_total", "method", method)).Add(int64(s.RefineTime))
	for rel, n := range s.Relations {
		if n != 0 {
			reg.Counter(obs.Name(prefix+"_relation_total", "method", method, "relation", de9im.Relation(rel).String())).Add(int64(n))
		}
	}
}

// statsSink accumulates observed pipeline events into a MethodStats
// (all but Relations, which only find-relation events carry).
// It is not safe for concurrent use: the parallel sweep gives each
// worker its own and merges afterwards. The last* fields replay the
// most recent event to the sweep loop — which, unlike the sink, knows
// the pair index — so slow-pair tracking and retroactive trace spans
// reuse the pipeline's own stage timings instead of reading the clock
// again.
type statsSink struct {
	st          *MethodStats
	lastVerdict core.Verdict
	lastFilter  time.Duration // -1 between begin() and the next event
	lastRefine  time.Duration
}

// begin marks the next evaluation pending, so a panicking pair (which
// emits no event) is not confused with the previous pair's timings.
func (k *statsSink) begin() { k.lastFilter, k.lastRefine = -1, 0 }

// settled reports whether the evaluation since begin() produced an
// event, and if so that pair's total stage time.
func (k *statsSink) settled() (time.Duration, bool) {
	if k.lastFilter < 0 {
		return 0, false
	}
	return k.lastFilter + k.lastRefine, true
}

func (k *statsSink) ObservePair(_ core.Method, _ core.Result, v core.Verdict, filter, refine time.Duration) {
	switch v {
	case core.VerdictMBR:
		k.st.MBRSettled++
	case core.VerdictIF:
		k.st.IFSettled++
	default:
		k.st.Undetermined++
	}
	k.st.FilterTime += filter
	k.st.RefineTime += refine
	k.lastVerdict, k.lastFilter, k.lastRefine = v, filter, refine
}

// noteSlow folds one settled pair into the stats' slow-pair slot.
func noteSlow(st *MethodStats, idx int, d time.Duration) {
	if d > st.SlowPairTime {
		st.SlowPair, st.SlowPairTime = idx, d
	}
}

// RunFindRelation sweeps method m over the pairs through the observed
// pipeline, timing the filter and refinement stages separately at the
// pair level (Fig. 8b reports them split). The sweep runs on a
// core.Sweeper, so the steady state allocates nothing per pair.
func RunFindRelation(m core.Method, pairs []Pair) MethodStats {
	st := MethodStats{Method: m, Pairs: len(pairs)}
	sink := &statsSink{st: &st}
	sweep := core.NewSweeper(sink)
	defer sweep.Release()
	start := time.Now()
	for i, p := range pairs {
		sink.begin()
		res := sweep.FindRelation(m, p.R, p.S)
		st.Relations[res.Relation]++
		if d, ok := sink.settled(); ok {
			noteSlow(&st, i, d)
		}
	}
	st.Elapsed = time.Since(start)
	return st
}

// UniqueObjectsRefined counts how many distinct objects of each side had
// their exact geometry accessed (refined pairs touch both geometries):
// the data-access saving reported in Sec. 4.3.
func UniqueObjectsRefined(m core.Method, pairs []Pair) (left, right int) {
	ls := make(map[int]bool)
	rs := make(map[int]bool)
	for _, p := range pairs {
		if core.FindRelation(m, p.R, p.S).Refined {
			ls[p.R.ID] = true
			rs[p.S.ID] = true
		}
	}
	return len(ls), len(rs)
}
