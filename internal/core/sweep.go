package core

import (
	"time"

	"repro/internal/de9im"
)

// Sweeper evaluates many pairs — find-relation, relate_p or a DE-9IM
// mask — through the observed pipeline with zero steady-state
// allocations. FindRelationObservedWith builds a fresh timing closure
// per pair, and the default Refine round-trips a pooled scratch per
// refinement; over a million-pair sweep both are pure overhead. A
// Sweeper binds the timed refiner and one noding scratch once, so the
// sweep loop's only work is the pipeline itself.
//
// Every evaluation delivers one event to the sweeper's sink: the
// settling stage and the filter/refine durations, with filter = total −
// refine. FindRelation's event carries its Result; the relate_p and mask
// events carry only Result.Refined, their answer being the return value.
//
// A Sweeper is not safe for concurrent use: parallel sweeps give each
// worker its own, and Release hands its scratch back to the pool the
// default Refine draws from, so short sweeps start warm.
type Sweeper struct {
	sink       PipelineSink
	sc         *de9im.Scratch
	refineTime time.Duration
	timed      Refiner // bound once to timedRefine
}

// NewSweeper returns a sweeper reporting per-pair events to sink (use
// NopSink to discard them).
func NewSweeper(sink PipelineSink) *Sweeper {
	sw := &Sweeper{sink: sink, sc: refineScratch.Get().(*de9im.Scratch)}
	sw.timed = sw.timedRefine
	return sw
}

// Release returns the sweeper's scratch to the shared pool. The sweeper
// must not be used afterwards.
func (sw *Sweeper) Release() {
	refineScratch.Put(sw.sc)
	sw.sc = nil
}

// monoBase anchors mono.
var monoBase = time.Now()

// mono reads the monotonic clock alone: one clock read where time.Now
// takes two (wall and monotonic), which matters at two reads per pair
// on pairs the filters settle in well under a microsecond.
func mono() time.Duration { return time.Since(monoBase) }

// timedRefine is the sweeper's refinement step: the objects' cached
// Prepared structures plus the sweeper's own scratch, with the stage
// time accumulated for the sink.
func (sw *Sweeper) timedRefine(r, s *Object) de9im.Matrix {
	t0 := mono()
	m := de9im.RelateScratch(r.Prepared(), s.Prepared(), sw.sc)
	sw.refineTime += mono() - t0
	return m
}

// start opens one pair's measurement.
func (sw *Sweeper) start() time.Duration {
	sw.refineTime = 0
	return mono()
}

// observe closes the pair's measurement and delivers its event.
func (sw *Sweeper) observe(m Method, start time.Duration, res Result, v Verdict) {
	total := mono() - start
	sw.sink.ObservePair(m, res, v, total-sw.refineTime, sw.refineTime)
}

// FindRelation evaluates one pair through pipeline m, delivering the
// same event FindRelationObserved would.
func (sw *Sweeper) FindRelation(m Method, r, s *Object) Result {
	start := sw.start()
	res := FindRelationWith(m, r, s, sw.timed)
	sw.observe(m, start, res, verdictOf(res))
	return res
}

// RelatePred answers relate_p for one pair, as RelatePred does.
func (sw *Sweeper) RelatePred(m Method, r, s *Object, pred de9im.Relation) RelateResult {
	start := sw.start()
	rr, v := relatePred(m, r, s, pred, sw.timed)
	sw.observe(m, start, Result{Refined: rr.Refined}, v)
	return rr
}

// RelateMask answers a DE-9IM mask query for one pair, as RelateMask
// does.
func (sw *Sweeper) RelateMask(m Method, r, s *Object, mask de9im.Mask) RelateResult {
	start := sw.start()
	rr, v := relateMask(m, r, s, mask, sw.timed)
	sw.observe(m, start, Result{Refined: rr.Refined}, v)
	return rr
}
