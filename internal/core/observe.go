package core

import (
	"time"

	"repro/internal/de9im"
	"repro/internal/mbrrel"
	"repro/internal/obs"
)

// Verdict identifies which pipeline stage settled a pair — the unit of
// the paper's cost accounting (Fig. 7b counts refinements, Fig. 8b
// splits stage time).
type Verdict uint8

// The pipeline stages, in evaluation order.
const (
	// VerdictMBR: the MBR filter alone settled the pair (disjoint MBRs
	// or a definite Fig. 4 case).
	VerdictMBR Verdict = iota
	// VerdictIF: the intermediate filter settled the pair from the
	// interval lists, without touching exact geometry.
	VerdictIF
	// VerdictRefine: the pair was undetermined after all filters and the
	// DE-9IM matrix had to be computed.
	VerdictRefine
	numVerdicts
)

// NumVerdicts is the number of pipeline stages that can settle a pair.
const NumVerdicts = int(numVerdicts)

func (v Verdict) String() string {
	switch v {
	case VerdictMBR:
		return "mbr"
	case VerdictIF:
		return "if"
	case VerdictRefine:
		return "refine"
	default:
		return "unknown"
	}
}

// PipelineSink receives one event per pair evaluated by the observed
// find-relation path or a Sweeper: the settled result, the stage that
// settled it, and the measured filter and refinement durations (filter
// excludes refinement; their sum is the pair's total). Implementations
// used from the parallel sweep must either be confined to one worker or
// be safe for concurrent use (PipelineMetrics is).
type PipelineSink interface {
	ObservePair(m Method, res Result, v Verdict, filter, refine time.Duration)
}

// NopSink is a PipelineSink that discards every event — the benchmark
// baseline for measuring the observed path's intrinsic overhead.
type NopSink struct{}

// ObservePair implements PipelineSink.
func (NopSink) ObservePair(Method, Result, Verdict, time.Duration, time.Duration) {}

// SinkFunc adapts a function to PipelineSink, for call sites (request
// tracing, ad-hoc accounting) that don't warrant a named type.
type SinkFunc func(m Method, res Result, v Verdict, filter, refine time.Duration)

// ObservePair implements PipelineSink.
func (f SinkFunc) ObservePair(m Method, res Result, v Verdict, filter, refine time.Duration) {
	f(m, res, v, filter, refine)
}

// verdictOf classifies a settled result: refined pairs report
// VerdictRefine; unrefined pairs were settled either by the MBR filter
// (disjoint or definite case) or, failing that, by the intermediate
// filter.
func verdictOf(res Result) Verdict {
	if res.Refined {
		return VerdictRefine
	}
	if res.Case == mbrrel.DisjointMBRs {
		return VerdictMBR
	}
	if _, ok := mbrrel.Definite(res.Case); ok {
		return VerdictMBR
	}
	return VerdictIF
}

// FindRelationObserved is FindRelation with per-pair telemetry delivered
// to sink. A nil sink short-circuits to the plain path, so call sites
// can stay instrumented permanently at the cost of one comparison.
func FindRelationObserved(m Method, r, s *Object, sink PipelineSink) Result {
	return FindRelationObservedWith(m, r, s, Refine, sink)
}

// FindRelationObservedWith is FindRelationObserved with a custom
// refinement step. The refiner is timed separately from the filter
// stages, fixing the classic attribution mistake of charging a refined
// pair's filter time to refinement: filter = total − refine, measured
// per pair, regardless of how many filters ran before the verdict.
func FindRelationObservedWith(m Method, r, s *Object, refine Refiner, sink PipelineSink) Result {
	if sink == nil {
		return FindRelationWith(m, r, s, refine)
	}
	sw := obs.NewStopwatch()
	var refineTime time.Duration
	timed := func(a, b *Object) de9im.Matrix {
		t0 := time.Now()
		mat := refine(a, b)
		refineTime += time.Since(t0)
		return mat
	}
	res := FindRelationWith(m, r, s, timed)
	total := sw.Lap()
	sink.ObservePair(m, res, verdictOf(res), total-refineTime, refineTime)
	return res
}

// PipelineMetrics is the standard registry-backed PipelineSink: verdict
// counters that sum to the pair total, per-relation tallies, and
// per-stage latency histograms, all registered under prefix. Safe for
// concurrent use.
type PipelineMetrics struct {
	Pairs     *obs.Counter
	Verdicts  [NumVerdicts]*obs.Counter
	Relations [de9im.NumRelations]*obs.Counter
	// FilterSeconds observes every pair's filter-stage time;
	// RefineSeconds only pairs that refined.
	FilterSeconds *obs.Histogram
	RefineSeconds *obs.Histogram
}

// NewPipelineMetrics registers the pipeline metric family under prefix
// (e.g. "pipeline" -> pipeline_pairs_total,
// pipeline_verdict_total{stage="..."} ...) and returns the sink.
func NewPipelineMetrics(reg *obs.Registry, prefix string) *PipelineMetrics {
	p := &PipelineMetrics{
		Pairs:         reg.Counter(prefix + "_pairs_total"),
		FilterSeconds: reg.Histogram(prefix+"_filter_seconds", obs.DurationBuckets),
		RefineSeconds: reg.Histogram(prefix+"_refine_seconds", obs.DurationBuckets),
	}
	for v := Verdict(0); v < numVerdicts; v++ {
		p.Verdicts[v] = reg.Counter(obs.Name(prefix+"_verdict_total", "stage", v.String()))
	}
	for rel := de9im.Relation(0); int(rel) < de9im.NumRelations; rel++ {
		p.Relations[rel] = reg.Counter(obs.Name(prefix+"_relation_total", "relation", rel.String()))
	}
	return p
}

// ObservePair implements PipelineSink.
func (p *PipelineMetrics) ObservePair(_ Method, res Result, v Verdict, filter, refine time.Duration) {
	p.Pairs.Inc()
	p.Verdicts[v].Inc()
	p.Relations[res.Relation].Inc()
	p.FilterSeconds.ObserveDuration(filter)
	if v == VerdictRefine {
		p.RefineSeconds.ObserveDuration(refine)
	}
}
