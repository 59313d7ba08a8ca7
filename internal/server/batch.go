package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/join"
	"repro/internal/obs"
)

// probeMode selects what a relate probe evaluates per candidate.
type probeMode uint8

const (
	modeFind probeMode = iota // most specific relation (Algorithm 1)
	modePred                  // relate_p predicate
	modeMask                  // arbitrary DE-9IM mask
)

// probeJob is one relate probe in flight through the batcher. The
// dispatcher always delivers exactly one probeResult on done (buffered),
// even after the job's context expires, so neither side can leak.
type probeJob struct {
	ctx   context.Context
	entry *Entry
	probe *core.Object

	mode   probeMode
	method core.Method
	pred   de9im.Relation
	mask   de9im.Mask
	limit  int
	// owns, when non-nil, is the shard-mode ownership filter: probe ×
	// candidate combinations whose reference point lies outside the
	// serving shard's key range are dropped before evaluation (another
	// shard, also holding both geometries, answers them).
	owns func(probe, cand geom.MBR) bool

	// tally is the probe's share of the batch sweep: evaluated and
	// refined counts, panics, slowest candidate. Its Span is the
	// request's trace root, under which the probe's pair spans hang —
	// relate has no worker level worth showing.
	tally harness.Tally

	mu        sync.Mutex
	matches   []RelateMatch
	truncated bool

	candidates int
	batchSize  int
	done       chan error
}

func (j *probeJob) addMatch(m RelateMatch) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.matches) >= j.limit {
		j.truncated = true
		return
	}
	j.matches = append(j.matches, m)
}

// eval is the batcher's operation on one candidate of the probe: skip it
// once the probe's deadline has passed, otherwise evaluate the probe's
// mode on the worker's sweeper and keep a match.
func (j *probeJob) eval(w *harness.Worker, obj *core.Object) {
	if j.ctx.Err() != nil {
		return // expired probe: skip its remaining work
	}
	switch j.mode {
	case modePred:
		if w.RelatePred(j.method, j.probe, obj, j.pred).Holds {
			j.addMatch(RelateMatch{ID: obj.ID, Relation: j.pred.String()})
		}
	case modeMask:
		if w.RelateMask(j.method, j.probe, obj, j.mask).Holds {
			j.addMatch(RelateMatch{ID: obj.ID})
		}
	default: // modeFind
		if res := w.FindRelation(j.method, j.probe, obj); res.Relation != de9im.Disjoint {
			j.addMatch(RelateMatch{ID: obj.ID, Relation: res.Relation.String()})
		}
	}
}

// batcher micro-batches concurrent relate probes: jobs arriving within
// batchWindow of each other (up to maxBatch) are grouped, jobs against
// the same dataset are flattened into one (probe × candidate) task list,
// and the whole group is one pass of the parallel sweep engine
// (harness.Sweep) — so N concurrent probes cost one pool pass, not N
// goroutine fan-outs. A lone request pays at most batchWindow of extra
// latency; under load the channel is never empty and the window barely
// waits.
type batcher struct {
	jobs     chan *probeJob
	window   time.Duration
	maxBatch int
	workers  int

	batches   *obs.Counter
	batchSize *obs.Histogram
	// onPanic records a batch sweep's recovered panics and the first
	// panicked pair (counter + repro dump).
	onPanic func(pe *harness.PanicError, first harness.Pair)
}

func newBatcher(window time.Duration, maxBatch, workers int, met *obs.Registry,
	onPanic func(pe *harness.PanicError, first harness.Pair)) *batcher {
	return &batcher{
		jobs:     make(chan *probeJob, maxBatch),
		window:   window,
		maxBatch: maxBatch,
		workers:  workers,
		batches:  met.Counter("server_relate_batches_total"),
		batchSize: met.Histogram("server_relate_batch_size",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		onPanic: onPanic,
	}
}

// run is the dispatcher loop; it exits when ctx is cancelled, failing
// any jobs still queued so their handlers unblock immediately.
func (b *batcher) run(ctx context.Context) {
	for {
		var first *probeJob
		select {
		case <-ctx.Done():
			b.drainFailed(ctx)
			return
		case first = <-b.jobs:
		}
		batch := []*probeJob{first}
		timer := time.NewTimer(b.window)
	collect:
		for len(batch) < b.maxBatch {
			select {
			case j := <-b.jobs:
				batch = append(batch, j)
			case <-timer.C:
				break collect
			case <-ctx.Done():
				break collect
			}
		}
		timer.Stop()
		b.process(batch)
	}
}

func (b *batcher) drainFailed(ctx context.Context) {
	for {
		select {
		case j := <-b.jobs:
			j.done <- context.Cause(ctx)
		default:
			return
		}
	}
}

// process groups the batch by dataset and sweeps each group in one
// engine pass over the flattened (probe, candidate) tasks.
func (b *batcher) process(batch []*probeJob) {
	b.batches.Inc()
	groups := make(map[*Entry][]*probeJob)
	for _, j := range batch {
		groups[j.entry] = append(groups[j.entry], j)
	}
	for _, jobs := range groups {
		b.batchSize.Observe(float64(len(jobs)))
		b.processGroup(jobs)
	}
}

func (b *batcher) processGroup(jobs []*probeJob) {
	var tasks []harness.Pair
	var owners []*probeJob
	for _, j := range jobs {
		j.batchSize = len(jobs)
		// All candidates come from the entry's merged epoch view: the
		// base tree minus tombstones plus the delta side tree. The group
		// key is the entry pointer, so the whole group shares one epoch.
		view := j.entry.View()
		err := view.QueryContext(j.ctx, j.probe.MBR, func(delta bool, e join.Entry) {
			if j.owns != nil && !j.owns(j.probe.MBR, e.Box) {
				return
			}
			tasks = append(tasks, harness.Pair{R: j.probe, S: j.entry.objAt(delta, e.ID)})
			owners = append(owners, j)
			j.candidates++
		})
		if err != nil {
			j.done <- err
			j.candidates = -1 // sentinel: already answered
			continue
		}
	}
	live := jobs[:0]
	for _, j := range jobs {
		if j.candidates >= 0 {
			live = append(live, j)
		}
	}
	if len(tasks) > 0 {
		// One engine pass over every probe's candidates; the batch has no
		// deadline of its own, each probe's is checked by its operation.
		_, err := harness.Sweep(context.Background(), tasks, b.workers,
			func(i int) *harness.Tally { return &owners[i].tally },
			func(w *harness.Worker, i int) { owners[i].eval(w, tasks[i].S) })
		var pe *harness.PanicError
		if errors.As(err, &pe) {
			b.onPanic(pe, tasks[pe.Index])
		}
	}
	for _, j := range live {
		switch {
		case j.ctx.Err() != nil:
			j.done <- j.ctx.Err()
		case j.tally.Panics > 0:
			// Only the probes whose candidate evaluation panicked fail;
			// the rest of the batch answers normally.
			j.done <- errf(http.StatusInternalServerError,
				"evaluation panicked on %d candidate(s); repro dumped, see server log",
				j.tally.Panics)
		default:
			j.done <- nil
		}
	}
}
