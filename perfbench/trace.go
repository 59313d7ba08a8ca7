package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/join"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/wkt"
)

// span is one recorded call into a layer. Spans of one request share
// Req; setup and background work use Req -1.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// tracer keeps spans in memory. Off, it records nothing and reads no
// clock, so a replay with it off measures the replay's own cost.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// open starts a span under parent and returns its id (-1 when off).
func (t *tracer) open(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// close ends span id.
func (t *tracer) close(id int) {
	if id >= 0 {
		t.spans[id].Dur = time.Since(t.t0) - t.spans[id].Start
	}
}

// leaf records a finished span whose duration was measured elsewhere
// (a pipeline sink, a worker's sum).
func (t *tracer) leaf(name string, parent, req int, dur time.Duration) {
	if t.on {
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
			Start: time.Since(t.t0) - dur, Dur: dur})
	}
}

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

// layerCounts accumulates the work counts the replay observes.
type layerCounts struct {
	parses, builds, buildBytes, buildObjs int
	parseT, buildT                        time.Duration
	prepares                              int
	prepareT                              time.Duration
	pairs, findPairs, ifSettled, refined  int
	filterT, refineT                      time.Duration
	snapshots                             int
	snapshotT                             time.Duration
	efficiency                            []float64
	walBytes, userBytes                   int64
	mutations                             int
	mutateT                               time.Duration
	compactions                           int
	compactT                              time.Duration
}

// replayer re-runs a workload's request stream in-process, calling the
// public function of each layer in the order the daemon's handler does.
type replayer struct {
	b        *bench
	m        *e2e
	tr       *tracer
	reg      *server.Registry
	dir      string
	prepared map[*core.Object]bool
	scratch  de9im.Scratch
	n        layerCounts
	// serverPart is, per replayed request, the time of the layers the
	// daemon's elapsed_ms covers (candidate generation and evaluation).
	serverPart map[int]time.Duration
}

// setup mirrors the daemon's start: parse the WKT files, register the
// datasets (approximations, R-trees, snapshots). Each object's APRIL
// build and each dataset's snapshot are additionally timed on their
// own, in a separate pass, since Register does both internally.
func (r *replayer) setup() error {
	r.reg = server.NewRegistry(datagen.Space(), datagen.DefaultOrder)
	if err := r.reg.EnableSnapshots(filepath.Join(r.dir, "snapshots")); err != nil {
		return err
	}
	if r.b.workload == "ingest" {
		// Compactions are issued by the replay itself, after the same
		// number of mutations as the daemon's threshold.
		r.reg.SetCompactThreshold(0)
		if err := r.reg.EnableWAL(server.WALOptions{Dir: filepath.Join(r.dir, "wal")}); err != nil {
			return err
		}
	}
	root := r.tr.open("setup", -1, -1)
	defer r.tr.close(root)
	for _, name := range servedSets {
		var polys []*geom.Polygon
		for _, line := range r.b.suite.WKT[name] {
			p, err := r.parse(root, -1, line)
			if err != nil {
				return err
			}
			polys = append(polys, p)
		}
		for _, p := range polys {
			t0 := time.Now()
			ap, err := r.reg.Builder().BuildAdaptive(p)
			if err != nil {
				return err
			}
			d := time.Since(t0)
			r.tr.leaf("april.build", root, -1, d)
			r.n.builds++
			r.n.buildT += d
			r.n.buildObjs++
			r.n.buildBytes += ap.Bytes()
		}
		s := r.tr.open("registry.register", root, -1)
		e, err := r.reg.Register(name, name, polys)
		r.tr.close(s)
		if err != nil {
			return err
		}
		t0 := time.Now()
		grid := r.reg.Builder().Grid()
		err = snapshot.Write(filepath.Join(r.dir, name+".snap"), e.Dataset, grid.Space(), grid.Order())
		d := time.Since(t0)
		if err != nil {
			return err
		}
		r.tr.leaf("snapshot.write", root, -1, d)
		r.n.snapshots++
		r.n.snapshotT += d
	}
	return nil
}

func (r *replayer) parse(parent, req int, text string) (*geom.Polygon, error) {
	t0 := time.Now()
	p, err := wkt.ParsePolygon(text)
	d := time.Since(t0)
	r.tr.leaf("wkt.parse", parent, req, d)
	r.n.parses++
	r.n.parseT += d
	return p, err
}

// prepare builds an object's DE-9IM structures on first use, as its
// first refinement would.
func (r *replayer) prepare(parent, req int, o *core.Object) {
	if r.prepared[o] {
		return
	}
	r.prepared[o] = true
	t0 := time.Now()
	o.Prepared()
	d := time.Since(t0)
	r.tr.leaf("de9im.prepare", parent, req, d)
	r.n.prepares++
	r.n.prepareT += d
}

// objAt resolves a view entry to its object, as the daemon does.
func objAt(e *server.Entry, delta bool, id int32) *core.Object {
	if delta {
		return e.Delta.Objects[id]
	}
	return e.Dataset.Objects[id]
}

// relate replays one relate probe: parse, probe rasterization, the
// candidate query on the epoch view, per-candidate evaluation (prepare,
// filter, refine) and response encoding.
func (r *replayer) relate(req int, o *op) error {
	root := r.tr.open("request", -1, req)
	defer r.tr.close(root)
	poly, err := r.parse(root, req, r.b.suite.WKT["OPE"][o.Probe])
	if err != nil {
		return err
	}
	t0 := time.Now()
	probe, err := r.reg.Probe(poly)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	r.tr.leaf("april.build", root, req, d)
	r.n.builds++
	r.n.buildT += d
	entry, ok := r.reg.Get(o.DS)
	if !ok {
		return fmt.Errorf("replay: no dataset %s", o.DS)
	}
	var part time.Duration
	var cands []*core.Object
	t0 = time.Now()
	err = entry.View().QueryContext(context.Background(), probe.MBR, func(delta bool, e join.Entry) {
		cands = append(cands, objAt(entry, delta, e.ID))
	})
	d = time.Since(t0)
	if err != nil {
		return err
	}
	r.tr.leaf("join.candgen", root, req, d)
	part += d
	resp := server.RelateResponse{Dataset: o.DS, Candidates: len(cands), Evaluated: len(cands), BatchSize: 1,
		Epoch: entry.Epoch, IndexVersion: entry.Version, Matches: []server.RelateMatch{}}
	for _, obj := range cands {
		part += r.evalCandidate(root, req, o.Mode, probe, obj, &resp)
	}
	r.serverPart[req] = part
	s := r.tr.open("server.encode", root, req)
	_, err = json.Marshal(resp)
	r.tr.close(s)
	return err
}

// evalCandidate evaluates one probe-candidate pair the way the relate
// batcher does and returns the time it took.
func (r *replayer) evalCandidate(root, req, mode int, probe, obj *core.Object, resp *server.RelateResponse) time.Duration {
	r.n.pairs++
	switch mode {
	case modeFind:
		var refined time.Duration
		refine := func(a, b *core.Object) de9im.Matrix {
			t0 := time.Now()
			r.prepare(root, req, a)
			r.prepare(root, req, b)
			t1 := time.Now()
			m := de9im.RelateScratch(a.Prepared(), b.Prepared(), &r.scratch)
			d := time.Since(t1)
			r.tr.leaf("de9im.refine", root, req, d)
			r.n.refineT += d
			refined = time.Since(t0)
			return m
		}
		var verdict core.Verdict
		var filter time.Duration
		sink := core.SinkFunc(func(_ core.Method, _ core.Result, v core.Verdict, f, _ time.Duration) {
			verdict, filter = v, f
		})
		res := core.FindRelationObservedWith(core.PC, probe, obj, refine, sink)
		r.tr.leaf("core.filter", root, req, filter)
		r.n.filterT += filter
		r.n.findPairs++
		switch verdict {
		case core.VerdictIF:
			r.n.ifSettled++
		case core.VerdictRefine:
			r.n.refined++
			resp.Refined++
		}
		if res.Relation != de9im.Disjoint {
			resp.Matches = append(resp.Matches, server.RelateMatch{ID: obj.ID, Relation: res.Relation.String()})
		}
		return filter + refined
	default:
		// relate_p and masks take no refiner: a call that refined is
		// charged to refinement (including any first-use prepare inside
		// it), one that did not to the filter.
		t0 := time.Now()
		var rr core.RelateResult
		if mode == modePred {
			rr = core.RelatePred(core.PC, probe, obj, predicate)
		} else {
			rr = core.RelateMask(core.PC, probe, obj, mask)
		}
		d := time.Since(t0)
		if rr.Refined {
			r.prepared[probe], r.prepared[obj] = true, true
			r.tr.leaf("de9im.refine", root, req, d)
			r.n.refineT += d
			r.n.refined++
			resp.Refined++
		} else {
			r.tr.leaf("core.filter", root, req, d)
			r.n.filterT += d
		}
		if rr.Holds {
			resp.Matches = append(resp.Matches, server.RelateMatch{ID: obj.ID})
		}
		return d
	}
}

// joinPairs generates a join kind's candidate pairs on the epoch views.
func (r *replayer) joinPairs(k int) ([]harness.Pair, *server.Entry, *server.Entry, error) {
	left, _ := r.reg.Get(joinKinds[k].Left)
	right, _ := r.reg.Get(joinKinds[k].Right)
	var pairs []harness.Pair
	err := join.JoinViews(context.Background(), left.View(), right.View(), func(aD, bD bool, a, b join.Entry) {
		pairs = append(pairs, harness.Pair{R: objAt(left, aD, a.ID), S: objAt(right, bD, b.ID)})
	})
	return pairs, left, right, err
}

// join replays one join: candidate generation, the parallel sweep on
// GOMAXPROCS workers and response encoding. Filter and refine spans
// carry the workers' summed stage time divided by the worker count, the
// sweep's wall-clock share of it.
func (r *replayer) join(req, k int) error {
	root := r.tr.open("request", -1, req)
	defer r.tr.close(root)
	t0 := time.Now()
	pairs, left, right, err := r.joinPairs(k)
	cand := time.Since(t0)
	if err != nil {
		return err
	}
	r.tr.leaf("join.candgen", root, req, cand)
	workers := runtime.GOMAXPROCS(0)
	resp := server.JoinResponse{Left: joinKinds[k].Left, Right: joinKinds[k].Right, Candidates: len(pairs),
		Evaluated: len(pairs), LeftEpoch: left.Epoch, LeftVersion: left.Version,
		RightEpoch: right.Epoch, RightVersion: right.Version}
	var mu sync.Mutex
	add := func(p server.JoinPair) {
		mu.Lock()
		defer mu.Unlock()
		if len(resp.Pairs) >= 1000 { // the daemon's default limit
			resp.Truncated = true
			return
		}
		resp.Pairs = append(resp.Pairs, p)
	}
	sw := r.tr.open("harness.sweep", root, req)
	t0 = time.Now()
	var filterT, refineT time.Duration
	if joinKinds[k].Mode == modeFind {
		st, err := harness.RunFindRelationParallelCtx(context.Background(), core.PC, pairs, workers,
			func(i int, res core.Result) {
				if res.Relation != de9im.Disjoint {
					add(server.JoinPair{LeftID: pairs[i].R.ID, RightID: pairs[i].S.ID, Relation: res.Relation.String()})
				}
			})
		if err != nil {
			return err
		}
		filterT, refineT = st.FilterTime, st.RefineTime
		r.n.findPairs += st.Pairs
		r.n.ifSettled += st.IFSettled
		r.n.refined += st.Undetermined
		resp.Refined = st.Undetermined
		if st.Elapsed > 0 {
			r.n.efficiency = append(r.n.efficiency, float64(filterT+refineT)/(float64(workers)*float64(st.Elapsed)))
		}
	} else {
		var refined, holds atomic.Int64
		filterT, refineT = sweepRelate(pairs, workers, joinKinds[k].Mode, func(p harness.Pair, rr core.RelateResult) {
			if rr.Refined {
				refined.Add(1)
			}
			if rr.Holds {
				holds.Add(1)
				add(server.JoinPair{LeftID: p.R.ID, RightID: p.S.ID})
			}
		})
		r.n.refined += int(refined.Load())
		resp.Refined, resp.Holds = int(refined.Load()), int(holds.Load())
	}
	sweep := time.Since(t0)
	r.tr.leaf("core.filter", sw, req, filterT/time.Duration(workers))
	r.tr.leaf("de9im.refine", sw, req, refineT/time.Duration(workers))
	r.tr.close(sw)
	r.n.pairs += len(pairs)
	r.n.filterT += filterT
	r.n.refineT += refineT
	r.serverPart[req] = cand + sweep
	s := r.tr.open("server.encode", root, req)
	_, err = json.Marshal(resp)
	r.tr.close(s)
	return err
}

// sweepRelate evaluates relate_p or the mask over pairs on a
// chunk-stealing worker pool, the shape of the daemon's predicate and
// mask join sweep, and returns the summed filter and refine time.
func sweepRelate(pairs []harness.Pair, workers, mode int, visit func(harness.Pair, core.RelateResult)) (filterT, refineT time.Duration) {
	const chunk = 16
	var cursor atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var f, rf time.Duration
			for {
				lo := int(cursor.Add(chunk)) - chunk
				if lo >= len(pairs) {
					break
				}
				hi := min(lo+chunk, len(pairs))
				for _, p := range pairs[lo:hi] {
					t0 := time.Now()
					var rr core.RelateResult
					if mode == modePred {
						rr = core.RelatePred(core.PC, p.R, p.S, predicate)
					} else {
						rr = core.RelateMask(core.PC, p.R, p.S, mask)
					}
					d := time.Since(t0)
					if rr.Refined {
						rf += d
					} else {
						f += d
					}
					visit(p, rr)
				}
			}
			mu.Lock()
			filterT += f
			refineT += rf
			mu.Unlock()
		}()
	}
	wg.Wait()
	return filterT, refineT
}

// write replays one mutation: parse, Registry.MutateKey (validation,
// rasterization, WAL append and fsync, publish) and encoding; every
// ingestCompactThreshold mutations it compacts, as the daemon's
// threshold does in the background.
func (r *replayer) write(req int, o *op) error {
	root := r.tr.open("request", -1, req)
	var poly *geom.Polygon
	if o.Write != writeDelete {
		var err error
		if poly, err = r.parse(root, req, r.b.suite.WKT[poolSet][o.Pool]); err != nil {
			return err
		}
		r.n.userBytes += int64(len(o.Body))
	}
	kind := map[int]server.MutKind{writeUpsert: server.MutUpsert, writeInsert: server.MutInsert, writeDelete: server.MutDelete}[o.Write]
	id := o.ID
	if o.Write == writeInsert {
		id = -1
	}
	t0 := time.Now()
	res, err := r.reg.MutateKey(ingestDataset, kind, id, poly, "")
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("replay: %s of %d: %w", writeNames[o.Write], o.ID, err)
	}
	r.tr.leaf("server.mutate", root, req, d)
	r.n.mutations++
	r.n.mutateT += d
	s := r.tr.open("server.encode", root, req)
	_, err = json.Marshal(server.IngestResponse{Dataset: ingestDataset, ID: res.ID, Op: writeNames[o.Write],
		Created: res.Created, Epoch: res.Epoch, Version: res.Version, PendingOps: res.Pending})
	r.tr.close(s)
	r.tr.close(root)
	if err != nil {
		return err
	}
	if res.Pending >= ingestCompactThreshold {
		for _, info := range r.reg.List() {
			if info.Name == ingestDataset {
				r.n.walBytes += info.WalBytes
			}
		}
		bg := r.tr.open("server.compact", -1, -1)
		t0 := time.Now()
		_, err := r.reg.Compact(ingestDataset)
		d := time.Since(t0)
		r.tr.close(bg)
		r.n.compactions++
		r.n.compactT += d
		return err
	}
	return nil
}

// replay runs one full replay of the workload on a fresh registry and
// returns the wall time of its request phase.
func (r *replayer) replay(reqs []int) (time.Duration, error) {
	if err := r.setup(); err != nil {
		return 0, err
	}
	if r.b.workload != "ingest" {
		// The end-to-end run sent one untimed warm-up rotation, which
		// built every refined geometry's DE-9IM structures; so does
		// this, timing each build.
		warm := r.tr.open("warmup", -1, -1)
		for k := range joinKinds {
			pairs, _, _, err := r.joinPairs(k)
			if err != nil {
				return 0, err
			}
			for _, p := range pairs {
				r.prepare(warm, -1, p.R)
				r.prepare(warm, -1, p.S)
			}
		}
		r.tr.close(warm)
	}
	start := time.Now()
	for _, req := range reqs {
		var err error
		switch r.b.workload {
		case "relate":
			err = r.relate(req, &r.m.Ops["relate"][req])
		case "join":
			err = r.join(req, r.m.JoinIdx[req])
		case "ingest":
			if nr := len(r.m.Ops["relate"]); req < nr {
				err = r.relate(req, &r.m.Ops["relate"][req])
			} else {
				err = r.write(req, &r.m.Ops["write"][req-nr])
			}
		}
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// joinReplayRequests is how many requests of the join stream the
// traced run replays (four of each kind): a join takes tens of ms, so
// replaying the whole window would double the run.
const joinReplayRequests = 24

// replayOrder lists the request indices a replay visits, in order.
// Ingest reads are 0..len(reads)-1 and writes follow; both streams
// interleave by due time, as they reached the daemon.
func replayOrder(b *bench, m *e2e) []int {
	var reqs []int
	switch b.workload {
	case "relate":
		for i := range m.Ops["relate"] {
			reqs = append(reqs, i)
		}
	case "join":
		for i := 0; i < len(m.JoinIdx) && i < joinReplayRequests; i++ {
			reqs = append(reqs, i)
		}
	case "ingest":
		reads, writes := m.Ops["relate"], m.Ops["write"]
		for i := range reads {
			reqs = append(reqs, i)
		}
		for i := range writes {
			reqs = append(reqs, len(reads)+i)
		}
		due := func(req int) time.Duration {
			if req < len(reads) {
				return reads[req].Due
			}
			return writes[req-len(reads)].Due
		}
		sort.SliceStable(reqs, func(a, b int) bool { return due(reqs[a]) < due(reqs[b]) })
	}
	return reqs
}

func newReplayer(b *bench, m *e2e, tr *tracer, name string) (*replayer, error) {
	dir := filepath.Join(b.work, "replay-"+name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &replayer{b: b, m: m, tr: tr, dir: dir, prepared: map[*core.Object]bool{}, serverPart: map[int]time.Duration{}}, nil
}

// runTrace replays the workload three times in-process, with spans
// off, on and off again, each on a fresh registry after a garbage
// collection, and derives the per-layer metrics from the spans, the
// end-to-end samples and the daemon's /metrics.json. The overhead ratio
// compares the traced pass with the mean of the two untraced ones, so
// the warm-up of the first pass does not land on one side only. It
// records every layer metric and the latency accounting in rep and
// writes the spans to .bench_build/perfbench/traces/<workload>.json.
func runTrace(b *bench, m *e2e, rep map[string]any) (map[string]metric, error) {
	reqs := replayOrder(b, m)
	var traced *replayer
	var onT, offT time.Duration
	for i, on := range []bool{false, true, false} {
		tr := &tracer{on: on, t0: time.Now()}
		r, err := newReplayer(b, m, tr, fmt.Sprintf("pass-%d", i))
		if err != nil {
			return nil, err
		}
		runtime.GC()
		d, err := r.replay(reqs)
		if err != nil {
			return nil, err
		}
		if on {
			traced, onT = r, d
		} else {
			offT += d / 2
		}
	}
	if err := writeSpans(b, traced.tr.spans); err != nil {
		return nil, err
	}
	return layerMetrics(b, m, traced, reqs, float64(onT)/float64(offT), rep), nil
}

func writeSpans(b *bench, spans []span) error {
	dir := filepath.Join(b.repo, ".bench_build", "perfbench", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, b.workload+".json"), data, 0o644)
}

// requestLayers sums each replayed request's self time per layer.
func requestLayers(tr *tracer) map[int]map[string]time.Duration {
	self := tr.selfTimes()
	out := map[int]map[string]time.Duration{}
	for i, s := range tr.spans {
		if s.Req < 0 {
			continue
		}
		if out[s.Req] == nil {
			out[s.Req] = map[string]time.Duration{}
		}
		out[s.Req][s.Name] += self[i]
	}
	return out
}

// accountingTolerance bounds the unclaimed share of the median
// request's latency: below -0.10 the replay claims more time than the
// request took, above 0.50 most of it is in no measured layer. The
// daemon's wait (its elapsed_ms beyond the replayed work) must not fall
// below the lower bound either: the replay would then claim more of the
// daemon's time than the daemon spent.
var accountingTolerance = [2]float64{-0.10, 0.50}

// layerMetrics derives the per-layer metrics. Per request it splits the
// end-to-end latency into generator lag, the wait for a free connection
// (client.queue), the replayed layers, the daemon's wait (its
// elapsed_ms beyond the replayed candidate generation and evaluation:
// the relate batch window, scheduling) and the residual no layer claims
// (HTTP, JSON decoding, admission).
func layerMetrics(b *bench, m *e2e, r *replayer, reqs []int, overhead float64, rep map[string]any) map[string]metric {
	perReq := requestLayers(r.tr)
	n := r.n
	var waits, residuals, cands, refinedPer, encodes, candgens []float64
	type acct struct {
		e2e    float64
		layers map[string]float64
	}
	var accts []acct
	for _, req := range reqs {
		var o *op
		var res *result
		var e2eMS, lagMS, queueMS, elapsedMS float64
		switch {
		case b.workload == "join":
			o, res = &m.Ops["join"][m.JoinIdx[req]], &m.Results["join"][req]
			e2eMS = ms(res.Done - res.Sent)
		case req < len(m.Ops["relate"]):
			o, res = &m.Ops["relate"][req], &m.Results["relate"][req]
		default:
			i := req - len(m.Ops["relate"])
			o, res = &m.Ops["write"][i], &m.Results["write"][i]
		}
		if b.workload != "join" {
			e2eMS = ms(res.Done - o.Due)
			lagMS = ms(res.Released - o.Due)
			queueMS = ms(res.Sent - res.Released)
		}
		if res.Status != 200 {
			continue
		}
		var body struct {
			ElapsedMS  float64 `json:"elapsed_ms"`
			Candidates int     `json:"candidates"`
			Refined    int     `json:"refined"`
		}
		_ = json.Unmarshal(res.Body, &body) // checked already; writes carry no elapsed_ms
		elapsedMS = body.ElapsedMS
		layers := map[string]float64{"gen.lag": lagMS, "client.queue": queueMS}
		claimed := lagMS + queueMS
		for name, d := range perReq[req] {
			layers[name] = ms(d)
			if name != "request" {
				claimed += ms(d)
			}
		}
		if part, ok := r.serverPart[req]; ok {
			wait := elapsedMS - ms(part)
			layers["server.wait"] = wait
			claimed += wait
			waits = append(waits, wait)
			cands = append(cands, float64(body.Candidates))
			refinedPer = append(refinedPer, float64(body.Refined))
			candgens = append(candgens, us(perReq[req]["join.candgen"]))
		}
		encodes = append(encodes, us(perReq[req]["server.encode"]))
		resid := e2eMS - claimed
		layers["server.residual"] = resid
		residuals = append(residuals, resid)
		accts = append(accts, acct{e2eMS, layers})
	}

	// The median request: the middle tenth of the replayed requests by
	// latency, averaged layer by layer.
	sort.Slice(accts, func(i, j int) bool { return accts[i].e2e < accts[j].e2e })
	lo, hi := len(accts)*45/100, len(accts)*55/100+1
	if hi > len(accts) {
		hi = len(accts)
	}
	mid := accts[lo:hi]
	split := map[string]float64{}
	midE2E := math.NaN() // no successful request: no accounting
	for i, a := range mid {
		if i == 0 {
			midE2E = 0
		}
		midE2E += a.e2e / float64(len(mid))
		for k, v := range a.layers {
			split[k] += v / float64(len(mid))
		}
	}
	residShare := split["server.residual"] / midE2E
	waitShare := split["server.wait"] / midE2E
	ok := residShare >= accountingTolerance[0] && residShare <= accountingTolerance[1] &&
		waitShare >= accountingTolerance[0]
	if !ok {
		m.Flags = append(m.Flags, fmt.Sprintf("accounting_off: residual %.2f and daemon wait %.2f of the median request",
			residShare, waitShare))
	}

	met := m.Metrics
	fsync := hist(met, "wal_fsync_seconds")
	batch := hist(met, "server_relate_batch_size")
	lagP99 := 0.0
	for _, l := range m.Lag {
		lagP99 = max(lagP99, l.P99MS)
	}
	if b.workload == "join" {
		lagP99 = quantile(m.GapMS, 0.99)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perCall := func(d time.Duration, n int) float64 { return ratio(us(d), float64(n)) }
	out := map[string]metric{
		"wkt.parse_us":             {perCall(n.parseT, n.parses), "us"},
		"april.build_us":           {perCall(n.buildT, n.builds), "us"},
		"april.bytes_per_object":   {ratio(float64(n.buildBytes), float64(n.buildObjs)), "B"},
		"join.candgen_us":          {median(candgens), "us"},
		"join.candidates":          {mean(cands), "count"},
		"core.filter_ns_per_pair":  {ratio(float64(n.filterT), float64(n.pairs)), "ns"},
		"core.if_settled_ratio":    {ratio(float64(n.ifSettled), float64(n.findPairs)), "ratio"},
		"de9im.refine_us_per_pair": {perCall(n.refineT, n.refined), "us"},
		"de9im.refined":            {mean(refinedPer), "count"},
		"de9im.prepare_us":         {perCall(n.prepareT, n.prepares), "us"},
		"harness.sweep_efficiency": {mean(n.efficiency), "ratio"},
		"server.wait_ms":           {median(waits), "ms"},
		"server.batch_size":        {batch.Mean(), "count"},
		"server.residual_ms":       {median(residuals), "ms"},
		"server.encode_us":         {median(encodes), "us"},
		"server.rejected":          {float64(counter(met, "server_rejected_total")), "count"},
		"server.compactions":       {float64(counter(met, "server_compactions_total")), "count"},
		"wal.fsyncs":               {float64(fsync.Count), "count"},
		"wal.records_per_fsync":    {ratio(float64(counter(met, "wal_appended_total")), float64(fsync.Count)), "ratio"},
		"wal.bytes_per_user_byte":  {ratio(float64(n.walBytes), float64(n.userBytes)), "ratio"},
		"snapshot.write_ms":        {ratio(ms(n.snapshotT), float64(n.snapshots)), "ms"},
		"snapshot.bytes":           {float64(m.SnapDirB), "B"},
		"gen.lag_ms_p99":           {lagP99, "ms"},
		"trace.overhead_ratio":     {overhead, "ratio"},
	}
	layerOnly := map[string]metric{}
	if b.workload == "ingest" {
		layerOnly["server.mutate_us"] = metric{perCall(n.mutateT, n.mutations), "us"}
		layerOnly["server.compact_ms"] = metric{ratio(ms(n.compactT), float64(n.compactions)), "ms"}
		layerOnly["wal.fsync_ms_p99"] = metric{1000 * fsync.Quantile(0.99), "ms"}
	}
	// A layer with no calls in this run (no successful request of its
	// kind) reads 0 rather than NaN.
	for _, set := range []map[string]metric{out, layerOnly} {
		for k, v := range set {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				set[k] = metric{0, v.Unit}
			}
		}
	}
	if math.IsNaN(midE2E) {
		residShare, waitShare, midE2E = 0, 0, 0
	}
	rep["layers_ingest_only"] = layerOnly
	rep["accounting"] = map[string]any{
		"median_request_ms": midE2E, "requests": len(mid), "split_ms": split,
		"residual_share": residShare, "tolerance": accountingTolerance, "within_tolerance": ok,
		"replayed_requests": len(reqs), "spans": len(r.tr.spans),
	}
	rep["flags"] = m.Flags
	return out
}
