package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wkt"
)

// Request rates and mixes of the workloads.
const (
	relateRate = 200.0 // relate workload: probes per second, 2 connections
	readRate   = 100.0 // ingest workload: relate probes per second, 1 connection
	writeRate  = 20.0  // ingest workload: mutations per second, 1 connection
	// Share of probes asking relate_p and a mask; the rest run
	// find-relation.
	predShare = 0.1
	maskShare = 0.1
	// ingestCompactThreshold makes the ingest daemon compact OLE after
	// this many pending mutations: about six compactions, snapshot
	// writes and WAL prunes in a 10 s run.
	ingestCompactThreshold = 40
	// ingestDataset is the dataset the ingest workload mutates and reads.
	ingestDataset = "OLE"
)

// The three kinds of mutation the ingest workload sends.
const (
	writeUpsert = iota
	writeInsert
	writeDelete
)

var writeNames = [...]string{"upsert", "insert", "delete"}

// joinKinds is the join rotation: both dataset pairs in all three
// evaluation modes, so every sweep path of the service runs.
var joinKinds = []struct {
	Left, Right string
	Mode        int
}{
	{"OLE", "OPE", modeFind}, {"OLE", "OPE", modePred}, {"OLE", "OPE", modeMask},
	{"OBE", "OPE", modeFind}, {"OBE", "OPE", modePred}, {"OBE", "OPE", modeMask},
}

// modeNames labels the evaluation modes in reports.
var modeNames = [...]string{"find", "relate_p", "mask"}

// drawMode picks a probe's evaluation mode with the fixed mix.
func drawMode(rng *rand.Rand) int {
	switch r := rng.Float64(); {
	case r < predShare:
		return modePred
	case r < predShare+maskShare:
		return modeMask
	default:
		return modeFind
	}
}

// relateBody encodes a relate request of the given mode.
func relateBody(ds, probeWKT string, mode int) []byte {
	req := server.RelateRequest{Dataset: ds, WKT: probeWKT}
	switch mode {
	case modePred:
		req.Predicate = predicate.String()
	case modeMask:
		req.Mask = maskText
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings only
	}
	return b
}

// relateOps draws an open-loop probe stream: Poisson arrivals at rate,
// each an OPE park probed against one of datasets.
func relateOps(rng *rand.Rand, s *suite, rate float64, window time.Duration, datasets []string) []op {
	dues := poissonDues(rng, rate, window)
	ops := make([]op, len(dues))
	for i, d := range dues {
		probe := rng.Intn(len(s.Polys["OPE"]))
		ds := datasets[rng.Intn(len(datasets))]
		mode := drawMode(rng)
		ops[i] = op{Due: d, Kind: mode, Method: http.MethodPost, Path: "/v1/relate",
			Body: relateBody(ds, s.WKT["OPE"][probe], mode), Probe: probe, DS: ds, Mode: mode}
	}
	return ops
}

// writeCycle is the fixed mutation mix, repeated: half upserts, a
// quarter inserts and a quarter deletes, so the dataset keeps its size.
var writeCycle = [...]int{writeUpsert, writeInsert, writeUpsert, writeDelete}

// writeOps draws the ingest workload's mutation stream against OLE.
// Kinds follow writeCycle and geometries walk the pool in one fixed
// shuffled order, so every seed writes the same geometries in the same
// proportions (a lake's write cost grows with its vertex count, and
// the pool's counts are heavy-tailed). Which live objects are upserted
// and deleted is drawn from the suite seed as well, so every seed ends
// with the same dataset and the same live heap; rng draws the arrival
// times. The stream is simulated as it is drawn, so every op is valid
// when applied in order; insert ids are predicted (the daemon assigns
// the next id).
func writeOps(rng *rand.Rand, s *suite, window time.Duration) []op {
	n := len(s.Polys[ingestDataset])
	live := make([]int, n)
	pos := make(map[int]int, n)
	for i := range live {
		live[i] = i
		pos[i] = i
	}
	remove := func(id int) {
		i := pos[id]
		last := live[len(live)-1]
		live[i] = last
		pos[last] = i
		live = live[:len(live)-1]
		delete(pos, id)
	}
	pool := rand.New(rand.NewSource(suiteSeed)).Perm(len(s.Polys[poolSet]))
	targets := rand.New(rand.NewSource(suiteSeed + 1))
	nextPool := 0
	next := n
	dues := poissonDues(rng, writeRate, window)
	ops := make([]op, len(dues))
	base := "/v1/datasets/" + ingestDataset + "/objects"
	for i, d := range dues {
		o := op{Due: d, Pool: -1, Write: writeCycle[i%len(writeCycle)]}
		switch o.Write {
		case writeUpsert:
			o.ID = live[targets.Intn(len(live))]
			o.Method, o.Path = http.MethodPut, base+"/"+strconv.Itoa(o.ID)
		case writeInsert:
			o.ID = next
			o.Method, o.Path = http.MethodPost, base
			pos[next] = len(live)
			live = append(live, next)
			next++
		case writeDelete:
			o.ID = live[targets.Intn(len(live))]
			o.Method, o.Path = http.MethodDelete, base+"/"+strconv.Itoa(o.ID)
			remove(o.ID)
		}
		if o.Write != writeDelete {
			o.Pool = pool[nextPool%len(pool)]
			nextPool++
			o.Body = mustJSON(server.IngestRequest{WKT: s.WKT[poolSet][o.Pool]})
		}
		o.Kind = o.Write
		ops[i] = o
	}
	return ops
}

// joinRotation encodes the join kinds as requests.
func joinRotation() []op {
	ops := make([]op, len(joinKinds))
	for i, k := range joinKinds {
		req := server.JoinRequest{Left: k.Left, Right: k.Right}
		switch k.Mode {
		case modePred:
			req.Predicate = predicate.String()
		case modeMask:
			req.Mask = maskText
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		ops[i] = op{Kind: i, Mode: k.Mode, Method: http.MethodPost, Path: "/v1/join", Body: b}
	}
	return ops
}

// serverArgs are the daemon flags of a workload; dir is a fresh
// directory for its snapshots and write-ahead log.
func serverArgs(workload, dataDir, dir string) []string {
	args := []string{"-data", dataDir, "-snapshots", filepath.Join(dir, "snapshots")}
	if workload == "ingest" {
		args = append(args, "-wal", filepath.Join(dir, "wal"), "-wal-sync", "0",
			"-compact-threshold", strconv.Itoa(ingestCompactThreshold))
	}
	return args
}

// e2e is what the end-to-end run measured.
type e2e struct {
	// SetupS and SetupCPUS are each start's set-up wall time and the
	// daemon's CPU time over it, in seconds.
	SetupS, SetupCPUS []float64
	PeakRSSMiB        float64 // VmHWM at the end
	// HeapMiB is the daemon's heap in use after a forced garbage
	// collection at the end: the indexes, the mutation state and the
	// DE-9IM structures cached on objects.
	HeapMiB   float64
	ServerCPU time.Duration
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the window (0 when not reported).
	StealShare float64
	Requests   int          // requests sent in the timed window
	Attempted  int          // requests sent plus after-run state checks
	Failed     int          // failed, refused or wrong
	Errors     wrongAnswers // failed or refused requests
	Wrong      wrongAnswers // wrong answers
	// Drift is set when the join answers' fingerprint differs from the
	// reference's: the run is then incorrect whatever else held.
	Drift  bool
	Fprint string
	Flags  []string

	// Lat holds latencies in ms by request class ("relate", "join",
	// "write"), in stream order; failures are +Inf.
	Lat map[string][]float64
	// Lag is the open-loop generator lateness per stream class. For the
	// closed-loop join GapMS holds the client's gap between a response
	// and the next request instead.
	Lag   map[string]lagSummary
	GapMS []float64
	// Pairs is the candidate pairs the correct join answers evaluated
	// over Wall, the time from the first send to the last response.
	Pairs    int
	Wall     time.Duration
	Metrics  *obs.SnapshotData
	SnapDirB int64

	// The streams and their results, for the traced replay.
	Ops     map[string][]op
	Results map[string][]result
	// JoinIdx is the rotation index of every join request sent.
	JoinIdx []int
}

// runE2E starts the daemon setups times (reporting each set-up time),
// drives the workload against the last one and checks every answer.
func runE2E(ctx context.Context, b *bench) (*e2e, error) {
	out := &e2e{Lat: map[string][]float64{}, Lag: map[string]lagSummary{},
		Ops: map[string][]op{}, Results: map[string][]result{}}
	var c *child
	for i := 0; i < b.setups; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("server-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		c, err = startChild(ctx, b.bin, serverArgs(b.workload, b.suite.ServeDir, dir))
		if err != nil {
			return nil, err
		}
		out.SetupS = append(out.SetupS, c.Setup.Seconds())
		out.SetupCPUS = append(out.SetupCPUS, c.SetupCPU.Seconds())
		if i < b.setups-1 {
			c.stop()
		}
	}
	defer c.stop()
	cl := newClient(2)
	defer cl.CloseIdleConnections()
	warmConns(ctx, cl, c.base, 2)

	rng := rand.New(rand.NewSource(b.seed))
	if b.workload != "ingest" {
		// One untimed join rotation: the first touch of every geometry
		// builds its DE-9IM acceleration structures, a cost paid once
		// per process. Relate warms up too, so that its live heap does
		// not depend on which objects the seed's probes happen to touch.
		rot := joinRotation()
		for i := range rot {
			if st, body, err := do(ctx, cl, c.base, &rot[i]); err != nil || st != http.StatusOK {
				return nil, fmt.Errorf("join warm-up: status %d: %v %s", st, err, body)
			}
		}
	}
	// Collect the garbage of loading the suite now, not in the window.
	runtime.GC()
	steal0 := stealTicks()
	cpu0, err := c.cpuTime()
	if err != nil {
		return nil, err
	}
	switch b.workload {
	case "relate":
		ops := relateOps(rng, b.suite, relateRate, b.window, []string{"OLE", "OBE"})
		start := time.Now()
		res := runOpenLoop(ctx, cl, c.base, ops, 2, start)
		out.Ops["relate"], out.Results["relate"] = ops, res
		out.Lag["relate"] = lagOf(ops, res, b.window)
	case "join":
		rot := joinRotation()
		res, idx := runClosedLoop(ctx, cl, c.base, rot, int(b.seed%int64(len(rot))), b.window)
		out.Ops["join"], out.Results["join"], out.JoinIdx = rot, res, idx
		for i := 1; i < len(res); i++ {
			out.GapMS = append(out.GapMS, ms(res[i].Sent-res[i-1].Done))
		}
	case "ingest":
		reads := relateOps(rng, b.suite, readRate, b.window, []string{ingestDataset})
		writes := writeOps(rng, b.suite, b.window)
		start := time.Now()
		done := make(chan []result, 1)
		go func() { done <- runOpenLoop(ctx, cl, c.base, writes, 1, start) }()
		rres := runOpenLoop(ctx, cl, c.base, reads, 1, start)
		wres := <-done
		out.Ops["relate"], out.Results["relate"] = reads, rres
		out.Ops["write"], out.Results["write"] = writes, wres
		out.Lag["relate"] = lagOf(reads, rres, b.window)
		out.Lag["write"] = lagOf(writes, wres, b.window)
	}
	cpu1, err := c.cpuTime()
	if err != nil {
		return nil, err
	}
	out.ServerCPU = cpu1 - cpu0
	out.StealShare = float64(stealTicks()-steal0) / (float64(runtime.NumCPU()*clockTicks) * b.window.Seconds())

	// Everything below is outside the timed window.
	if err := b.check(ctx, c, cl, out); err != nil {
		return nil, err
	}
	if out.Metrics, err = c.metrics(ctx); err != nil {
		return nil, err
	}
	if out.PeakRSSMiB, err = c.statusMiB("VmHWM"); err != nil {
		return nil, err
	}
	if out.HeapMiB, err = c.liveHeapMiB(ctx); err != nil {
		return nil, err
	}
	out.SnapDirB = dirSize(filepath.Join(b.work, fmt.Sprintf("server-%d", b.setups-1), "snapshots"))
	for class, l := range out.Lag {
		if l.Behind {
			out.Flags = append(out.Flags, fmt.Sprintf("generator_behind:%s (lag p99 %.2f ms, %.1f of %.1f req/s)",
				class, l.P99MS, l.AchievedPerS, l.OfferedPerS))
		}
	}
	return out, nil
}

// lagOf summarizes an open-loop stream's generator lateness.
func lagOf(ops []op, res []result, window time.Duration) lagSummary {
	due := make([]time.Duration, len(ops))
	rel := make([]time.Duration, len(ops))
	for i := range ops {
		due[i], rel[i] = ops[i].Due, res[i].Released
	}
	return summarizeLag(due, rel, window)
}

// check verifies every answer of the run against the in-process
// reference and fills the latency, failure and throughput accounting.
func (b *bench) check(ctx context.Context, c *child, cl *http.Client, out *e2e) error {
	mc := matrixCache{}
	objs := map[string][]refObj{}
	for _, name := range servedSets {
		objs[name] = refObjects(b.suite.Polys[name])
	}
	probes := b.suite.Polys["OPE"]
	lat := func(class string, o *op, r *result, wrong string) {
		out.Attempted++
		l := failedLatency
		switch {
		case r.Err != nil:
			out.Errors.add("%s %s: %v", o.Method, o.Path, r.Err)
		case r.Status != http.StatusOK:
			out.Errors.add("%s %s: status %d: %.200s", o.Method, o.Path, r.Status, r.Body)
		case wrong != "":
			out.Wrong.add("%s %s: %s", o.Method, o.Path, wrong)
		default:
			l = ms(r.Done - o.Due)
			if class == "join" {
				l = ms(r.Done - r.Sent)
			}
		}
		if l == failedLatency {
			out.Failed++
		}
		out.Lat[class] = append(out.Lat[class], l)
	}

	switch b.workload {
	case "relate":
		ops, res := out.Ops["relate"], out.Results["relate"]
		for i := range ops {
			o := &ops[i]
			wrong := ""
			if res[i].Status == http.StatusOK {
				wrong = checkRelate(res[i].Body, mc.refMatches(probes[o.Probe], objs[o.DS], o.Mode))
			}
			lat("relate", o, &res[i], wrong)
		}
		out.Requests = len(ops)

	case "join":
		want := make([]joinTally, len(joinKinds))
		for i, k := range joinKinds {
			want[i] = mc.refJoin(objs[k.Left], objs[k.Right], k.Mode)
		}
		out.Fprint = fingerprint(want)
		rot, res := out.Ops["join"], out.Results["join"]
		seen := make([]joinTally, len(joinKinds))
		for i := range res {
			k := out.JoinIdx[i]
			wrong := ""
			if res[i].Status == http.StatusOK {
				if wrong = checkJoin(res[i].Body, want[k]); wrong == "" {
					var jr server.JoinResponse
					_ = json.Unmarshal(res[i].Body, &jr) // checkJoin decoded it already
					out.Pairs += jr.Evaluated
					seen[k] = want[k]
				}
			}
			lat("join", &rot[k], &res[i], wrong)
		}
		if len(res) > 0 {
			out.Wall = res[len(res)-1].Done
		}
		if len(res) >= len(joinKinds) && fingerprint(seen) != out.Fprint {
			out.Drift = true
			out.Wrong.add("join fingerprint drift: answers %s, reference %s", fingerprint(seen), out.Fprint)
		}
		out.Requests = len(res)

	case "ingest":
		if err := b.checkIngest(ctx, c, cl, out, mc, lat); err != nil {
			return err
		}
	}
	return nil
}

// checkIngest verifies the ingest workload. Each write must be acked
// with the predicted id. Each read must equal the reference answer on
// the exact dataset state it reports (its index version: the base plus
// every acked mutation of lower or equal version). After the run the
// daemon compacts until nothing is pending; then every acked upsert or
// insert must be present and equal to its geometry and every acked
// delete absent.
func (b *bench) checkIngest(ctx context.Context, c *child, cl *http.Client, out *e2e, mc matrixCache,
	lat func(string, *op, *result, string)) error {
	writes, wres := out.Ops["write"], out.Results["write"]
	pool := b.suite.Polys[poolSet]
	type applied struct {
		version uint64
		op      *op
	}
	var acked []applied
	for i := range writes {
		o, r := &writes[i], &wres[i]
		wrong := ""
		if r.Status == http.StatusOK {
			var ir server.IngestResponse
			switch err := json.Unmarshal(r.Body, &ir); {
			case err != nil:
				wrong = fmt.Sprintf("undecodable response: %v", err)
			case ir.ID != o.ID || ir.Op != writeNames[o.Write]:
				wrong = fmt.Sprintf("acked %s of id %d, want %s of id %d", ir.Op, ir.ID, writeNames[o.Write], o.ID)
			default:
				acked = append(acked, applied{ir.Version, o})
			}
		}
		lat("write", o, r, wrong)
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].version < acked[j].version })

	// Replay the acked mutations in version order under the reads.
	reads, rres := out.Ops["relate"], out.Results["relate"]
	type readAt struct {
		i       int
		version uint64
	}
	var order []readAt
	wrongRead := make([]string, len(reads))
	for i := range reads {
		if rres[i].Status != http.StatusOK {
			continue
		}
		var rr server.RelateResponse
		if err := json.Unmarshal(rres[i].Body, &rr); err != nil {
			wrongRead[i] = fmt.Sprintf("undecodable response: %v", err)
			continue
		}
		order = append(order, readAt{i, rr.IndexVersion})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].version < order[b].version })
	state := newObjState(b.suite.Polys[ingestDataset])
	probes := b.suite.Polys["OPE"]
	next := 0
	for _, ra := range order {
		for next < len(acked) && acked[next].version <= ra.version {
			state.apply(acked[next].op, pool)
			next++
		}
		o := &reads[ra.i]
		wrongRead[ra.i] = checkRelate(rres[ra.i].Body, mc.refMatches(probes[o.Probe], state.objs, o.Mode))
	}
	for i := range reads {
		lat("relate", &reads[i], &rres[i], wrongRead[i])
	}
	out.Requests = len(reads) + len(writes)
	for ; next < len(acked); next++ {
		state.apply(acked[next].op, pool)
	}
	return b.checkFinalState(ctx, c, cl, out, state)
}

// objState is the reference content of the mutated dataset.
type objState struct {
	objs []refObj
	pos  map[int]int
	// last is the geometry every touched id had last, live or deleted.
	last    map[int]*geom.Polygon
	deleted map[int]bool
}

func newObjState(polys []*geom.Polygon) *objState {
	s := &objState{objs: refObjects(polys), pos: map[int]int{}, last: map[int]*geom.Polygon{}, deleted: map[int]bool{}}
	for i := range s.objs {
		s.pos[i] = i
	}
	return s
}

func (s *objState) apply(o *op, pool []*geom.Polygon) {
	if o.Write == writeDelete {
		i := s.pos[o.ID]
		s.last[o.ID] = s.objs[i].Poly
		s.deleted[o.ID] = true
		lastObj := s.objs[len(s.objs)-1]
		s.objs[i] = lastObj
		s.pos[lastObj.ID] = i
		s.objs = s.objs[:len(s.objs)-1]
		delete(s.pos, o.ID)
		return
	}
	p := pool[o.Pool]
	s.last[o.ID] = p
	delete(s.deleted, o.ID)
	obj := refObj{ID: o.ID, Poly: p, MBR: p.Bounds()}
	if i, ok := s.pos[o.ID]; ok {
		s.objs[i] = obj
		return
	}
	s.pos[o.ID] = len(s.objs)
	s.objs = append(s.objs, obj)
}

// checkFinalState compacts the mutated dataset until nothing is
// pending, then probes every touched id with its last geometry under
// the equals predicate.
func (b *bench) checkFinalState(ctx context.Context, c *child, cl *http.Client, out *e2e, state *objState) error {
	deadline := time.Now().Add(60 * time.Second)
	var info server.DatasetInfo
	for {
		compact := op{Method: http.MethodPost, Path: "/v1/datasets/" + ingestDataset + "/compact"}
		if _, _, err := do(ctx, cl, c.base, &compact); err != nil {
			return err
		}
		var list []server.DatasetInfo
		if err := getJSON(ctx, c.base+"/v1/datasets", &list); err != nil {
			return err
		}
		for _, d := range list {
			if d.Name == ingestDataset {
				info = d
			}
		}
		if info.PendingOps == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s still has %d pending ops after compaction", ingestDataset, info.PendingOps)
		}
		time.Sleep(20 * time.Millisecond)
	}
	out.Attempted++
	if info.Objects != len(state.objs) {
		out.Wrong.add("final state: %d objects, want %d", info.Objects, len(state.objs))
		out.Failed++
	}
	ids := make([]int, 0, len(state.last))
	for id := range state.last {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out.Attempted++
		probe := op{Method: http.MethodPost, Path: "/v1/relate",
			Body: mustJSON(server.RelateRequest{Dataset: ingestDataset, WKT: wkt.MarshalPolygon(state.last[id]), Predicate: "equals"})}
		st, body, err := do(ctx, cl, c.base, &probe)
		if err != nil || st != http.StatusOK {
			return fmt.Errorf("final-state probe of id %d: status %d: %v", id, st, err)
		}
		var rr server.RelateResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			return err
		}
		found := false
		for _, m := range rr.Matches {
			found = found || m.ID == id
		}
		if found == state.deleted[id] {
			out.Wrong.add("final state: id %d present=%v, want %v", id, found, !state.deleted[id])
			out.Failed++
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
