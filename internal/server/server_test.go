package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/de9im"
)

// newTestServer builds a service over registry sets and mounts it on an
// httptest listener. The returned server is force-closed at cleanup.
func newTestServer(t *testing.T, cfg Config, sets ...string) (*Server, *Client) {
	t.Helper()
	svc := New(testRegistry(t, sets...), cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, NewClient(ts.URL)
}

func TestHealthAndDatasets(t *testing.T) {
	_, c := newTestServer(t, Config{}, "OLE", "OPE")
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Datasets != 2 {
		t.Fatalf("health = %+v", h)
	}

	ds, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].Name != "OLE" || ds[1].Name != "OPE" {
		t.Fatalf("datasets = %+v", ds)
	}
}

// probeWKT is a rectangle in the EU half of the synthetic space; it
// overlaps a healthy share of OPE's parks.
const probeWKT = "POLYGON ((50 50, 350 50, 350 350, 50 350))"

// directMatches evaluates the probe against every object of the set the
// slow way, as ground truth for /v1/relate.
func directMatches(t *testing.T, svc *Server, set, probe string) map[int]string {
	t.Helper()
	e, ok := svc.data.Get(set)
	if !ok {
		t.Fatalf("dataset %s not registered", set)
	}
	po, err := svc.data.Probe(mustPoly(t, probe))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]string)
	for _, o := range e.Dataset.Objects {
		if res := core.FindRelation(core.PC, po, o); res.Relation != de9im.Disjoint {
			want[o.ID] = res.Relation.String()
		}
	}
	return want
}

func TestRelateMatchesDirect(t *testing.T) {
	svc, c := newTestServer(t, Config{}, "OPE")
	want := directMatches(t, svc, "OPE", probeWKT)
	if len(want) == 0 {
		t.Fatal("probe matches nothing; fixture broken")
	}

	resp, err := c.Relate(context.Background(), RelateRequest{
		Dataset: "OPE", WKT: probeWKT, Limit: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Candidates < len(want) {
		t.Fatalf("candidates %d < matches %d", resp.Candidates, len(want))
	}
	if resp.Evaluated != resp.Candidates {
		t.Fatalf("evaluated %d != candidates %d", resp.Evaluated, resp.Candidates)
	}
	got := make(map[int]string, len(resp.Matches))
	for _, m := range resp.Matches {
		got[m.ID] = m.Relation
	}
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for id, rel := range want {
		if got[id] != rel {
			t.Errorf("object %d: got %q, want %q", id, got[id], rel)
		}
	}
}

func TestRelatePredicateAndMask(t *testing.T) {
	svc, c := newTestServer(t, Config{}, "OPE")
	want := directMatches(t, svc, "OPE", probeWKT)
	ctx := context.Background()

	pr, err := c.Relate(ctx, RelateRequest{
		Dataset: "OPE", WKT: probeWKT, Predicate: "intersects", Limit: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Matches) != len(want) {
		t.Fatalf("predicate intersects: %d matches, want %d", len(pr.Matches), len(want))
	}
	for _, m := range pr.Matches {
		if m.Relation != "intersects" {
			t.Fatalf("predicate match relation = %q", m.Relation)
		}
	}

	// The universal intersects mask must agree with the predicate.
	mr, err := c.Relate(ctx, RelateRequest{
		Dataset: "OPE", WKT: probeWKT, Mask: "T********", Limit: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Matches) != len(want) {
		t.Fatalf("mask T********: %d matches, want %d", len(mr.Matches), len(want))
	}
}

func TestRelateGeoJSONProbe(t *testing.T) {
	_, c := newTestServer(t, Config{}, "OPE")
	ctx := context.Background()
	wr, err := c.Relate(ctx, RelateRequest{Dataset: "OPE", WKT: probeWKT, Limit: 100000})
	if err != nil {
		t.Fatal(err)
	}
	gj := `{"type":"Polygon","coordinates":[[[50,50],[350,50],[350,350],[50,350],[50,50]]]}`
	gr, err := c.Relate(ctx, RelateRequest{Dataset: "OPE", GeoJSON: []byte(gj), Limit: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Matches) != len(wr.Matches) {
		t.Fatalf("geojson probe: %d matches, wkt probe: %d", len(gr.Matches), len(wr.Matches))
	}
}

func TestRelateLimitTruncates(t *testing.T) {
	_, c := newTestServer(t, Config{}, "OPE")
	resp, err := c.Relate(context.Background(), RelateRequest{
		Dataset: "OPE", WKT: probeWKT, Limit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 || !resp.Truncated {
		t.Fatalf("limit 1: %d matches, truncated=%v", len(resp.Matches), resp.Truncated)
	}
}

func TestRequestValidation(t *testing.T) {
	_, c := newTestServer(t, Config{}, "OPE")
	ctx := context.Background()
	cases := []struct {
		name string
		req  RelateRequest
		code int
	}{
		{"unknown dataset", RelateRequest{Dataset: "nope", WKT: probeWKT}, http.StatusNotFound},
		{"missing geometry", RelateRequest{Dataset: "OPE"}, http.StatusBadRequest},
		{"bad wkt", RelateRequest{Dataset: "OPE", WKT: "POLYGO ((0 0))"}, http.StatusBadRequest},
		{"both geometries", RelateRequest{Dataset: "OPE", WKT: probeWKT, GeoJSON: []byte(`{}`)}, http.StatusBadRequest},
		{"bad method", RelateRequest{Dataset: "OPE", WKT: probeWKT, Method: "FAST"}, http.StatusBadRequest},
		{"bad predicate", RelateRequest{Dataset: "OPE", WKT: probeWKT, Predicate: "touches-ish"}, http.StatusBadRequest},
		{"bad mask", RelateRequest{Dataset: "OPE", WKT: probeWKT, Mask: "TTT"}, http.StatusBadRequest},
		{"pred and mask", RelateRequest{Dataset: "OPE", WKT: probeWKT, Predicate: "intersects", Mask: "T********"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, err := c.Relate(ctx, tc.req)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != tc.code {
			t.Errorf("%s: err = %v, want status %d", tc.name, err, tc.code)
		}
	}
	if _, err := c.Join(ctx, JoinRequest{Left: "OPE", Right: "missing"}); err == nil {
		t.Error("join with unknown right dataset must fail")
	}
}

// directJoin computes the find-relation join the slow way.
func directJoin(t *testing.T, svc *Server, left, right string) (candidates int, rels map[string]int) {
	t.Helper()
	le, _ := svc.data.Get(left)
	re, _ := svc.data.Get(right)
	rels = make(map[string]int)
	for _, a := range le.Dataset.Objects {
		for _, b := range re.Dataset.Objects {
			if !a.MBR.Intersects(b.MBR) {
				continue
			}
			candidates++
			res := core.FindRelation(core.PC, a, b)
			rels[res.Relation.String()]++
		}
	}
	return candidates, rels
}

func TestJoinMatchesDirect(t *testing.T) {
	svc, c := newTestServer(t, Config{}, "OLE", "OPE")
	wantCand, wantRels := directJoin(t, svc, "OLE", "OPE")
	if wantCand == 0 {
		t.Fatal("no candidate pairs; fixture broken")
	}

	resp, err := c.Join(context.Background(), JoinRequest{
		Left: "OLE", Right: "OPE", Limit: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Candidates != wantCand || resp.Evaluated != wantCand {
		t.Fatalf("candidates=%d evaluated=%d, want %d", resp.Candidates, resp.Evaluated, wantCand)
	}
	for rel, n := range wantRels {
		if rel == "disjoint" {
			continue
		}
		if resp.Relations[rel] != n {
			t.Errorf("relation %s: got %d, want %d", rel, resp.Relations[rel], n)
		}
	}
	nonDisjoint := wantCand - wantRels["disjoint"]
	if len(resp.Pairs) != nonDisjoint {
		t.Fatalf("pairs = %d, want %d", len(resp.Pairs), nonDisjoint)
	}
	// The join's sweep stats must land in the metrics registry.
	if svc.met.Counter(`server_join_pairs_total{method="P+C"}`).Value() != int64(wantCand) {
		t.Error("join sweep stats not published to metrics")
	}
}

func TestJoinPredicate(t *testing.T) {
	svc, c := newTestServer(t, Config{}, "OLE", "OPE")
	wantCand, wantRels := directJoin(t, svc, "OLE", "OPE")
	nonDisjoint := wantCand - wantRels["disjoint"]

	resp, err := c.Join(context.Background(), JoinRequest{
		Left: "OLE", Right: "OPE", Predicate: "intersects", Limit: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Holds != nonDisjoint {
		t.Fatalf("intersects holds = %d, want %d", resp.Holds, nonDisjoint)
	}
	if resp.Evaluated != wantCand {
		t.Fatalf("evaluated = %d, want %d", resp.Evaluated, wantCand)
	}

	mresp, err := c.Join(context.Background(), JoinRequest{
		Left: "OLE", Right: "OPE", Mask: "T********", Limit: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mresp.Holds != nonDisjoint {
		t.Fatalf("mask holds = %d, want %d", mresp.Holds, nonDisjoint)
	}
}

// gateHook returns a testHook that signals entry and then blocks until
// the gate closes or the request context ends.
func gateHook(entered chan<- struct{}, gate <-chan struct{}) func(context.Context) error {
	return func(ctx context.Context) error {
		entered <- struct{}{}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func TestOverloadReturns429(t *testing.T) {
	svc, c := newTestServer(t, Config{
		MaxInFlight: 1, MaxQueue: 1, QueueWait: 20 * time.Millisecond,
	}, "OPE")
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	svc.testHook = gateHook(entered, gate)

	ctx := context.Background()
	req := RelateRequest{Dataset: "OPE", WKT: probeWKT}
	first := make(chan error, 1)
	go func() {
		_, err := c.Relate(ctx, req)
		first <- err
	}()
	<-entered // the only slot is now held at the gate

	// The next request queues, waits out QueueWait, and is shed.
	_, err := c.Relate(ctx, req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !apiErr.IsOverload() {
		t.Fatalf("saturated server: err = %v, want 429", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("Retry-After = %v, want 1s", apiErr.RetryAfter)
	}
	if got := svc.rejected.Value(); got < 1 {
		t.Fatalf("rejected counter = %d, want >= 1", got)
	}

	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("gated request after release: %v", err)
	}
}

func TestDeadlineReturns504(t *testing.T) {
	before := runtime.NumGoroutine()
	svc, c := newTestServer(t, Config{}, "OPE")
	// The hook parks until the request deadline fires, standing in for a
	// sweep that outlives its budget.
	svc.testHook = func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}
	for i := 0; i < 5; i++ {
		_, err := c.Relate(context.Background(), RelateRequest{
			Dataset: "OPE", WKT: probeWKT, TimeoutMS: 20,
		})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || !apiErr.IsDeadline() {
			t.Fatalf("expired deadline: err = %v, want 504", err)
		}
	}
	if got := svc.timeouts.Value(); got != 5 {
		t.Fatalf("timeout counter = %d, want 5", got)
	}
	// Nothing may leak: handler goroutines must unwind with the deadline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+10 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew from %d to %d after timed-out requests", before, after)
	}
}

// A real join under a 1ms budget: candidate generation plus an ST2 sweep
// (refines every pair) cannot finish, and the context must cut it short.
func TestDeadlineCancelsJoinSweep(t *testing.T) {
	_, c := newTestServer(t, Config{JoinWorkers: 1}, "OBE", "OPE")
	_, err := c.Join(context.Background(), JoinRequest{
		Left: "OBE", Right: "OPE", Method: "ST2", TimeoutMS: 1, Limit: 100000,
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !apiErr.IsDeadline() {
		t.Fatalf("1ms join: err = %v, want 504", err)
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	svc, c := newTestServer(t, Config{}, "OLE", "OPE")
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	svc.testHook = gateHook(entered, gate)

	inflight := make(chan error, 1)
	go func() {
		_, err := c.Join(context.Background(), JoinRequest{Left: "OLE", Right: "OPE"})
		inflight <- err
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- svc.Shutdown(context.Background()) }()
	for !svc.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while the drain runs...
	_, err := c.Relate(context.Background(), RelateRequest{Dataset: "OPE", WKT: probeWKT})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: err = %v, want 503", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	// ...but the in-flight join runs to completion.
	close(gate)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight join during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
}

func TestShutdownGraceForceCancels(t *testing.T) {
	svc, c := newTestServer(t, Config{}, "OPE")
	entered := make(chan struct{}, 1)
	svc.testHook = gateHook(entered, nil) // blocks until ctx ends

	inflight := make(chan error, 1)
	go func() {
		_, err := c.Relate(context.Background(), RelateRequest{Dataset: "OPE", WKT: probeWKT})
		inflight <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past grace = %v, want DeadlineExceeded", err)
	}
	// The stuck request was force-cancelled rather than waited out.
	var apiErr *APIError
	if err := <-inflight; !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("force-cancelled request: err = %v, want 503", err)
	}
}

// TestRelateBatching: concurrent probes share batches, and a batch that
// mixes operations (find-relation, relate_p, mask) answers each probe
// exactly as a lone request does — per-probe matches and counts stay
// apart although one sweep evaluates them all.
func TestRelateBatching(t *testing.T) {
	// Plenty of slots and queue patience: this test is about batching,
	// not admission (on a 1-CPU box probe preprocessing serializes).
	svc, c := newTestServer(t, Config{
		BatchWindow: 30 * time.Millisecond, MaxBatch: 16,
		MaxInFlight: 16, QueueWait: 5 * time.Second,
	}, "OPE")
	want := directMatches(t, svc, "OPE", probeWKT)
	reqs := []RelateRequest{
		{Dataset: "OPE", WKT: probeWKT, Limit: 100000},
		{Dataset: "OPE", WKT: probeWKT, Limit: 100000, Predicate: "intersects"},
		{Dataset: "OPE", WKT: probeWKT, Limit: 100000, Mask: "T********"},
	}
	solo := make([]*RelateResponse, len(reqs))
	for k, req := range reqs {
		var err error
		if solo[k], err = c.Relate(context.Background(), req); err != nil {
			t.Fatalf("solo %d: %v", k, err)
		}
	}
	if len(solo[0].Matches) != len(want) {
		t.Fatalf("solo find: %d matches, want %d", len(solo[0].Matches), len(want))
	}

	const n = 9
	resps := make([]*RelateResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Relate(context.Background(), reqs[i%len(reqs)])
		}(i)
	}
	wg.Wait()

	maxBatch := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("probe %d: %v", i, errs[i])
		}
		got, ref := resps[i], solo[i%len(reqs)]
		if len(got.Matches) != len(ref.Matches) || got.Evaluated != ref.Evaluated || got.Refined != ref.Refined {
			t.Fatalf("probe %d: %d matches, %d evaluated, %d refined; alone %d, %d, %d",
				i, len(got.Matches), got.Evaluated, got.Refined,
				len(ref.Matches), ref.Evaluated, ref.Refined)
		}
		if got.BatchSize > maxBatch {
			maxBatch = got.BatchSize
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no batching observed: max batch size = %d", maxBatch)
	}
	if svc.met.Counter("server_relate_batches_total").Value() >= int64(len(reqs)+n) {
		t.Errorf("every probe got its own batch; micro-batching ineffective")
	}
}

func TestMetricsExposed(t *testing.T) {
	_, c := newTestServer(t, Config{}, "OLE", "OPE")
	if _, err := c.Relate(context.Background(), RelateRequest{Dataset: "OPE", WKT: probeWKT}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(context.Background(), JoinRequest{Left: "OLE", Right: "OPE"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`server_request_seconds_count{route="relate"}`,
		`server_request_seconds_count{route="join"}`,
		`server_requests_total{route="join",code="200"}`,
		"server_inflight",
		"server_queue_depth",
		"server_relate_batches_total",
		"server_join_pairs_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestTimeoutClamp(t *testing.T) {
	svc := New(testRegistry(t), Config{DefaultTimeout: time.Second, MaxTimeout: 2 * time.Second})
	defer svc.Close()
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{0, time.Second},          // default
		{500, 500 * time.Millisecond},
		{60_000, 2 * time.Second}, // clamped to MaxTimeout
	}
	for _, tc := range cases {
		ctx, cancel := svc.requestCtx(context.Background(), tc.ms)
		dl, ok := ctx.Deadline()
		cancel()
		if !ok {
			t.Fatalf("timeout_ms=%d: no deadline", tc.ms)
		}
		if d := time.Until(dl); d > tc.want || d < tc.want-200*time.Millisecond {
			t.Errorf("timeout_ms=%d: deadline in %v, want ~%v", tc.ms, d, tc.want)
		}
	}
}
