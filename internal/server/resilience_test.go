package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// Small deterministic fixture for the crash-recovery tests: rebuilds
// must be near-instant so truncation sweeps stay cheap.
var (
	resSpace = geom.MBR{MinX: 0, MinY: 0, MaxX: 256, MaxY: 256}
	resOrder = uint(9)
)

func resPolys() []*geom.Polygon {
	sq := func(x, y, s float64) *geom.Polygon {
		return geom.NewPolygon(geom.Ring{
			{X: x, Y: y}, {X: x + s, Y: y}, {X: x + s, Y: y + s}, {X: x, Y: y + s},
		})
	}
	var polys []*geom.Polygon
	for i := 0.0; i < 6; i++ {
		for j := 0.0; j < 6; j++ {
			polys = append(polys, sq(4+i*40, 4+j*40, 28))
		}
	}
	return polys
}

// resRegistry builds an instrumented registry with snapshots under dir
// and the fixture registered as "grid".
func resRegistry(t *testing.T, dir string) (*Registry, *obs.Registry) {
	t.Helper()
	met := obs.NewRegistry()
	reg := NewRegistry(resSpace, resOrder)
	reg.Instrument(met)
	reg.SetLogf(t.Logf)
	if err := reg.EnableSnapshots(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.register("grid", "squares", resPolys()); err != nil {
		t.Fatal(err)
	}
	return reg, met
}

// relateAll probes every fixture polygon against the registered dataset
// and returns relation strings, the correctness baseline the degraded
// and recovered modes are held to.
func relateAll(t *testing.T, reg *Registry) []string {
	t.Helper()
	e, ok := reg.Get("grid")
	if !ok {
		t.Fatal("dataset missing")
	}
	var out []string
	for _, p := range resPolys() {
		probe, err := reg.Probe(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range e.Dataset.Objects {
			method := core.PC
			if e.Degraded {
				method = core.ST2
			}
			res := core.FindRelation(method, probe, o)
			out = append(out, fmt.Sprintf("%d:%s", o.ID, res.Relation))
		}
	}
	return out
}

func TestSnapshotWarmStartSkipsRasterization(t *testing.T) {
	dir := t.TempDir()
	reg1, met1 := resRegistry(t, dir)
	n := int64(len(resPolys()))
	if got := met1.Counter("server_preprocess_objects_total").Value(); got != n {
		t.Fatalf("cold start preprocessed %d objects, want %d", got, n)
	}
	if got := met1.Counter("server_snapshot_writes_total").Value(); got != 1 {
		t.Fatalf("snapshot writes = %d, want 1", got)
	}
	baseline := relateAll(t, reg1)

	// Restart: same snapshot dir, fresh registry. The whole point of the
	// snapshot is that nothing is re-rasterized.
	reg2, met2 := resRegistry(t, dir)
	if got := met2.Counter("server_preprocess_objects_total").Value(); got != 0 {
		t.Fatalf("warm start preprocessed %d objects, want 0", got)
	}
	if got := met2.Counter("server_snapshot_loads_total").Value(); got != 1 {
		t.Fatalf("snapshot loads = %d, want 1", got)
	}
	e1, _ := reg1.Get("grid")
	e2, _ := reg2.Get("grid")
	for i := range e1.Dataset.Objects {
		if !reflect.DeepEqual(e1.Dataset.Objects[i].Approx, e2.Dataset.Objects[i].Approx) {
			t.Fatalf("object %d: warm-started approximation not bit-exact", i)
		}
	}
	if got := relateAll(t, reg2); !reflect.DeepEqual(got, baseline) {
		t.Fatal("warm-started registry answers differ from cold start")
	}
}

func TestCorruptSnapshotQuarantineDegradedRecover(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	reg1, _ := resRegistry(t, dir)
	baseline := relateAll(t, reg1)
	path, err := snapshot.DatasetPath(dir, "grid")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.FlipBit(path, 200, 3); err != nil {
		t.Fatal(err)
	}

	// Hold the rebuild open long enough to observe degraded serving.
	fault.Arm("registry.rebuild", fault.Behavior{Delay: 300 * time.Millisecond})
	reg2, met2 := resRegistry(t, dir)

	e, ok := reg2.Get("grid")
	if !ok || !e.Degraded {
		t.Fatalf("corrupt snapshot: entry ok=%v degraded=%v, want degraded serving", ok, e != nil && e.Degraded)
	}
	if got := met2.Counter("server_snapshot_corrupt_total").Value(); got != 1 {
		t.Fatalf("corrupt counter = %d", got)
	}
	// The damaged file is evidence, not garbage: quarantined, not deleted.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot still in place")
	}
	matches, _ := filepath.Glob(path + ".corrupt-*")
	if len(matches) != 1 {
		t.Fatalf("quarantine files = %v", matches)
	}
	degraded, rebuilding := reg2.States()
	if len(degraded)+len(rebuilding) != 1 {
		t.Fatalf("States = %v / %v", degraded, rebuilding)
	}
	// Degraded answers must equal the healthy baseline: slower, never
	// different.
	if got := relateAll(t, reg2); !reflect.DeepEqual(got, baseline) {
		t.Fatal("degraded answers differ from baseline")
	}

	reg2.WaitRebuilds()
	e, _ = reg2.Get("grid")
	if e.Degraded {
		t.Fatal("entry still degraded after rebuild")
	}
	if got := met2.Counter("server_rebuilds_total").Value(); got != 1 {
		t.Fatalf("rebuilds = %d", got)
	}
	if got := relateAll(t, reg2); !reflect.DeepEqual(got, baseline) {
		t.Fatal("recovered answers differ from baseline")
	}
	// The rebuild re-persisted a valid snapshot.
	if _, err := snapshot.Read(path); err != nil {
		t.Fatalf("snapshot after recovery: %v", err)
	}
	deg, reb := reg2.States()
	if len(deg)+len(reb) != 0 {
		t.Fatalf("States after recovery = %v / %v", deg, reb)
	}
}

// TestCrashRecoveryTruncationSweep is the kill-restart drill: a process
// dying mid-write leaves a torn snapshot at an arbitrary offset. Every
// restart must quarantine it, serve degraded, recover in the
// background, and never change an answer.
func TestCrashRecoveryTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	reg1, _ := resRegistry(t, dir)
	baseline := relateAll(t, reg1)
	path, err := snapshot.DatasetPath(dir, "grid")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	offsets := []int64{0, 1, 7, int64(len(clean) / 4), int64(len(clean) / 2), int64(len(clean) - 1)}
	for _, off := range offsets {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fault.TruncateAt(path, off); err != nil {
			t.Fatal(err)
		}
		met := obs.NewRegistry()
		reg := NewRegistry(resSpace, resOrder)
		reg.Instrument(met)
		if err := reg.EnableSnapshots(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.register("grid", "squares", resPolys()); err != nil {
			t.Fatalf("truncation at %d: register: %v", off, err)
		}
		if got := met.Counter("server_snapshot_corrupt_total").Value(); got != 1 {
			t.Fatalf("truncation at %d: corrupt counter = %d", off, got)
		}
		if got := relateAll(t, reg); !reflect.DeepEqual(got, baseline) {
			t.Fatalf("truncation at %d: answers changed", off)
		}
		reg.WaitRebuilds()
		if e, _ := reg.Get("grid"); e.Degraded {
			t.Fatalf("truncation at %d: no recovery", off)
		}
		if got := relateAll(t, reg); !reflect.DeepEqual(got, baseline) {
			t.Fatalf("truncation at %d: post-recovery answers changed", off)
		}
		// Clean up quarantine evidence for the next iteration.
		for _, q := range glob(t, path+".corrupt-*") {
			os.Remove(q)
		}
	}
}

func glob(t *testing.T, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRebuildPanicStaysDegraded: a panicking background rebuild must
// leave the dataset serving (degraded) and the process alive.
func TestRebuildPanicStaysDegraded(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	reg1, _ := resRegistry(t, dir)
	baseline := relateAll(t, reg1)
	path, _ := snapshot.DatasetPath(dir, "grid")
	if err := fault.TruncateAt(path, 50); err != nil {
		t.Fatal(err)
	}

	fault.Arm("registry.rebuild", fault.Behavior{Panic: true})
	met := obs.NewRegistry()
	reg := NewRegistry(resSpace, resOrder)
	reg.Instrument(met)
	if err := reg.EnableSnapshots(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.register("grid", "squares", resPolys()); err != nil {
		t.Fatal(err)
	}
	reg.WaitRebuilds()
	if got := met.Counter("server_rebuild_panics_total").Value(); got != 1 {
		t.Fatalf("rebuild panics = %d", got)
	}
	e, _ := reg.Get("grid")
	if !e.Degraded {
		t.Fatal("entry must stay degraded after a panicked rebuild")
	}
	if got := relateAll(t, reg); !reflect.DeepEqual(got, baseline) {
		t.Fatal("degraded answers differ after panicked rebuild")
	}
}

// TestRegistryRejectsHostileNames: dataset names reach os.Open and the
// snapshot path join, so traversal and absolute paths must die at the
// gate.
func TestRegistryRejectsHostileNames(t *testing.T) {
	reg := NewRegistry(resSpace, resOrder)
	if err := reg.EnableSnapshots(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	polys := resPolys()[:1]
	for _, name := range []string{
		"", ".", "..", "../../etc/cron.d/x", "..\\..\\etc", "/etc/passwd",
		"C:\\windows", "a/b", "a\\b", ".hidden", "-rf", "x\x00y", "x\ny",
		strings.Repeat("n", 300),
	} {
		if _, err := reg.Add(name, "", polys); err == nil {
			t.Errorf("Add(%q) accepted a hostile name", name)
		}
		if _, err := reg.register(name, "", polys); err == nil {
			t.Errorf("register(%q) accepted a hostile name", name)
		}
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) passed", name)
		}
	}
	// Control: a legitimate name still registers.
	if _, err := reg.register("ok-name", "", polys); err != nil {
		t.Fatalf("register(ok-name): %v", err)
	}
}

// TestServerDegradedHealthAndServing drives the whole stack over HTTP:
// a corrupt snapshot must show up in /v1/healthz, relate answers must
// match the healthy ones while degraded, and health must return to ok
// after the background rebuild.
func TestServerDegradedHealthAndServing(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	reg1, _ := resRegistry(t, dir)

	startServer := func(reg *Registry) (*Server, *Client) {
		svc := New(reg, Config{})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() {
			ts.Close()
			svc.Close()
		})
		return svc, NewClient(ts.URL)
	}
	_, c1 := startServer(reg1)
	ctx := context.Background()
	probe := "POLYGON ((10 10, 60 10, 60 60, 10 60, 10 10))"
	healthyResp, err := c1.Relate(ctx, RelateRequest{Dataset: "grid", WKT: probe})
	if err != nil {
		t.Fatal(err)
	}

	path, _ := snapshot.DatasetPath(dir, "grid")
	if err := fault.FlipBit(path, 321, 1); err != nil {
		t.Fatal(err)
	}
	fault.Arm("registry.rebuild", fault.Behavior{Delay: 400 * time.Millisecond})
	reg2, _ := resRegistry(t, dir)
	_, c2 := startServer(reg2)

	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || len(h.Degraded)+len(h.Rebuilding) != 1 {
		t.Fatalf("degraded health = %+v", h)
	}
	infos, err := c2.Datasets(ctx)
	if err != nil || len(infos) != 1 {
		t.Fatalf("datasets: %v %v", infos, err)
	}
	if infos[0].Status != "degraded" && infos[0].Status != "rebuilding" {
		t.Fatalf("dataset status = %q", infos[0].Status)
	}
	degradedResp, err := c2.Relate(ctx, RelateRequest{Dataset: "grid", WKT: probe})
	if err != nil {
		t.Fatalf("degraded relate: %v", err)
	}
	if !reflect.DeepEqual(degradedResp.Matches, healthyResp.Matches) {
		t.Fatalf("degraded matches differ:\nhealthy: %v\ndegraded: %v",
			healthyResp.Matches, degradedResp.Matches)
	}

	reg2.WaitRebuilds()
	h, err = c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("post-recovery health = %+v", h)
	}
	recoveredResp, err := c2.Relate(ctx, RelateRequest{Dataset: "grid", WKT: probe})
	if err != nil || !reflect.DeepEqual(recoveredResp.Matches, healthyResp.Matches) {
		t.Fatalf("post-recovery relate: %v (matches equal: %v)",
			err, reflect.DeepEqual(recoveredResp.Matches, healthyResp.Matches))
	}
}

// TestRelatePanicIsolatedOverHTTP: a poisoned object (nil geometry)
// panics during refinement. For every operation (find-relation,
// relate_p, mask) on both routes (relate probe, join), the request that
// hits it gets a 500 naming the panic, the panic is counted, and a
// healthy request afterwards still answers: the process, the batcher
// and the join sweep all survive.
func TestRelatePanicIsolatedOverHTTP(t *testing.T) {
	reproDir := t.TempDir()
	met := obs.NewRegistry()
	reg := NewRegistry(resSpace, resOrder)
	reg.Instrument(met)
	for _, name := range []string{"grid", "grid2"} {
		if _, err := reg.register(name, "squares", resPolys()); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := reg.Get("grid")
	e.Dataset.Objects[0].Poly = nil // poison: Refine will nil-deref

	svc := New(reg, Config{ReproDir: reproDir, Logf: t.Logf, Metrics: met})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	panics := met.Counter("server_pair_panics_total")

	// ST2 refines every MBR-surviving candidate, and so do relate_p and
	// the mask T******** under it: each operation must hit the poison.
	ops := []struct{ name, pred, mask string }{
		{name: "find"},
		{name: "relate_p", pred: "intersects"},
		{name: "mask", mask: "T********"},
	}
	for _, op := range ops {
		t.Run(op.name+"/relate", func(t *testing.T) {
			before := panics.Value()
			_, err := c.Relate(ctx, RelateRequest{
				Dataset: "grid", Method: "ST2", Predicate: op.pred, Mask: op.mask,
				WKT: "POLYGON ((5 5, 30 5, 30 30, 5 30, 5 5))",
			})
			assertPanicked(t, err)
			if panics.Value() <= before {
				t.Fatal("pair panic not counted")
			}
			// A probe far from the poison answers normally.
			resp, err := c.Relate(ctx, RelateRequest{
				Dataset: "grid", Method: "ST2", Predicate: op.pred, Mask: op.mask,
				WKT: "POLYGON ((200 200, 240 200, 240 240, 200 240, 200 200))",
			})
			if err != nil {
				t.Fatalf("healthy probe after panic: %v", err)
			}
			if len(resp.Matches) == 0 {
				t.Fatal("healthy probe found nothing")
			}
		})
		t.Run(op.name+"/join", func(t *testing.T) {
			before := panics.Value()
			_, err := c.Join(ctx, JoinRequest{
				Left: "grid", Right: "grid2", Method: "ST2", Predicate: op.pred, Mask: op.mask,
			})
			assertPanicked(t, err)
			if panics.Value() <= before {
				t.Fatal("pair panic not counted")
			}
			// A join that never touches the poison answers normally.
			resp, err := c.Join(ctx, JoinRequest{
				Left: "grid2", Right: "grid2", Method: "ST2", Predicate: op.pred, Mask: op.mask,
			})
			if err != nil {
				t.Fatalf("healthy join after panic: %v", err)
			}
			if resp.Evaluated == 0 {
				t.Fatal("healthy join evaluated nothing")
			}
		})
	}
	dumps := glob(t, filepath.Join(reproDir, "panic-*.txt"))
	if len(dumps) != 0 {
		t.Fatalf("nil-geometry pair cannot be dumped, got %v", dumps)
	}
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("server dead after poisoned requests: %v", err)
	}
}

// assertPanicked checks err is the 500 a recovered pair panic maps to.
func assertPanicked(t *testing.T, err error) {
	t.Helper()
	var api *APIError
	if !errors.As(err, &api) || api.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: err = %v, want 500", err)
	}
	if !strings.Contains(api.Message, "panicked") {
		t.Fatalf("error message %q", api.Message)
	}
}

// TestReproDumpWritesCorpusFormat: a panic on a pair with real geometry
// must produce a parseable oracle-corpus repro file.
func TestReproDumpWritesCorpusFormat(t *testing.T) {
	dir := t.TempDir()
	polys := resPolys()
	a := &core.Object{ID: 0, Poly: polys[0], MBR: polys[0].Bounds()}
	b := &core.Object{ID: 1, Poly: polys[1], MBR: polys[1].Bounds()}
	path := dumpReproPair(dir, "join", a, b, "boom")
	if path == "" {
		t.Fatal("dump failed")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{"# panic-join: boom", "A MULTIPOLYGON", "B MULTIPOLYGON", "V 4 4"} {
		if !strings.Contains(body, want) {
			t.Fatalf("repro body missing %q:\n%s", want, body)
		}
	}
	// Idempotent: the same crash maps to the same file name.
	if again := dumpReproPair(dir, "join", a, b, "boom"); again != path {
		t.Fatalf("repro path changed: %q vs %q", again, path)
	}
	if dumpReproPair("", "join", a, b, "boom") != "" {
		t.Fatal("disabled dir must not dump")
	}
}
