package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/server"
)

func square(x0, y0, side float64) *geom.Polygon {
	return geom.NewPolygon(geom.Ring{{X: x0, Y: y0}, {X: x0 + side, Y: y0}, {X: x0 + side, Y: y0 + side}, {X: x0, Y: y0 + side}})
}

// Probe A overlaps B, meets C along an edge and is far from D.
var (
	sqA = square(0, 0, 2)
	sqB = square(1, 1, 2)
	sqC = square(2, 0, 2)
	sqD = square(10, 10, 1)
)

func TestReferenceMatches(t *testing.T) {
	mc := matrixCache{}
	objs := refObjects([]*geom.Polygon{sqB, sqC, sqD})
	got := mc.refMatches(sqA, objs, modeFind)
	want := []server.RelateMatch{{ID: 0, Relation: "intersects"}, {ID: 1, Relation: "meets"}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("find matches %+v, want %+v", got, want)
	}
	if got := mc.refMatches(sqA, objs, modePred); len(got) != 2 {
		t.Errorf("relate_p intersects matches %+v, want ids 0 and 1", got)
	}
	// The mask asks for intersecting interiors: the edge contact is out.
	if got := mc.refMatches(sqA, objs, modeMask); len(got) != 1 || got[0].ID != 0 {
		t.Errorf("mask matches %+v, want id 0 only", got)
	}
}

func relateBodyOf(ms ...server.RelateMatch) []byte {
	b, _ := json.Marshal(server.RelateResponse{Dataset: "OLE", Matches: ms})
	return b
}

// TestCheckerCatchesInjectedWrongAnswers tampers with correct answers
// one way at a time; each must be reported.
func TestCheckerCatchesInjectedWrongAnswers(t *testing.T) {
	want := []server.RelateMatch{{ID: 0, Relation: "intersects"}, {ID: 1, Relation: "meets"}}
	if msg := checkRelate(relateBodyOf(want[1], want[0]), want); msg != "" {
		t.Fatalf("a correct answer in another order was rejected: %s", msg)
	}
	for name, body := range map[string][]byte{
		"wrong relation": relateBodyOf(server.RelateMatch{ID: 0, Relation: "meets"}, want[1]),
		"missing match":  relateBodyOf(want[0]),
		"extra match":    relateBodyOf(append(want, server.RelateMatch{ID: 2, Relation: "meets"})...),
		"garbage":        []byte("{"),
	} {
		if checkRelate(body, want) == "" {
			t.Errorf("%s: not caught", name)
		}
	}

	mc := matrixCache{}
	left := refObjects([]*geom.Polygon{sqA, sqD})
	right := refObjects([]*geom.Polygon{sqB, sqC})
	tally := mc.refJoin(left, right, modeFind)
	if tally.Candidates != 2 || tally.Relations["intersects"] != 1 || tally.Relations["meets"] != 1 {
		t.Fatalf("reference tally %+v", tally)
	}
	ok := server.JoinResponse{Candidates: 2, Evaluated: 2, Relations: map[string]int{"intersects": 1, "meets": 1}}
	body, _ := json.Marshal(ok)
	if msg := checkJoin(body, tally); msg != "" {
		t.Fatalf("a correct join was rejected: %s", msg)
	}
	for name, bad := range map[string]server.JoinResponse{
		"relation drift":  {Candidates: 2, Evaluated: 2, Relations: map[string]int{"intersects": 2}},
		"lost candidates": {Candidates: 1, Evaluated: 1, Relations: map[string]int{"intersects": 1}},
		"partial sweep":   {Candidates: 2, Evaluated: 1, Relations: map[string]int{"intersects": 1, "meets": 1}},
	} {
		body, _ := json.Marshal(bad)
		if checkJoin(body, tally) == "" {
			t.Errorf("%s: not caught", name)
		}
	}
}

// TestWrongAnswerCountsAsFailed runs the relate check over a two-probe
// stream whose second answer was tampered with: it must be counted as
// failed, with infinite latency.
func TestWrongAnswerCountsAsFailed(t *testing.T) {
	b := &bench{workload: "relate", suite: &suite{Polys: map[string][]*geom.Polygon{
		"OPE": {sqA}, "OLE": {sqB, sqC, sqD}, "OBE": {sqD},
	}}}
	right := relateBodyOf(server.RelateMatch{ID: 0, Relation: "intersects"}, server.RelateMatch{ID: 1, Relation: "meets"})
	wrong := relateBodyOf(server.RelateMatch{ID: 0, Relation: "intersects"})
	m := &e2e{Lat: map[string][]float64{}, Ops: map[string][]op{"relate": {
		{Due: 0, Probe: 0, DS: "OLE", Mode: modeFind},
		{Due: time.Millisecond, Probe: 0, DS: "OLE", Mode: modeFind},
	}}, Results: map[string][]result{"relate": {
		{Done: 2 * time.Millisecond, Status: http.StatusOK, Body: right},
		{Done: 3 * time.Millisecond, Status: http.StatusOK, Body: wrong},
	}}}
	if err := b.check(context.Background(), nil, nil, m); err != nil {
		t.Fatal(err)
	}
	if m.Attempted != 2 || m.Failed != 1 || m.Wrong.N != 1 || !strings.Contains(m.Wrong.String(), "matches") {
		t.Fatalf("attempted %d failed %d wrong %+v", m.Attempted, m.Failed, m.Wrong)
	}
	if l := m.Lat["relate"]; l[0] != 2 || l[1] != failedLatency {
		t.Errorf("latencies %v, want [2 +Inf]", l)
	}
}

func TestObjStateFollowsMutations(t *testing.T) {
	pool := []*geom.Polygon{sqD}
	s := newObjState([]*geom.Polygon{sqA, sqB})
	s.apply(&op{Write: writeUpsert, ID: 0, Pool: 0}, pool)
	s.apply(&op{Write: writeInsert, ID: 2, Pool: 0}, pool)
	s.apply(&op{Write: writeDelete, ID: 1}, pool)
	if len(s.objs) != 2 || !s.deleted[1] || s.deleted[0] || s.last[1] != sqB || s.last[0] != sqD {
		t.Fatalf("state after upsert 0, insert 2, delete 1: %+v", s)
	}
	if got := (matrixCache{}).refMatches(sqD, s.objs, modeFind); len(got) != 2 || got[0].Relation != "equals" {
		t.Errorf("matches of the pool geometry %+v, want ids 0 and 2 equal", got)
	}
}
