package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/server"
)

// The three evaluation modes a relate probe or a join can ask for.
const (
	modeFind = iota // most specific relation
	modePred        // relate_p
	modeMask        // DE-9IM mask
)

// Every relate_p request asks this predicate and every mask request
// this mask. The mask is no single relation's Table 1 mask, so the
// service answers it through full refinement, not the relate_p path.
var (
	predicate = de9im.Intersects
	maskText  = "T********"
	mask      = de9im.MustMask(maskText)
)

// refObj is the reference's view of one object: exact geometry only.
type refObj struct {
	ID   int
	Poly *geom.Polygon
	MBR  geom.MBR
}

func refObjects(polys []*geom.Polygon) []refObj {
	out := make([]refObj, len(polys))
	for i, p := range polys {
		out[i] = refObj{ID: i, Poly: p, MBR: p.Bounds()}
	}
	return out
}

// matrixCache memoizes the reference DE-9IM matrix of a polygon pair.
// The reference computes every matrix with de9im.RelatePolygons, the
// unprepared engine entry point: no filter, no cached Prepared state,
// none of the scratch reuse the service's refinement path takes.
type matrixCache map[[2]*geom.Polygon]de9im.Matrix

func (c matrixCache) matrix(a, b *geom.Polygon) de9im.Matrix {
	k := [2]*geom.Polygon{a, b}
	m, ok := c[k]
	if !ok {
		m = de9im.RelatePolygons(a, b)
		c[k] = m
	}
	return m
}

// refMatches answers one relate probe against objs by brute force:
// every object whose box meets the probe's is refined.
func (c matrixCache) refMatches(probe *geom.Polygon, objs []refObj, mode int) []server.RelateMatch {
	pb := probe.Bounds()
	out := []server.RelateMatch{}
	for _, o := range objs {
		if !pb.Intersects(o.MBR) {
			continue
		}
		m := c.matrix(probe, o.Poly)
		switch mode {
		case modeFind:
			if rel := de9im.MostSpecific(m, de9im.AllRelations); rel != de9im.Disjoint {
				out = append(out, server.RelateMatch{ID: o.ID, Relation: rel.String()})
			}
		case modePred:
			if de9im.Holds(predicate, m) {
				out = append(out, server.RelateMatch{ID: o.ID, Relation: predicate.String()})
			}
		case modeMask:
			if mask.Matches(m) {
				out = append(out, server.RelateMatch{ID: o.ID})
			}
		}
	}
	return sortMatches(out)
}

func sortMatches(ms []server.RelateMatch) []server.RelateMatch {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].ID != ms[j].ID {
			return ms[i].ID < ms[j].ID
		}
		return ms[i].Relation < ms[j].Relation
	})
	return ms
}

// checkRelate compares a relate response body with the expected
// matches; it returns "" when they agree, else what differs.
func checkRelate(body []byte, want []server.RelateMatch) string {
	var got server.RelateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	if got.Truncated {
		return "truncated response"
	}
	g := sortMatches(append([]server.RelateMatch(nil), got.Matches...))
	if len(g) != len(want) {
		return fmt.Sprintf("%d matches, want %d", len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return fmt.Sprintf("match %d is %+v, want %+v", i, g[i], want[i])
		}
	}
	return ""
}

// joinTally is the checked part of one join answer: candidate count,
// relation tallies (find mode) or holds count (relate_p and mask).
type joinTally struct {
	Candidates int            `json:"candidates"`
	Relations  map[string]int `json:"relations,omitempty"`
	Holds      int            `json:"holds"`
}

// refJoin computes the tally of one join kind by brute force over
// every pair of objects with intersecting boxes.
func (c matrixCache) refJoin(left, right []refObj, mode int) joinTally {
	t := joinTally{}
	if mode == modeFind {
		t.Relations = map[string]int{}
	}
	for _, l := range left {
		for _, r := range right {
			if !l.MBR.Intersects(r.MBR) {
				continue
			}
			t.Candidates++
			m := c.matrix(l.Poly, r.Poly)
			switch mode {
			case modeFind:
				t.Relations[de9im.MostSpecific(m, de9im.AllRelations).String()]++
			case modePred:
				if de9im.Holds(predicate, m) {
					t.Holds++
				}
			case modeMask:
				if mask.Matches(m) {
					t.Holds++
				}
			}
		}
	}
	return t
}

// checkJoin compares a join response with the expected tally.
func checkJoin(body []byte, want joinTally) string {
	var got server.JoinResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	g := joinTally{Candidates: got.Candidates, Relations: got.Relations, Holds: got.Holds}
	if got.Evaluated != got.Candidates {
		return fmt.Sprintf("evaluated %d of %d candidates", got.Evaluated, got.Candidates)
	}
	if fingerprint(g) != fingerprint(want) {
		a, _ := json.Marshal(g)
		b, _ := json.Marshal(want)
		return fmt.Sprintf("tally %s, want %s", a, b)
	}
	return ""
}

// fingerprint hashes a value's canonical JSON (maps marshal with
// sorted keys) to 16 hex digits.
func fingerprint(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and numbers reach here
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// wrongAnswers collects the failed checks of a run; the first few are
// kept verbatim for the report.
type wrongAnswers struct {
	N       int
	Details []string
}

func (w *wrongAnswers) add(format string, args ...any) {
	w.N++
	if len(w.Details) < 5 {
		w.Details = append(w.Details, fmt.Sprintf(format, args...))
	}
}

func (w *wrongAnswers) String() string { return strings.Join(w.Details, "; ") }
