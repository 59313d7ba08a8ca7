package de9im

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// rotatePoly returns p with every ring's vertex list rotated left by k, so
// that vertex 0 (where the edge table starts a ring) moves along the ring.
func rotatePoly(p *geom.Polygon, k int) *geom.Polygon {
	rot := func(r geom.Ring) geom.Ring {
		out := make(geom.Ring, len(r))
		for i := range r {
			out[i] = r[(i+k)%len(r)]
		}
		return out
	}
	holes := make([]geom.Ring, len(p.Holes))
	for i, h := range p.Holes {
		holes[i] = rot(h)
	}
	return geom.NewPolygon(rot(p.Shell), holes...)
}

func rotateMulti(m *geom.MultiPolygon, k int) *geom.MultiPolygon {
	out := make([]*geom.Polygon, len(m.Polys))
	for i, p := range m.Polys {
		out[i] = rotatePoly(p, k)
	}
	return mp(out...)
}

func ring(xy ...float64) geom.Ring {
	r := make(geom.Ring, len(xy)/2)
	for i := range r {
		r[i] = geom.Point{X: xy[2*i], Y: xy[2*i+1]}
	}
	return r
}

// TestRunCases pins configurations where merging untouched edges into
// runs is easy to get wrong. Every case is checked under every rotation of
// both inputs' rings (so runs start, end and wrap at every vertex), in
// both pair orders, against the expected matrix and the per-edge
// reference.
func TestRunCases(t *testing.T) {
	s4 := mp(sq(0, 0, 4))
	cases := []struct {
		name string
		r, s *geom.MultiPolygon
		want string
	}{
		// r crosses s's right edge exactly at its vertices (4,1) and (4,3):
		// r gets no cut at all, only endpoint touches, and must still split
		// its inside chain from its outside chain there.
		{"cross at r vertices", mp(geom.NewPolygon(ring(3, 1, 4, 1, 5, 2, 4, 3, 3, 3))), s4, "212101212"},
		// r crosses at its (collinear) vertex (4,2) and properly at (4,1).
		{"cross at one r vertex", mp(geom.NewPolygon(ring(3, 1, 4, 2, 5, 3, 5, 1))), s4, "212101212"},
		// r touches s at a single vertex from outside.
		{"vertex touch", mp(geom.NewPolygon(ring(4, 2, 6, 1, 6, 3))), s4, "FF2F01212"},
		// An r edge lies on an s edge over its full length (outside, and
		// inside).
		{"full collinear overlap outside", mp(sq(4, 1, 2)), s4, "FF2F11212"},
		{"full collinear overlap inside", mp(sq(2, 1, 2)), s4, "2FF11F212"},
		// The outside run e4,e0 wraps past vertex 0 of r's ring.
		{"run wraps vertex 0", mp(geom.NewPolygon(ring(6, 2, 6, 3, 3, 3, 3, 1, 6, 1))), s4, "212101212"},
		// No contact at all: r's shell lies in s's interior, r's hole in s's
		// hole. A run carried across the ring boundary would miss BE.
		{"shell in, hole out",
			mp(geom.NewPolygon(ring(0, 0, 10, 0, 10, 10, 0, 10), ring(2, 2, 8, 2, 8, 8, 2, 8))),
			mp(geom.NewPolygon(ring(-1, -1, 11, -1, 11, 11, -1, 11), ring(1, 1, 9, 1, 9, 9, 1, 9))),
			"2121F1212"},
		// One component inside, one outside: a run must not continue into
		// the next polygon.
		{"components in and out", mp(sq(1, 1, 1), sq(10, 10, 1)), s4, "2F21F1212"},
		{"components out and in", mp(sq(10, 10, 1), sq(1, 1, 1)), s4, "2F21F1212"},
		// Hole play with contact: r crosses into s's hole.
		{"straddles hole ring",
			mp(sq(4, 4, 5)),
			mp(geom.NewPolygon(ring(0, 0, 10, 0, 10, 10, 0, 10), ring(3, 3, 7, 3, 7, 7, 3, 7))),
			"212101212"},
	}
	for _, c := range cases {
		want, err := ParseMatrix(c.want)
		if err != nil {
			t.Fatal(err)
		}
		maxN := 0
		for _, m := range []*geom.MultiPolygon{c.r, c.s} {
			for _, p := range m.Polys {
				p.Rings(func(r geom.Ring) { maxN = max(maxN, len(r)) })
			}
		}
		for kr := 0; kr < maxN; kr++ {
			for _, ks := range []int{0, kr} {
				r, s := Prepare(rotateMulti(c.r, kr)), Prepare(rotateMulti(c.s, ks))
				if got := RelatePrepared(r, s); got != want {
					t.Errorf("%s (rot %d/%d): %s, want %s", c.name, kr, ks, got, want)
				}
				if got := RelatePrepared(s, r); got != want.Transpose() {
					t.Errorf("%s (rot %d/%d, swapped): %s, want %s", c.name, kr, ks, got, want.Transpose())
				}
				if ref := RelatePerEdge(r, s); ref != want {
					t.Errorf("%s (rot %d/%d): per-edge reference %s, want %s", c.name, kr, ks, ref, want)
				}
			}
		}
	}
}

// TestRunOnBoundaryFallback: when a run's representative midpoint locates
// on the other boundary (the locator and the noder disagreeing), every
// edge of the run is located on its own. Here the noding result is
// withheld on purpose, so r's whole ring is one run whose first edge lies
// on s's bottom edge; without the fallback the inside edges are lost.
func TestRunOnBoundaryFallback(t *testing.T) {
	r, s := Prepare(mp(sq(2, 0, 2))), Prepare(mp(sq(0, 0, 4)))
	got := classifySide(r, nil, nil, s.locator)
	if want := (sideFlags{in: true, on: true}); got != want {
		t.Fatalf("classifySide = %+v, want %+v", got, want)
	}
}

// TestRunsMatchPerEdgeBlobs compares RelateScratch with the per-edge
// reference on random float-coordinate blobs, blobs with holes and
// multipolygons, in both pair orders, over one shared scratch.
func TestRunsMatchPerEdgeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	shape := func() *geom.MultiPolygon {
		cx, cy := rng.Float64()*6, rng.Float64()*6
		switch rng.Intn(3) {
		case 0:
			return mp(geom.NewPolygon(randBlob(rng, cx, cy, 2+rng.Float64()*3, 6+rng.Intn(40))))
		case 1:
			hole := randBlob(rng, cx, cy, 0.6, 5+rng.Intn(8))
			return mp(geom.NewPolygon(randBlob(rng, cx, cy, 3+rng.Float64()*2, 8+rng.Intn(30)), hole))
		default:
			return mp(geom.NewPolygon(randBlob(rng, cx, cy, 1.5, 6+rng.Intn(20))),
				geom.NewPolygon(randBlob(rng, cx+5, cy+1, 1.5, 6+rng.Intn(20))))
		}
	}
	var sc Scratch
	for trial := 0; trial < 3000; trial++ {
		r, s := Prepare(shape()), Prepare(shape())
		for _, p := range [][2]*Prepared{{r, s}, {s, r}} {
			got, ref := RelateScratch(p[0], p[1], &sc), RelatePerEdge(p[0], p[1])
			if got != ref {
				t.Fatalf("trial %d: runs %s, per-edge %s", trial, got, ref)
			}
		}
	}
}
