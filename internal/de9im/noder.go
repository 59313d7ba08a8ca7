package de9im

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// prepEdge is one boundary edge with its bounding box, precomputed once
// at Prepare time. Unlike the old per-pair edge records, prepEdge is
// immutable: per-pair noding state (the cut parameters) lives in the
// Scratch, so the same Prepared geometry can be swept against thousands
// of partners without rebuilding or mutating anything.
type prepEdge struct {
	a, b                   geom.Point
	minX, maxX, minY, maxY float64
}

func newPrepEdge(a, b geom.Point) prepEdge {
	return prepEdge{
		a: a, b: b,
		minX: math.Min(a.X, b.X), maxX: math.Max(a.X, b.X),
		minY: math.Min(a.Y, b.Y), maxY: math.Max(a.Y, b.Y),
	}
}

// param returns the parameter of point p along the edge, using the
// dominant axis for stability.
func (e *prepEdge) param(p geom.Point) float64 {
	dx, dy := e.b.X-e.a.X, e.b.Y-e.a.Y
	if math.Abs(dx) >= math.Abs(dy) {
		if dx == 0 {
			return 0
		}
		return (p.X - e.a.X) / dx
	}
	return (p.Y - e.a.Y) / dy
}

// cut records one noding cut: the edge it lands on and its parameter.
// Cuts for one side are collected into a single scratch slice and sorted
// by (edge, t) afterwards, so per-edge cut lists are contiguous runs —
// no per-edge allocation, and the classification pass walks them with a
// single cursor.
type cut struct {
	edge int32
	t    float64
}

// Scratch holds the reusable per-pair noding state: window index lists,
// cut accumulators and touched-edge lists. One Scratch serves one
// goroutine; reusing it across pairs makes steady-state refinement
// allocation-free (the zero-alloc guard test pins this). The zero value
// is ready to use.
type Scratch struct {
	rWin, sWin   []int32
	rCuts, sCuts []cut
	// rHits and sHits list the edges that any SegIntersect result touched
	// (crossing, endpoint touch or collinear overlap), sorted ascending
	// after node and possibly repeated. Every edge with a cut is listed.
	rHits, sHits []int32
}

func (sc *Scratch) reset() {
	sc.rWin, sc.sWin = sc.rWin[:0], sc.sWin[:0]
	sc.rCuts, sc.sCuts = sc.rCuts[:0], sc.sCuts[:0]
	sc.rHits, sc.sHits = sc.rHits[:0], sc.sHits[:0]
}

// addHit records edge idx as touched, skipping the common immediate repeat
// (the sweep tests one edge against a run of partners in a row).
func addHit(hits *[]int32, idx int32) {
	if n := len(*hits); n == 0 || (*hits)[n-1] != idx {
		*hits = append(*hits, idx)
	}
}

// addCut appends the cut of p on edge e (index idx) if it is interior
// to the edge, mirroring the old per-edge addCut filter exactly.
func addCut(cuts *[]cut, idx int32, e *prepEdge, p geom.Point) {
	t := e.param(p)
	if t > 1e-12 && t < 1-1e-12 {
		*cuts = append(*cuts, cut{edge: idx, t: t})
	}
}

// appendWindow collects (into dst) the indices of edges whose bbox
// intersects win. Candidates are taken from the Prepared's byMinX index,
// so the output is already in ascending-minX order and the per-pair sort
// of the old noder disappears.
func appendWindow(dst []int32, p *Prepared, win geom.MBR) []int32 {
	for _, i := range p.byMinX {
		e := &p.edges[i]
		if e.minX > win.MaxX {
			break // byMinX is sorted: no later edge can start inside the window
		}
		if win.MinX <= e.maxX && e.minY <= win.MaxY && win.MinY <= e.maxY {
			dst = append(dst, i)
		}
	}
	return dst
}

// node intersects every window edge of r against every window edge of s
// with the forward plane sweep over x, accumulating cut parameters into
// the scratch (sorted by (edge, t) on return) and reporting whether the
// boundaries share at least one point.
func (sc *Scratch) node(r, s *Prepared) (anyPoint bool) {
	sc.reset()
	win := r.bounds.Intersection(s.bounds)
	if win.IsEmpty() {
		return false
	}
	pad := geom.Eps
	win = geom.MBR{MinX: win.MinX - pad, MinY: win.MinY - pad, MaxX: win.MaxX + pad, MaxY: win.MaxY + pad}

	sc.rWin = appendWindow(sc.rWin, r, win)
	sc.sWin = appendWindow(sc.sWin, s, win)

	// Forward sweep: process both index lists in merged minX order; each
	// edge forward-scans the other list while minX <= its maxX. Pairs with
	// the other edge starting earlier were visited from the other side.
	i, j := 0, 0
	for i < len(sc.rWin) && j < len(sc.sWin) {
		if r.edges[sc.rWin[i]].minX <= s.edges[sc.sWin[j]].minX {
			e := &r.edges[sc.rWin[i]]
			for k := j; k < len(sc.sWin) && s.edges[sc.sWin[k]].minX <= e.maxX+pad; k++ {
				anyPoint = sc.intersectPair(r, s, sc.rWin[i], sc.sWin[k], pad) || anyPoint
			}
			i++
		} else {
			e := &s.edges[sc.sWin[j]]
			for k := i; k < len(sc.rWin) && r.edges[sc.rWin[k]].minX <= e.maxX+pad; k++ {
				anyPoint = sc.intersectPair(r, s, sc.rWin[k], sc.sWin[j], pad) || anyPoint
			}
			j++
		}
	}

	sortCuts(sc.rCuts)
	sortCuts(sc.sCuts)
	slices.Sort(sc.rHits)
	slices.Sort(sc.sHits)
	return anyPoint
}

func (sc *Scratch) intersectPair(r, s *Prepared, ri, si int32, pad float64) bool {
	re, se := &r.edges[ri], &s.edges[si]
	if re.minY > se.maxY+pad || se.minY > re.maxY+pad {
		return false
	}
	x := geom.SegIntersect(re.a, re.b, se.a, se.b)
	if x.Kind == geom.SegNone {
		return false
	}
	// A touch at an edge endpoint leaves no cut but still marks the edge:
	// a crossing exactly at a vertex must end the untouched run there.
	addHit(&sc.rHits, ri)
	addHit(&sc.sHits, si)
	switch x.Kind {
	case geom.SegPoint:
		addCut(&sc.rCuts, ri, re, x.P)
		addCut(&sc.sCuts, si, se, x.P)
		return true
	case geom.SegOverlap:
		addCut(&sc.rCuts, ri, re, x.P)
		addCut(&sc.rCuts, ri, re, x.Q)
		addCut(&sc.sCuts, si, se, x.P)
		addCut(&sc.sCuts, si, se, x.Q)
	}
	return true
}

func sortCuts(cuts []cut) {
	slices.SortFunc(cuts, func(a, b cut) int {
		switch {
		case a.edge != b.edge:
			return int(a.edge) - int(b.edge)
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		default:
			return 0
		}
	})
}

// forEachNodedSub calls fn with every noded sub-segment of edge e given
// its sorted cut run. Duplicate cut parameters (within 1e-12) collapse,
// exactly as in the old per-edge noder.
func forEachNodedSub(e *prepEdge, cuts []cut, fn func(p, q geom.Point)) {
	if len(cuts) == 0 {
		fn(e.a, e.b)
		return
	}
	prev := 0.0
	emit := func(t0, t1 float64) {
		if t1-t0 > 1e-12 {
			fn(geom.Lerp(e.a, e.b, t0), geom.Lerp(e.a, e.b, t1))
		}
	}
	for _, c := range cuts {
		if c.t-prev > 1e-12 {
			emit(prev, c.t)
			prev = c.t
		}
	}
	emit(prev, 1)
}

// NodedSegments returns the boundary segments of a and b, each subdivided
// at every intersection with the other's boundary. The overlay engine
// builds its trapezoid sweep from these.
func NodedSegments(a, b *geom.MultiPolygon) (as, bs [][2]geom.Point) {
	pa, pb := prepareTopology(a), prepareTopology(b)
	var sc Scratch
	sc.node(pa, pb)
	as = appendNoded(as, pa.edges, sc.rCuts)
	bs = appendNoded(bs, pb.edges, sc.sCuts)
	return as, bs
}

func appendNoded(out [][2]geom.Point, edges []prepEdge, cuts []cut) [][2]geom.Point {
	c := 0
	for i := range edges {
		lo := c
		for c < len(cuts) && cuts[c].edge == int32(i) {
			c++
		}
		forEachNodedSub(&edges[i], cuts[lo:c], func(p, q geom.Point) {
			out = append(out, [2]geom.Point{p, q})
		})
	}
	return out
}
