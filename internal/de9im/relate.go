package de9im

import (
	"slices"
	"sync"

	"repro/internal/geom"
)

// Relate computes the DE-9IM matrix of the ordered pair (r, s).
func Relate(r, s *geom.MultiPolygon) Matrix {
	return RelatePrepared(Prepare(r), Prepare(s))
}

// RelatePolygons computes the DE-9IM matrix of two single polygons.
func RelatePolygons(r, s *geom.Polygon) Matrix {
	return Relate(geom.NewMultiPolygon(r), geom.NewMultiPolygon(s))
}

// Prepared wraps a geometry with every pair-independent acceleration
// structure Relate needs: a slab-indexed point locator, the boundary
// edge table with per-edge bounding boxes, a minX-sorted edge index for
// the noding sweep, cached bounds, and lazily computed per-component
// interior points. Preparing once amortizes all of it across the many
// pairs an object participates in; a Prepared is immutable after
// construction and safe for concurrent use (interior points are guarded
// by a sync.Once).
type Prepared struct {
	Geom    *geom.MultiPolygon
	locator *geom.Locator
	bounds  geom.MBR
	edges   []prepEdge // boundary edges in Geom.Edges order
	byMinX  []int32    // edge indices sorted by (minX, index)
	intOnce sync.Once
	intPts  []geom.Point
}

// Prepare builds the locator and edge tables for g.
func Prepare(g *geom.MultiPolygon) *Prepared {
	p := prepareTopology(g)
	p.locator = geom.NewLocator(g)
	return p
}

// prepareTopology builds everything except the locator — enough for
// noding (NodedSegments), which never point-locates.
func prepareTopology(g *geom.MultiPolygon) *Prepared {
	p := &Prepared{Geom: g, bounds: g.Bounds()}
	g.Edges(func(a, b geom.Point) { p.edges = append(p.edges, newPrepEdge(a, b)) })
	p.byMinX = make([]int32, len(p.edges))
	for i := range p.byMinX {
		p.byMinX[i] = int32(i)
	}
	slices.SortFunc(p.byMinX, func(a, b int32) int {
		xa, xb := p.edges[a].minX, p.edges[b].minX
		switch {
		case xa < xb:
			return -1
		case xa > xb:
			return 1
		default:
			return int(a - b)
		}
	})
	return p
}

// interiorPoints computes one interior point per polygon component,
// caching the result. Safe under concurrent callers.
func (p *Prepared) interiorPoints() []geom.Point {
	p.intOnce.Do(func() { p.intPts = geom.InteriorPoints(p.Geom) })
	return p.intPts
}

// probe classifies an interior point of the *other* geometry, nudging the
// probe off numerically-degenerate boundary hits while staying inside own.
func probe(pt geom.Point, other, own *geom.Locator) geom.Location {
	loc := other.Locate(pt)
	if loc != geom.OnBoundary {
		return loc
	}
	const d = 1e-9
	for _, off := range [...]geom.Point{{X: d}, {X: -d}, {Y: d}, {Y: -d}} {
		q := pt.Add(off)
		if own.Locate(q) != geom.Inside {
			continue
		}
		if l := other.Locate(q); l != geom.OnBoundary {
			return l
		}
	}
	return loc
}

// sideFlags records where one geometry's noded boundary lies relative to
// the other geometry: in its interior, on its boundary, in its exterior.
type sideFlags struct{ in, on, out bool }

func (f *sideFlags) add(l geom.Location) {
	switch l {
	case geom.Inside:
		f.in = true
	case geom.OnBoundary:
		f.on = true
	default:
		f.out = true
	}
}

func (f *sideFlags) full() bool { return f.in && f.on && f.out }

// classifySide classifies one boundary of p against the other geometry's
// locator, walking ring by ring. Ring extents come from p.Geom (edges are
// stored in Geom.Edges order), so no per-object ring table is kept.
//
// A run is a maximal chain of consecutive edges of one ring that no
// SegIntersect result touched (hits, sorted). A run is connected and
// disjoint from the other boundary, so it lies wholly in the other
// geometry's open interior or open exterior: one point location (the
// midpoint of its first edge) classifies every edge in it. Should that
// midpoint locate OnBoundary — the locator's tolerance disagreeing with
// the noder's — the run falls back to one location per edge. Touched edges
// are classified per noded sub-segment from their cuts (sorted by
// (edge, t)) and end the current run. The walk starts each ring at its
// first touched edge, so a run wrapping past vertex 0 stays one run.
// Early-exits once all three flags are set; allocates nothing.
func classifySide(p *Prepared, cuts []cut, hits []int32, loc *geom.Locator) (f sideFlags) {
	var w sideWalk
	w.edges, w.cuts, w.hits, w.loc = p.edges, cuts, hits, loc
	for _, poly := range p.Geom.Polys {
		if w.ring(len(poly.Shell), &f) {
			return f
		}
		for _, h := range poly.Holes {
			if w.ring(len(h), &f) {
				return f
			}
		}
	}
	return f
}

// sideWalk carries classifySide's cursors across rings. Rings are visited
// in edge order and touched edges in ascending order within each ring, so
// the hit and cut cursors only ever move forward.
type sideWalk struct {
	edges []prepEdge
	cuts  []cut
	hits  []int32
	loc   *geom.Locator
	base  int // first edge of the current ring
	c, h  int // cursors into cuts and hits
}

// ring classifies the n edges of the next ring into f and reports whether
// f is full. Once a run's first edge is located, the walk jumps straight
// to the next touched edge: the rest of the run adds nothing new.
func (w *sideWalk) ring(n int, f *sideFlags) bool {
	lo, hi := w.base, w.base+n
	w.base = hi
	start := lo
	if w.h < len(w.hits) && int(w.hits[w.h]) < hi {
		start = int(w.hits[w.h])
	}
	// at maps walk position k to its edge index, wrapping past vertex 0.
	at := func(k int) int {
		if start+k >= hi {
			return start + k - n
		}
		return start + k
	}
	for k := 0; k < n; {
		i := at(k)
		if w.h < len(w.hits) && int(w.hits[w.h]) == i {
			for w.h < len(w.hits) && int(w.hits[w.h]) == i {
				w.h++
			}
			w.classifyTouched(int32(i), &w.edges[i], f)
			k++
		} else {
			// The run reaches up to the ring's next touched edge, or to
			// the end of the walk (the hits left all lie at or past hi).
			end := n
			if w.h < len(w.hits) && int(w.hits[w.h]) < hi {
				end = int(w.hits[w.h]) - start
			}
			e := &w.edges[i]
			l := w.loc.Locate(geom.Midpoint(e.a, e.b))
			f.add(l)
			if l == geom.OnBoundary { // tolerance disagreement: per edge
				for j := k + 1; j < end; j++ {
					e = &w.edges[at(j)]
					f.add(w.loc.Locate(geom.Midpoint(e.a, e.b)))
				}
			}
			k = end
		}
		if f.full() {
			return true
		}
	}
	return false
}

// classifyTouched classifies every noded sub-segment of touched edge i.
// Same dedup chain as forEachNodedSub, with the midpoint taken inline
// instead of through callbacks.
func (w *sideWalk) classifyTouched(i int32, e *prepEdge, f *sideFlags) {
	lo := w.c
	for w.c < len(w.cuts) && w.cuts[w.c].edge == i {
		w.c++
	}
	if lo == w.c { // touched only at an endpoint: one sub-segment
		f.add(w.loc.Locate(geom.Midpoint(e.a, e.b)))
		return
	}
	prev := 0.0
	for _, ct := range w.cuts[lo:w.c] {
		if ct.t-prev > 1e-12 {
			classifySub(e, prev, ct.t, w.loc, f)
			prev = ct.t
		}
	}
	classifySub(e, prev, 1, w.loc, f)
}

func classifySub(e *prepEdge, t0, t1 float64, loc *geom.Locator, f *sideFlags) {
	if t1-t0 > 1e-12 {
		mid := geom.Midpoint(geom.Lerp(e.a, e.b, t0), geom.Lerp(e.a, e.b, t1))
		f.add(loc.Locate(mid))
	}
}

// RelatePrepared computes the DE-9IM matrix from prepared geometries,
// allocating a fresh scratch.
func RelatePrepared(r, s *Prepared) Matrix {
	return RelateScratch(r, s, nil)
}

// RelateScratch computes the DE-9IM matrix from prepared geometries using
// the caller's reusable scratch (nil means allocate one). With a warm
// scratch and warm Prepared values the steady state allocates nothing —
// the zero-alloc guard test pins this.
//
// Derivation: after noding the boundaries against each other, every noded
// boundary segment of one geometry lies entirely in the interior, on the
// boundary, or in the exterior of the other (its interior cannot cross the
// other boundary), so its midpoint classification is exact. Because
// interiors and exteriors are open sets, boundary/interior and
// boundary/exterior intersections are never isolated points, which makes
// the segment flags sufficient for all B-row and B-column entries.
// Boundary edges that no intersection touched need not be located one by
// one: a maximal chain of them along a ring is connected and disjoint from
// the other boundary, so it lies in one open region of the other geometry
// and a single location classifies the whole chain (classifySide; a chain
// whose representative locates on the boundary falls back to per-edge
// location). Area entries (II, IE, EI) follow from the flags plus
// per-component interior-point probes; DESIGN.md §4 sketches the
// completeness argument.
func RelateScratch(r, s *Prepared, sc *Scratch) Matrix {
	var m Matrix
	for i := range m {
		m[i] = DimF
	}
	m[EE] = Dim2
	if len(r.Geom.Polys) == 0 || len(s.Geom.Polys) == 0 {
		// Degenerate empty inputs: only the non-empty side contributes.
		if len(r.Geom.Polys) != 0 {
			m[IE], m[BE] = Dim2, Dim1
		}
		if len(s.Geom.Polys) != 0 {
			m[EI], m[EB] = Dim2, Dim1
		}
		return m
	}

	if sc == nil {
		sc = new(Scratch)
	}
	anyPoint := sc.node(r, s)
	rf := classifySide(r, sc.rCuts, sc.rHits, s.locator)
	sf := classifySide(s, sc.sCuts, sc.sHits, r.locator)
	return fromFlags(m, r, s, anyPoint, rf, sf)
}

// fromFlags completes m from the noding result and both sides' boundary
// flags.
func fromFlags(m Matrix, r, s *Prepared, anyPoint bool, rf, sf sideFlags) Matrix {
	// Boundary rows/columns.
	if rf.in {
		m[BI] = Dim1
	}
	if rf.out {
		m[BE] = Dim1
	}
	if sf.in {
		m[IB] = Dim1
	}
	if sf.out {
		m[EB] = Dim1
	}
	switch {
	case rf.on || sf.on:
		m[BB] = Dim1
	case anyPoint:
		m[BB] = Dim0
	}

	// Area entries. A boundary segment of one geometry inside the other's
	// interior witnesses area overlap on both sides of that segment.
	if rf.in || sf.in {
		m[II] = Dim2
	}
	if rf.out || sf.in {
		m[IE] = Dim2
	}
	if sf.out || rf.in {
		m[EI] = Dim2
	}

	// Interior-point fallbacks for the undecided open-set entries: needed
	// when one region's components avoid the other's boundary entirely
	// (nesting without contact, identical boundaries, disjointness).
	if m[II] == DimF || m[IE] == DimF {
		for _, pt := range r.interiorPoints() {
			switch probe(pt, s.locator, r.locator) {
			case geom.Inside:
				m[II] = Dim2
			case geom.Outside:
				m[IE] = Dim2
			}
		}
	}
	if m[II] == DimF || m[EI] == DimF {
		for _, pt := range s.interiorPoints() {
			switch probe(pt, r.locator, s.locator) {
			case geom.Inside:
				m[II] = Dim2
			case geom.Outside:
				m[EI] = Dim2
			}
		}
	}
	return m
}

// FindRelation computes the most specific topological relation of (r, s)
// by full refinement: the ST2 baseline's core.
func FindRelation(r, s *geom.MultiPolygon) Relation {
	return MostSpecific(Relate(r, s), AllRelations)
}
