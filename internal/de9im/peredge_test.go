package de9im

import "repro/internal/geom"

// RelatePerEdge is the reference classifier the run walk replaced: it
// locates the midpoint of every noded sub-segment of every boundary edge,
// untouched edges included, and otherwise shares RelateScratch's noding
// and matrix assembly. Tests compare the two matrix for matrix.
func RelatePerEdge(r, s *Prepared) Matrix {
	if len(r.Geom.Polys) == 0 || len(s.Geom.Polys) == 0 {
		return RelateScratch(r, s, nil)
	}
	var m Matrix
	for i := range m {
		m[i] = DimF
	}
	m[EE] = Dim2
	var sc Scratch
	anyPoint := sc.node(r, s)
	rf := classifyPerEdge(r.edges, sc.rCuts, s.locator)
	sf := classifyPerEdge(s.edges, sc.sCuts, r.locator)
	return fromFlags(m, r, s, anyPoint, rf, sf)
}

// classifyPerEdge is the per-edge classifySide: one location per noded
// sub-segment, early exit once all three flags are set.
func classifyPerEdge(edges []prepEdge, cuts []cut, loc *geom.Locator) (f sideFlags) {
	c := 0
	for i := range edges {
		if f.full() {
			return f
		}
		lo := c
		for c < len(cuts) && cuts[c].edge == int32(i) {
			c++
		}
		e := &edges[i]
		run := cuts[lo:c]
		if len(run) == 0 {
			f.add(loc.Locate(geom.Midpoint(e.a, e.b)))
			continue
		}
		prev := 0.0
		for _, ct := range run {
			if ct.t-prev > 1e-12 {
				classifySub(e, prev, ct.t, loc, &f)
				prev = ct.t
			}
		}
		classifySub(e, prev, 1, loc, &f)
	}
	return f
}
