package core

import (
	"repro/internal/de9im"
	"repro/internal/mbrrel"
)

// RelateMask answers an arbitrary DE-9IM mask query for a pair, the
// three-argument ST_Relate form of spatial SQL. When the mask is one of
// the Table 1 masks of a named relation, the query is answered through
// the corresponding relate_p fast path; otherwise the pair's matrix is
// computed, short-cutting only the MBR-disjoint case (whose matrix is
// known without geometry).
func RelateMask(m Method, r, s *Object, mask de9im.Mask) RelateResult {
	rr, _ := relateMask(m, r, s, mask, Refine)
	return rr
}

// relateMask is RelateMask with a custom refinement step, also reporting
// the stage that settled the pair.
func relateMask(m Method, r, s *Object, mask de9im.Mask, refine Refiner) (RelateResult, Verdict) {
	if rel, ok := maskRelation(mask); ok {
		return relatePred(m, r, s, rel, refine)
	}
	if mbrrel.Classify(r.MBR, s.MBR) == mbrrel.DisjointMBRs {
		return RelateResult{Holds: mask.Matches(disjointMatrix)}, VerdictMBR
	}
	return RelateResult{Holds: mask.Matches(refine(r, s)), Refined: true}, VerdictRefine
}

// maskRelation reverse-maps a mask to the relation whose Table 1 mask set
// consists of exactly that mask.
func maskRelation(mask de9im.Mask) (de9im.Relation, bool) {
	for rel := de9im.Relation(0); int(rel) < de9im.NumRelations; rel++ {
		ms := de9im.MasksOf(rel)
		if len(ms) == 1 && ms[0] == mask {
			return rel, true
		}
	}
	return 0, false
}

// disjointMatrix is the exact DE-9IM matrix of a pair known to be
// disjoint with both geometries non-empty: FF2FF1212.
var disjointMatrix = de9im.Matrix{
	de9im.DimF, de9im.DimF, de9im.Dim2,
	de9im.DimF, de9im.DimF, de9im.Dim1,
	de9im.Dim2, de9im.Dim1, de9im.Dim2,
}
