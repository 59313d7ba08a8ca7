package core

import (
	"testing"

	"repro/internal/de9im"
)

func TestRelateMaskNamedRelations(t *testing.T) {
	b := testBuilder(t)
	inner := obj(t, b, 0, rect(30, 30, 60, 60))
	outer := obj(t, b, 1, rect(10, 10, 100, 100))

	// The inside mask routes through relate_p and needs no refinement on
	// a deeply nested pair.
	insideMask := de9im.MasksOf(de9im.Inside)[0]
	res := RelateMask(PC, inner, outer, insideMask)
	if !res.Holds || res.Refined {
		t.Errorf("inside mask: %+v, want definite true", res)
	}
	equalsMask := de9im.MasksOf(de9im.Equals)[0]
	res = RelateMask(PC, inner, outer, equalsMask)
	if res.Holds {
		t.Errorf("equals mask should not hold: %+v", res)
	}
}

func TestRelateMaskArbitrary(t *testing.T) {
	b := testBuilder(t)
	a := obj(t, b, 0, rect(0, 0, 20, 20))
	c := obj(t, b, 1, rect(10, 10, 30, 30))

	// "2*2***2**": interiors overlap both ways with area dims — a custom
	// overlap pattern no named relation uses.
	mask := de9im.MustMask("2*2******")
	res := RelateMask(PC, a, c, mask)
	if !res.Holds || !res.Refined {
		t.Errorf("custom overlap mask: %+v, want refined true", res)
	}

	far := obj(t, b, 2, rect(80, 80, 90, 90))
	res = RelateMask(PC, a, far, mask)
	if res.Holds || res.Refined {
		t.Errorf("disjoint pair with overlap mask: %+v, want cheap false", res)
	}
	// The exact disjoint code must match without refinement.
	res = RelateMask(PC, a, far, de9im.MustMask("FF2FF1212"))
	if !res.Holds || res.Refined {
		t.Errorf("disjoint code on disjoint MBRs: %+v", res)
	}
}

func TestRelateMaskAgreesWithMatrix(t *testing.T) {
	b := testBuilder(t)
	pairsList := [][2]*Object{
		{obj(t, b, 0, rect(0, 0, 10, 10)), obj(t, b, 1, rect(5, 5, 15, 15))},
		{obj(t, b, 2, rect(0, 0, 10, 10)), obj(t, b, 3, rect(10, 0, 20, 10))},
		{obj(t, b, 4, rect(2, 2, 4, 4)), obj(t, b, 5, rect(0, 0, 10, 10))},
	}
	masks := []string{
		"T********", "FF*FF****", "T*F**F***", "****T****", "2FF1FF212",
	}
	for i, pr := range pairsList {
		matrix := Refine(pr[0], pr[1])
		for _, ms := range masks {
			k := de9im.MustMask(ms)
			want := k.Matches(matrix)
			got := RelateMask(PC, pr[0], pr[1], k)
			if got.Holds != want {
				t.Errorf("pair %d mask %s: got %v, want %v (matrix %s)",
					i, ms, got.Holds, want, matrix)
			}
		}
	}
}

func TestDisjointMatrixLiteral(t *testing.T) {
	want, err := de9im.ParseMatrix("FF2FF1212")
	if err != nil {
		t.Fatal(err)
	}
	if disjointMatrix != want {
		t.Fatalf("disjointMatrix = %s, want %s", disjointMatrix, want)
	}
}
