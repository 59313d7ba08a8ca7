package de9im_test

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/oracle"
)

// TestRunsMatchPerEdgeOracle compares RelateScratch with the per-edge
// reference classifier over the oracle's adversarial lattice generators
// (shared edges, corner touches, pinned vertices, holes, multiparts,
// slivers, ...), in both pair orders: the run walk must not change a
// single matrix.
func TestRunsMatchPerEdgeOracle(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(12))
	var sc de9im.Scratch
	perGen := map[string]int{}
	for i := 0; i < n; i++ {
		p := oracle.GeneratePair(rng)
		perGen[p.Name]++
		comparePair(t, &sc, p.Name, p.A, p.B)
	}
	if len(perGen) < 12 {
		t.Errorf("only %d generators exercised: %v", len(perGen), perGen)
	}
}

// TestRunsMatchPerEdgeSuite does the same over every MBR-intersecting
// pair of the synthetic suite's Table 3 combinations at a small scale:
// float coordinates, dense rings and the benchmark's own shapes.
func TestRunsMatchPerEdgeSuite(t *testing.T) {
	suite := datagen.NewSuite(2026, 0.05)
	var sc de9im.Scratch
	pairs := 0
	for _, c := range datagen.Combos {
		left, right := suite.Sets[c[0]], suite.Sets[c[1]]
		for _, a := range left {
			for _, b := range right {
				if a.Bounds().Intersects(b.Bounds()) {
					pairs++
					comparePair(t, &sc, datagen.ComboName(c), geom.NewMultiPolygon(a), geom.NewMultiPolygon(b))
				}
			}
		}
	}
	if pairs < 100 {
		t.Fatalf("only %d MBR-intersecting suite pairs", pairs)
	}
}

func comparePair(t *testing.T, sc *de9im.Scratch, name string, a, b *geom.MultiPolygon) {
	t.Helper()
	pa, pb := de9im.Prepare(a), de9im.Prepare(b)
	for _, o := range [][2]*de9im.Prepared{{pa, pb}, {pb, pa}} {
		if got, ref := de9im.RelateScratch(o[0], o[1], sc), de9im.RelatePerEdge(o[0], o[1]); got != ref {
			t.Fatalf("%s: runs %s, per-edge %s\nr %v\ns %v", name, got, ref, o[0].Geom, o[1].Geom)
		}
	}
}
