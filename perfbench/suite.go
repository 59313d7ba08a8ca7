package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/wkt"
)

// suiteSeed is the synthetic suite's generator seed: the repository's
// default, so the benchmark serves the same datasets the experiments
// and topojoind -gen do. The benchmark's --seed drives the request
// streams, not the datasets, so every seed measures the same indexes.
const suiteSeed = 2026

// servedSets are the datasets topojoind loads; poolSet is read only by
// the benchmark, as the geometry pool of the ingest workload's writes.
var (
	servedSets = []string{"OBE", "OLE", "OPE"}
	poolSet    = "OLN"
)

// suite is the generated input: polygons and their WKT per dataset.
type suite struct {
	// ServeDir holds one <name>.wkt per served dataset (the -data
	// directory of the daemon).
	ServeDir string
	Polys    map[string][]*geom.Polygon
	WKT      map[string][]string
}

// sourceDigest hashes go.mod and every non-test Go file under
// internal/: the suite generator's inputs besides seed and scale. A
// commit that changes any of them gets a fresh suite cache entry.
func sourceDigest(repo string) (string, error) {
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(filepath.Join(repo, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	for _, p := range append([]string{filepath.Join(repo, "go.mod")}, files...) {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(repo, p)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// loadSuite returns the suite at scale, generating it into cacheDir on
// first use. Generation takes seconds at scale 1 and is not part of any
// metric; the cache entry is keyed by scale and the source digest.
func loadSuite(cacheDir, digest string, scale float64) (*suite, error) {
	dir := filepath.Join(cacheDir, fmt.Sprintf("suite-%d-%g-%s", suiteSeed, scale, digest))
	if _, err := os.Stat(filepath.Join(dir, "complete")); err != nil {
		if err := writeSuite(dir, scale); err != nil {
			return nil, err
		}
	}
	s := &suite{ServeDir: filepath.Join(dir, "serve"), Polys: map[string][]*geom.Polygon{}, WKT: map[string][]string{}}
	read := func(name, path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			p, err := wkt.ParsePolygon(line)
			if err != nil {
				return fmt.Errorf("%s line %d: %w", path, i+1, err)
			}
			s.Polys[name] = append(s.Polys[name], p)
			s.WKT[name] = append(s.WKT[name], line)
		}
		return nil
	}
	for _, name := range servedSets {
		if err := read(name, filepath.Join(s.ServeDir, name+".wkt")); err != nil {
			return nil, err
		}
	}
	if err := read(poolSet, filepath.Join(dir, poolSet+".wkt")); err != nil {
		return nil, err
	}
	return s, nil
}

// writeSuite generates the suite and writes it to dir atomically (a
// temporary sibling renamed into place), so an interrupted run never
// leaves a half-written cache entry behind.
func writeSuite(dir string, scale float64) error {
	gen := datagen.NewSuite(suiteSeed, scale)
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(tmp, "serve"), 0o755); err != nil {
		return err
	}
	write := func(path string, polys []*geom.Polygon, dx float64) error {
		var b strings.Builder
		for _, p := range polys {
			if dx != 0 {
				p = translate(p, dx)
			}
			b.WriteString(wkt.MarshalPolygon(p))
			b.WriteByte('\n')
		}
		return os.WriteFile(path, []byte(b.String()), 0o644)
	}
	for _, name := range servedSets {
		if err := write(filepath.Join(tmp, "serve", name+".wkt"), gen.Sets[name], 0); err != nil {
			return err
		}
	}
	// The North-American lakes moved into the European half: valid,
	// lake-shaped geometry for upserts and inserts into OLE. The shift
	// by a power of two is exact, so validity carries over.
	if err := write(filepath.Join(tmp, poolSet+".wkt"), gen.Sets[poolSet], -datagen.SpaceSide/2); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "complete"), nil, 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// translate returns p shifted by dx along x.
func translate(p *geom.Polygon, dx float64) *geom.Polygon {
	shift := func(r geom.Ring) geom.Ring {
		out := make(geom.Ring, len(r))
		for i, pt := range r {
			out[i] = geom.Point{X: pt.X + dx, Y: pt.Y}
		}
		return out
	}
	holes := make([]geom.Ring, len(p.Holes))
	for i, h := range p.Holes {
		holes[i] = shift(h)
	}
	return geom.NewPolygon(shift(p.Shell), holes...)
}
