// Panic isolation for the serving path. A panic while evaluating one
// geometry pair — degenerate input, a pipeline bug, an injected fault —
// must cost exactly that pair's request, never the process: the sweep
// engine (harness.Sweep) recovers at pair granularity for joins and
// relate batches alike, the HTTP middleware recovers whatever leaks past
// it, and every recovered panic is counted, with the first pair of each
// sweep dumped as a WKT repro case in the oracle's regression-corpus
// format so the crash becomes a replayable test.
package server

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/wkt"
)

// pairPanics records the recovered pair panics of one sweep: the
// counter, one log line, and (when Config.ReproDir is set) a WKT dump
// of the first panicked pair.
func (s *Server) pairPanics(route string, pe *harness.PanicError, first harness.Pair) {
	s.met.Counter("server_pair_panics_total").Add(int64(pe.Count))
	if path := dumpReproPair(s.cfg.ReproDir, route, first.R, first.S, pe.Value); path != "" {
		s.logf("server: %s: %v (repro dumped to %s)", route, pe, path)
	} else {
		s.logf("server: %s: %v", route, pe)
	}
}

// dumpReproPair writes the pair's geometries in the oracle regression
// corpus format (`# note`, `A <wkt>`, `B <wkt>`, `V nA nB`) so the
// differential oracle replays the exact crash input. The name hashes
// the geometry, so re-hitting the same bug is idempotent. Returns ""
// when dumping is disabled or fails — the dump must never add a second
// failure mode to a request that already panicked.
func dumpReproPair(dir, tag string, r, o *core.Object, rv any) string {
	if dir == "" || r == nil || o == nil || r.Poly == nil || o.Poly == nil {
		return ""
	}
	wa := wkt.MarshalMultiPolygon(geom.NewMultiPolygon(r.Poly))
	wb := wkt.MarshalMultiPolygon(geom.NewMultiPolygon(o.Poly))
	h := fnv.New32a()
	fmt.Fprint(h, tag, wa, wb)
	note := strings.ReplaceAll(fmt.Sprintf("%v", rv), "\n", " ")
	body := fmt.Sprintf("# panic-%s: %s\nA %s\nB %s\nV %d %d\n",
		tag, note, wa, wb, r.Poly.NumVertices(), o.Poly.NumVertices())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("panic-%s-%08x.txt", tag, h.Sum32()))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return ""
	}
	return path
}

// handlerPanic records a panic that escaped every per-pair guard and
// reached the HTTP middleware (the outermost barrier).
func (s *Server) handlerPanic(route string, rv any) {
	s.met.Counter("server_handler_panics_total").Inc()
	s.logf("server: handler %s panicked: %v\n%s", route, rv, debug.Stack())
}
