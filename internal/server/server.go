package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing query requests
	// (default 4 × GOMAXPROCS: queries are CPU-bound, a small multiple
	// keeps the cores busy while one request waits in a batch window).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot (default MaxInFlight);
	// beyond it requests are rejected immediately with 429.
	MaxQueue int
	// QueueWait is how long a queued request waits for a slot before
	// 429 (default 100ms — shedding beats queueing at saturation).
	QueueWait time.Duration
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 10s); MaxTimeout clamps what a request may ask for
	// (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// JoinWorkers sizes the worker pools of the join sweep and the
	// relate batch sweep (default GOMAXPROCS).
	JoinWorkers int
	// BatchWindow and MaxBatch shape relate micro-batching: probes
	// arriving within BatchWindow (default 250µs) are grouped up to
	// MaxBatch (default 64) and share one sweep.
	BatchWindow time.Duration
	MaxBatch    int
	// DefaultLimit and MaxLimit bound the matches/pairs a response may
	// carry (defaults 1000 and 100000).
	DefaultLimit int
	MaxLimit     int
	// Metrics receives all instrumentation (default: a fresh registry).
	Metrics *obs.Registry
	// ReproDir, when set, receives a WKT dump (oracle regression-corpus
	// format) of every geometry pair whose evaluation panicked, so
	// crashes become replayable test cases. Empty disables dumping.
	ReproDir string
	// Tracer, when non-nil, records request-scoped span traces: every
	// request gets a root span, sampled ones a full handler → sweep
	// worker → settling-stage tree, and requests crossing the tracer's
	// slow threshold are kept regardless of sampling. The buffer is
	// served on /debug/traces.
	Tracer *trace.Tracer
	// SlowDir, when set together with a Tracer whose SlowThreshold is
	// on, receives slow-query forensics: the slow request's trace as
	// JSON plus a WKT dump of its slowest pair in the oracle
	// regression-corpus format (same as ReproDir panic dumps), so a
	// latency outlier becomes a replayable input.
	SlowDir string
	// Shard, when non-nil, runs the server as one shard of a
	// partitioned deployment: candidate pairs whose reference point
	// (the min corner of the two MBRs' intersection) falls outside the
	// shard's key range are dropped before evaluation, so boundary
	// pairs replicated across shards are answered by exactly one of
	// them and a scatter-gather merge reproduces the single-node
	// result. The registry serving this config must be filtered with
	// the same assignment (Registry.SetShard).
	Shard *shard.Assignment
	// Logf receives the server's operational log lines (recovered
	// panics, degraded-mode transitions); default discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.JoinWorkers <= 0 {
		c.JoinWorkers = runtime.GOMAXPROCS(0)
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 250 * time.Microsecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 1000
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 100000
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the topology query service: once-built indexes from a
// Registry behind an HTTP JSON API with admission control, per-request
// deadlines, relate micro-batching and graceful drain.
type Server struct {
	cfg  Config
	data *Registry
	met  *obs.Registry
	mux  *http.ServeMux
	adm  *admission
	bat  *batcher

	// rootCtx is cancelled when the drain grace expires (or Close runs):
	// it force-cancels every in-flight request context and stops the
	// batcher dispatcher.
	rootCtx    context.Context
	rootCancel context.CancelCauseFunc

	wg       sync.WaitGroup // in-flight requests
	draining atomic.Bool

	rejected *obs.Counter
	timeouts *obs.Counter
	logf     func(format string, args ...any)

	tracer  *trace.Tracer
	slowThr time.Duration
	// owns is the shard-mode ownership predicate over candidate MBR
	// pairs (nil when the server owns the whole keyspace).
	owns func(a, b geom.MBR) bool
	// degServed counts requests answered by the forced ST2 pipeline
	// while a dataset involved was degraded, per route.
	degServed map[string]*obs.Counter

	// testHook, when non-nil, runs inside every admitted request before
	// the real work — lifecycle tests use it to hold slots at a gate.
	testHook func(ctx context.Context) error
}

// New assembles a server over the registry's datasets.
func New(data *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := cfg.Metrics
	s := &Server{
		cfg:      cfg,
		data:     data,
		met:      met,
		mux:      http.NewServeMux(),
		rejected: met.Counter("server_rejected_total{reason=\"overload\"}"),
		timeouts: met.Counter("server_rejected_total{reason=\"deadline\"}"),
		logf:     cfg.Logf,
		tracer:   cfg.Tracer,
		slowThr:  cfg.Tracer.SlowThreshold(),
		degServed: map[string]*obs.Counter{
			"relate": met.Counter(obs.Name("server_degraded_requests_total", "route", "relate")),
			"join":   met.Counter(obs.Name("server_degraded_requests_total", "route", "join")),
		},
	}
	if cfg.Shard != nil {
		s.owns = cfg.Shard.Owns
	}
	s.installSlowLog()
	s.rootCtx, s.rootCancel = context.WithCancelCause(context.Background())
	s.adm = newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait,
		met.Gauge("server_inflight"), met.Gauge("server_queue_depth"))
	s.bat = newBatcher(cfg.BatchWindow, cfg.MaxBatch, cfg.JoinWorkers, met,
		func(pe *harness.PanicError, first harness.Pair) { s.pairPanics("relate", pe, first) })
	go s.bat.run(s.rootCtx)

	// Build identity: constant gauge, labels carry the facts.
	met.GaugeFunc(obs.Name("stj_build_info",
		"version", buildinfo.Version,
		"go", buildinfo.GoVersion(),
		"grid_order", fmt.Sprint(data.Builder().Grid().Order())),
		func() int64 { return 1 })

	s.mux.HandleFunc("GET /v1/healthz", s.route("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /v1/datasets", s.route("datasets", false, s.handleDatasets))
	s.mux.HandleFunc("GET /v1/metricz", s.route("metricz", false, s.handleMetricz))
	s.mux.HandleFunc("POST /v1/relate", s.route("relate", true, s.handleRelate))
	s.mux.HandleFunc("POST /v1/join", s.route("join", true, s.handleJoin))
	s.registerIngestRoutes()
	// The PR-1 debug surface rides on the same server: metrics scrapes
	// and live profiles come from the serving process itself. The trace
	// buffer mounts under the same /debug/ tree (nil-tracer safe).
	debug := obs.Handler(met, obs.Mount{Pattern: "/debug/traces", Handler: cfg.Tracer.Handler()})
	s.mux.Handle("/metrics", debug)
	s.mux.Handle("/metrics.json", debug)
	s.mux.Handle("/debug/", debug)
	return s
}

// Handler returns the service's HTTP handler (mount it on any server).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the instrumentation registry.
func (s *Server) Metrics() *obs.Registry { return s.met }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the service: new requests get 503 immediately,
// in-flight requests run to completion, and when ctx expires before
// they finish their contexts are force-cancelled (the sweeps are
// context-aware, so they unwind promptly) and ctx's error is returned.
// The caller separately shuts down the http.Server carrying the
// handler; Shutdown only manages the service's own work.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.rootCancel(errors.New("server: shut down"))
		return nil
	case <-ctx.Done():
		s.rootCancel(fmt.Errorf("server: drain grace expired: %w", ctx.Err()))
		<-done // sweeps unwind on cancellation; wait for handlers to exit
		return ctx.Err()
	}
}

// Close force-stops without draining (tests and error paths).
func (s *Server) Close() {
	s.draining.Store(true)
	s.rootCancel(errors.New("server: closed"))
	s.wg.Wait()
}

// httpError carries a status code (and an optional machine-readable
// reason code) through a handler's error return.
type httpError struct {
	code   int
	msg    string
	reason string
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errfr is errf with a stable reason code for the error envelope, so
// clients can branch on the cause without parsing the message text.
func errfr(code int, reason, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...), reason: reason}
}

// errorReason extracts the machine-readable reason, if the handler set
// one.
func errorReason(err error) string {
	var he *httpError
	if errors.As(err, &he) {
		return he.reason
	}
	return ""
}

// handlerFunc is the shape of every endpoint: decode from r, return a
// JSON-encodable payload or an error the middleware maps to a status.
type handlerFunc func(ctx context.Context, r *http.Request) (any, error)

// route wraps an endpoint with the service middleware: drain check,
// in-flight tracking, admission (for query endpoints), per-endpoint
// request counters and latency histograms, and error → status mapping.
func (s *Server) route(name string, admit bool, h handlerFunc) http.HandlerFunc {
	lat := s.met.Histogram(obs.Name("server_request_seconds", "route", name), obs.DurationBuckets)
	codeCtr := func(code int) *obs.Counter {
		return s.met.Counter(obs.Name("server_requests_total", "route", name, "code", fmt.Sprint(code)))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		span := obs.StartSpan(lat)
		// Every request gets a trace root span (one small allocation);
		// whether children record was decided by the tracer's sampling
		// coin. finish closes both timers exactly once per exit path and,
		// when the trace is kept, plants its id as the latency bucket's
		// exemplar — the histogram outlier links to its trace. A caller
		// that already carries a trace (the scatter-gather router)
		// propagates its id via TraceHeader; adopting it as this root's
		// id stitches the two processes' span trees together.
		var tctx context.Context
		var rsp *trace.Span
		if pid, ok := trace.ParseID(r.Header.Get(TraceHeader)); ok {
			tctx, rsp = s.tracer.StartRemote(r.Context(), "http."+name, pid)
			rsp.SetStr("remote_parent", "true")
		} else {
			tctx, rsp = s.tracer.Start(r.Context(), "http."+name)
		}
		finish := func(code int) {
			codeCtr(code).Inc()
			rsp.SetInt("http_status", int64(code))
			d := span.End()
			rsp.End()
			if rsp.Recording() || (s.slowThr > 0 && d >= s.slowThr) {
				lat.SetExemplar(d.Seconds(), rsp.TraceID())
			}
		}
		// Outermost panic barrier: whatever escapes the sweep engine's
		// per-pair barrier costs this request a 500, never the process.
		// The handler has not written its response yet when it can still
		// panic (payload encoding happens after it returns), so the error
		// write is safe.
		wrote := false
		defer func() {
			if rv := recover(); rv != nil {
				s.handlerPanic(name, rv)
				rsp.SetStr("panic", fmt.Sprint(rv))
				if !wrote {
					writeError(w, http.StatusInternalServerError, "internal error")
					finish(http.StatusInternalServerError)
				} else {
					finish(http.StatusOK)
				}
			}
		}()
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			finish(http.StatusServiceUnavailable)
			return
		}
		s.wg.Add(1)
		defer s.wg.Done()

		// Tie the request to the drain lifecycle: when the grace period
		// expires, rootCtx cancels every in-flight request context.
		ctx, cancel := context.WithCancel(tctx)
		defer cancel()
		stop := context.AfterFunc(s.rootCtx, cancel)
		defer stop()

		if admit {
			release, err := s.adm.acquire(ctx)
			if err != nil {
				code := s.admissionCode(err)
				writeError(w, code, err.Error())
				finish(code)
				return
			}
			defer release()
		}

		payload, err := h(ctx, r)
		code := http.StatusOK
		wrote = true
		if err != nil {
			code = s.errorCode(err)
			writeErrorReason(w, code, err.Error(), errorReason(err))
		} else {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(payload)
		}
		finish(code)
	}
}

func (s *Server) admissionCode(err error) int {
	switch {
	case errors.Is(err, errOverload):
		s.rejected.Inc()
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		return http.StatusGatewayTimeout
	default:
		return http.StatusServiceUnavailable
	}
}

func (s *Server) errorCode(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away or drain grace expired mid-request.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeErrorReason(w, code, msg, "")
}

func writeErrorReason(w http.ResponseWriter, code int, msg, reason string) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		// Queue wait already absorbed sub-second bursts; tell clients to
		// back off for a beat instead of hammering.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg, Reason: reason})
}

// requestCtx applies the request's deadline: timeoutMS if given
// (clamped to MaxTimeout), the server default otherwise.
func (s *Server) requestCtx(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(ctx, d)
}

func (s *Server) handleHealthz(ctx context.Context, r *http.Request) (any, error) {
	degraded, rebuilding := s.data.States()
	status := "ok"
	if len(degraded)+len(rebuilding) > 0 {
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
	}
	var degServed int64
	for _, c := range s.degServed {
		degServed += c.Value()
	}
	var si *ShardInfo
	if a := s.cfg.Shard; a != nil {
		si = &ShardInfo{Index: a.Index(), KeyRange: a.Range().String(), RouteOrder: a.RouteOrder()}
	}
	return HealthResponse{
		Status: status,
		Build: BuildInfo{
			Version:   buildinfo.Version,
			Go:        buildinfo.GoVersion(),
			GridOrder: s.data.Builder().Grid().Order(),
		},
		Datasets:        s.data.Len(),
		InFlight:        s.met.Gauge("server_inflight").Value(),
		Queued:          s.met.Gauge("server_queue_depth").Value(),
		Degraded:        degraded,
		Rebuilding:      rebuilding,
		DegradedServed:  degServed,
		Shard:           si,
		WalPendingBytes: s.data.WalPendingBytes(),
	}, nil
}

// handleMetricz serves the full metrics snapshot as JSON on the main
// API port, so operators behind a firewall that only exposes the API
// don't need the separate -metrics debug listener.
func (s *Server) handleMetricz(ctx context.Context, r *http.Request) (any, error) {
	return s.met.Snapshot(), nil
}

func (s *Server) handleDatasets(ctx context.Context, r *http.Request) (any, error) {
	return s.data.List(), nil
}

func decodeBody(r *http.Request, into any) error {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 16<<20))
	if err != nil {
		return errf(http.StatusBadRequest, "reading body: %v", err)
	}
	if err := json.Unmarshal(body, into); err != nil {
		return errf(http.StatusBadRequest, "decoding request: %v", err)
	}
	return nil
}

func parseMethod(name string) (core.Method, error) {
	if name == "" {
		return core.PC, nil
	}
	for _, m := range core.Methods {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, errf(http.StatusBadRequest, "unknown method %q", name)
}

func parseRelation(name string) (de9im.Relation, error) {
	for rel := de9im.Relation(0); int(rel) < de9im.NumRelations; rel++ {
		if rel.String() == name {
			return rel, nil
		}
	}
	return 0, errf(http.StatusBadRequest, "unknown predicate %q", name)
}

// probeGeometry extracts the probe polygon from a relate request,
// mapping decode failures to 400s.
func probeGeometry(req *RelateRequest) (*geom.Polygon, error) {
	p, err := req.Geometry()
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	return p, nil
}

func (s *Server) clampLimit(limit int) int {
	if limit <= 0 {
		return s.cfg.DefaultLimit
	}
	if limit > s.cfg.MaxLimit {
		return s.cfg.MaxLimit
	}
	return limit
}

func (s *Server) handleRelate(ctx context.Context, r *http.Request) (any, error) {
	var req RelateRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	entry, ok := s.data.Get(req.Dataset)
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown dataset %q", req.Dataset)
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		return nil, err
	}
	rsp := trace.FromContext(ctx)
	rsp.SetStr("dataset", req.Dataset)
	if entry.Degraded {
		// The entry has no approximations (post-corruption rebuild in
		// flight); ST2 never reads them, so answers stay correct. An
		// interval filter over empty lists would be silently wrong.
		method = core.ST2
		s.degServed["relate"].Inc()
		rsp.SetStr("degraded", "true")
	}
	rsp.SetStr("method", method.String())
	job := &probeJob{
		entry:  entry,
		method: method,
		limit:  s.clampLimit(req.Limit),
		done:   make(chan error, 1),
		owns:   s.owns,
	}
	job.tally.Span = rsp
	switch {
	case req.Predicate != "" && req.Mask != "":
		return nil, errf(http.StatusBadRequest, "give predicate or mask, not both")
	case req.Predicate != "":
		if job.pred, err = parseRelation(req.Predicate); err != nil {
			return nil, err
		}
		job.mode = modePred
	case req.Mask != "":
		if job.mask, err = de9im.ParseMask(req.Mask); err != nil {
			return nil, errf(http.StatusBadRequest, "mask: %v", err)
		}
		job.mode = modeMask
	}
	poly, err := probeGeometry(&req)
	if err != nil {
		return nil, err
	}
	if job.probe, err = s.data.Probe(poly); err != nil {
		return nil, errf(http.StatusBadRequest, "probe geometry: %v", err)
	}

	rctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()
	job.ctx = rctx

	if s.testHook != nil {
		if err := s.testHook(rctx); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	select {
	case s.bat.jobs <- job:
	case <-rctx.Done():
		return nil, rctx.Err()
	}
	select {
	case err := <-job.done:
		if err != nil {
			return nil, err
		}
	case <-rctx.Done():
		return nil, rctx.Err()
	}
	elapsed := time.Since(start)
	tally := &job.tally
	rsp.SetInt("candidates", int64(job.candidates))
	rsp.SetInt("evaluated", int64(tally.Pairs))
	rsp.SetInt("refined", int64(tally.Refined))
	if slow, slowDur := tally.SlowPair, tally.SlowPairTime; slowDur > 0 {
		rsp.SetInt("slow_candidate_id", int64(slow.S.ID))
		rsp.SetInt("slow_candidate_ns", int64(slowDur))
		if s.slowThr > 0 && elapsed >= s.slowThr {
			s.dumpSlowPair("relate", rsp.TraceID(), slow.R, slow.S, slowDur)
		}
	}
	matches := job.matches
	if matches == nil {
		matches = []RelateMatch{}
	}
	return RelateResponse{
		Dataset:      req.Dataset,
		Candidates:   job.candidates,
		Evaluated:    tally.Pairs,
		Refined:      tally.Refined,
		Matches:      matches,
		Truncated:    job.truncated,
		BatchSize:    job.batchSize,
		ElapsedMS:    float64(elapsed) / float64(time.Millisecond),
		Epoch:        entry.Epoch,
		IndexVersion: entry.Version,
	}, nil
}

func (s *Server) handleJoin(ctx context.Context, r *http.Request) (any, error) {
	var req JoinRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	left, ok := s.data.Get(req.Left)
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown dataset %q", req.Left)
	}
	right, ok := s.data.Get(req.Right)
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown dataset %q", req.Right)
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		return nil, err
	}
	rsp := trace.FromContext(ctx)
	rsp.SetStr("left", req.Left)
	rsp.SetStr("right", req.Right)
	if left.Degraded || right.Degraded {
		method = core.ST2 // see handleRelate: degraded entries carry no approximations
		s.degServed["join"].Inc()
		rsp.SetStr("degraded", "true")
	}
	rsp.SetStr("method", method.String())
	if req.Predicate != "" && req.Mask != "" {
		return nil, errf(http.StatusBadRequest, "give predicate or mask, not both")
	}
	resp := JoinResponse{
		Left: req.Left, Right: req.Right,
		LeftEpoch: left.Epoch, LeftVersion: left.Version,
		RightEpoch: right.Epoch, RightVersion: right.Version,
	}
	limit := s.clampLimit(req.Limit)
	var mu sync.Mutex
	addPair := func(p JoinPair, holds bool) {
		mu.Lock()
		defer mu.Unlock()
		if holds {
			resp.Holds++
		}
		if len(resp.Pairs) >= limit {
			resp.Truncated = true
			return
		}
		resp.Pairs = append(resp.Pairs, p)
	}
	// The per-pair operation for the sweep engine: relate_p or a mask;
	// nil selects find-relation, through its harness entry point.
	var pairs []harness.Pair
	var op harness.Op
	switch {
	case req.Predicate != "":
		pred, err := parseRelation(req.Predicate)
		if err != nil {
			return nil, err
		}
		op = func(w *harness.Worker, i int) {
			if p := pairs[i]; w.RelatePred(method, p.R, p.S, pred).Holds {
				addPair(JoinPair{LeftID: p.R.ID, RightID: p.S.ID, Relation: pred.String()}, true)
			}
		}
	case req.Mask != "":
		mask, err := de9im.ParseMask(req.Mask)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "mask: %v", err)
		}
		op = func(w *harness.Worker, i int) {
			if p := pairs[i]; w.RelateMask(method, p.R, p.S, mask).Holds {
				addPair(JoinPair{LeftID: p.R.ID, RightID: p.S.ID}, true)
			}
		}
	}

	rctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()

	if s.testHook != nil {
		if err := s.testHook(rctx); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	// Candidate generation: synchronized R-tree traversal over the two
	// once-built indexes, abandoned mid-tree when the deadline expires.
	csp := rsp.Child("candidates")
	err = join.JoinViews(rctx, left.View(), right.View(), func(aDelta, bDelta bool, a, b join.Entry) {
		// Shard mode: skip candidate pairs this shard does not own
		// under the reference-point rule — the shard holding the
		// intersection's min corner evaluates them instead, so each
		// boundary pair is answered exactly once fleet-wide.
		if s.owns != nil && !s.owns(a.Box, b.Box) {
			return
		}
		pairs = append(pairs, harness.Pair{R: left.objAt(aDelta, a.ID), S: right.objAt(bDelta, b.ID)})
	})
	csp.SetInt("pairs", int64(len(pairs)))
	csp.End()
	if err != nil {
		return nil, err
	}
	rsp.SetInt("candidates", int64(len(pairs)))
	resp.Candidates = len(pairs)

	var st harness.MethodStats
	if op != nil {
		st, err = harness.Sweep(rctx, pairs, s.cfg.JoinWorkers, nil, op)
	} else {
		st, err = harness.RunFindRelationParallelCtx(rctx, method, pairs, s.cfg.JoinWorkers,
			func(i int, res core.Result) {
				if res.Relation != de9im.Disjoint {
					addPair(JoinPair{
						LeftID:   pairs[i].R.ID,
						RightID:  pairs[i].S.ID,
						Relation: res.Relation.String(),
					}, false)
				}
			})
		resp.Relations = make(map[string]int)
		for rel, n := range st.Relations {
			if n > 0 {
				resp.Relations[de9im.Relation(rel).String()] = n
			}
		}
		st.Publish(s.met, "server_join")
	}
	var pe *harness.PanicError
	if errors.As(err, &pe) {
		// The engine recovered the panic at pair granularity and swept
		// everything else; surface it as a per-request error with the
		// offending pair preserved as a repro case.
		s.pairPanics("join", pe, pairs[pe.Index])
		err = errf(http.StatusInternalServerError, "%v", pe)
	}
	if err != nil {
		return nil, err
	}
	resp.Evaluated = st.Pairs
	resp.Refined = st.Undetermined
	slowIdx, slowDur := st.SlowPair, st.SlowPairTime
	elapsed := time.Since(start)
	rsp.SetInt("evaluated", int64(resp.Evaluated))
	rsp.SetInt("refined", int64(resp.Refined))
	// Slow-pair forensics ride the root span even on unsampled traces:
	// a slow request kept root-only still names its worst pair.
	if slowDur > 0 && slowIdx >= 0 && slowIdx < len(pairs) {
		p := pairs[slowIdx]
		rsp.SetInt("slow_pair_r", int64(p.R.ID))
		rsp.SetInt("slow_pair_s", int64(p.S.ID))
		rsp.SetInt("slow_pair_ns", int64(slowDur))
		if s.slowThr > 0 && elapsed >= s.slowThr {
			s.dumpSlowPair("join", rsp.TraceID(), p.R, p.S, slowDur)
		}
	}
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	return resp, nil
}
