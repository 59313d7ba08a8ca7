package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"
)

// op is one pre-encoded request of a stream. Bodies are encoded before
// timing starts, so the client's JSON work never lands in a latency.
type op struct {
	// Due is the send time as an offset from the stream start (open
	// loop); closed-loop streams ignore it.
	Due    time.Duration
	Kind   int // index into the workload's request kinds
	Method string
	Path   string
	Body   []byte

	// Identity of the request for the answer checks.
	Probe int    // relate reads: index of the probe in OPE
	DS    string // relate reads: dataset probed
	Mode  int    // relate reads and joins: modeFind, modePred, modeMask
	Write int    // ingest writes: writeInsert, writeUpsert, writeDelete
	ID    int    // ingest writes: object id (predicted for inserts)
	Pool  int    // ingest inserts and upserts: index into the pool
}

// result is one request's outcome, times as offsets from stream start.
type result struct {
	Released time.Duration // handed to a connection (open loop)
	Sent     time.Duration
	Done     time.Duration
	Status   int
	Body     []byte
	Err      error
}

// requestTimeout fails a request the daemon has not answered in time:
// the run must end within its deadline whatever the daemon does.
const requestTimeout = 30 * time.Second

// newClient returns an HTTP client that opens at most conns
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one request and reads the whole response.
func do(ctx context.Context, cl *http.Client, base string, o *op) (int, []byte, error) {
	var body io.Reader
	if o.Body != nil {
		body = bytes.NewReader(o.Body)
	}
	req, err := http.NewRequestWithContext(ctx, o.Method, base+o.Path, body)
	if err != nil {
		return 0, nil, err
	}
	if o.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// warmConns opens n keep-alive connections on cl before timing starts,
// so no measured request pays a TCP handshake.
func warmConns(ctx context.Context, cl *http.Client, base string, n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = do(ctx, cl, base, &op{Method: http.MethodGet, Path: "/v1/healthz"}) // best effort
		}()
	}
	wg.Wait()
}

// poissonDues returns the arrival offsets of a Poisson process at rate
// per second over window, conditioned on its expected count: rate ×
// window arrivals at uniform random offsets, sorted (given their
// number, the arrival times of a Poisson process are independent and
// uniform over the window). Fixing the count keeps the offered load
// the same on every seed; rng draws only the timing.
func poissonDues(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	slices.Sort(out)
	return out
}

// runOpenLoop sends ops on their schedule over conns connections. A
// dispatcher releases each op at its due time whatever the state of
// earlier requests; a free worker sends it. Latency is timed from the
// due time, so a stall also charges the requests queued behind it.
func runOpenLoop(ctx context.Context, cl *http.Client, base string, ops []op, conns int, start time.Time) []result {
	res := make([]result, len(ops))
	queue := make(chan int, len(ops)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &res[i]
				r.Sent = time.Since(start)
				r.Status, r.Body, r.Err = do(ctx, cl, base, &ops[i])
				r.Done = time.Since(start)
			}
		}()
	}
	for i := range ops {
		if d := ops[i].Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		res[i].Released = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// runClosedLoop sends the rotation's ops back to back on one
// connection, beginning at rotation index first, until window has
// passed. It returns the results and the rotation index of each.
func runClosedLoop(ctx context.Context, cl *http.Client, base string, rotation []op, first int, window time.Duration) ([]result, []int) {
	var res []result
	var idx []int
	start := time.Now()
	for i := first; time.Since(start) < window; i++ {
		k := i % len(rotation)
		r := result{Sent: time.Since(start)}
		r.Released = r.Sent
		r.Status, r.Body, r.Err = do(ctx, cl, base, &rotation[k])
		r.Done = time.Since(start)
		res = append(res, r)
		idx = append(idx, k)
	}
	return res, idx
}
