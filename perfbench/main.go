// Command perfbench is the service benchmark of topojoind. It starts
// the daemon built from this checkout as a child process, loads it with
// the synthetic suite over loopback, drives one workload for a fixed
// window and checks every answer against a reference computed
// in-process. With --trace 0 it reports end-to-end metrics; with
// --trace 1 it also replays the workload's request stream in-process
// through the public functions of each layer and reports per-layer
// metrics. Run it from the repository root through run.sh, which builds
// both binaries:
//
//	bash perfbench/run.sh --workload relate --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line
// before it is a detailed report (environment, sample counts, flags,
// and with --trace 1 every layer metric and the accounting).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// bench is one benchmark run's configuration and inputs.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	setups   int
	repo     string
	bin      string
	work     string
	suite    *suite
}

var workloads = []string{"relate", "join", "ingest"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: relate, join or ingest")
		seed     = flag.Int64("seed", 1, "seed of the request streams")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced in-process replay")
		repo     = flag.String("repo", ".", "repository root (the checkout being measured)")
		bin      = flag.String("bin", "", "topojoind binary built from the checkout")
	)
	flag.Parse()
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn,
		repo: *repo, bin: *bin, scale: 1.0, setups: 3}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is the command line of one run. The suite scale (1.0) and the
// number of daemon starts (3) are fixed by main; the benchmark's own
// tests set them lower to run quickly.
type config struct {
	workload       string
	seed           int64
	seconds, trace int
	repo, bin      string
	scale          float64
	setups         int
}

// run performs one benchmark run and writes the report and result
// lines to w.
func run(w io.Writer, cfg config) error {
	workload, seed, seconds, traceOn, bin, setups := cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.bin, cfg.setups
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (have relate, join, ingest)", workload)
	case seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case traceOn != 0 && traceOn != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	case bin == "":
		return fmt.Errorf("-bin (the topojoind binary) is required")
	}
	repo, err := filepath.Abs(cfg.repo)
	if err != nil {
		return err
	}
	cache := filepath.Join(repo, ".bench_build", "perfbench")
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cache, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	digest, err := sourceDigest(repo)
	if err != nil {
		return fmt.Errorf("hashing sources: %w", err)
	}
	env := environment(repo, digest)
	s, err := loadSuite(cache, digest, cfg.scale)
	if err != nil {
		return fmt.Errorf("suite: %w", err)
	}
	b := &bench{workload: workload, seed: seed, window: time.Duration(seconds) * time.Second,
		trace: traceOn == 1, setups: setups, repo: repo, bin: bin, work: work, suite: s}
	if b.trace {
		b.setups = 1 // the traced run reports no set-up time
	}
	ctx := context.Background()
	m, err := runE2E(ctx, b)
	if err != nil {
		return err
	}
	rep := map[string]any{"workload": workload, "seed": seed, "seconds": seconds,
		"env": env, "flags": m.Flags,
		"wrong": m.Wrong.Details, "errors": m.Errors.Details}
	metrics := endToEndMetrics(b, m, rep)
	if b.trace {
		lm, err := runTrace(b, m, rep)
		if err != nil {
			return err
		}
		metrics = lm
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	res := map[string]any{
		"correct":   m.Wrong.N == 0 && !m.Drift,
		"attempted": m.Attempted,
		"failed":    m.Failed,
		"metrics":   metrics,
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics computes the end-to-end metrics of a run and records
// the detail behind them (sample counts, per-kind and windowed
// percentiles, the issue-level names such as join_pairs_per_s) in rep.
//
// Latencies are timed from the due time (open loop) or the send (the
// closed-loop join), with failures counted as infinitely late. The
// latency metric is per request kind, combined by geometric mean: the
// kinds' latencies differ by up to tenfold (a join rotation's six
// kinds, ingest's probes and lake upserts), so a quantile of the
// mixture falls between kinds and jumps with the request count, and
// minority kinds would not count at all. The gated quantile is p10:
// on a shared virtual machine the hypervisor's steal time (reported as
// steal_share) varies from minute to minute and every latency follows
// it, the central ones most. Over five ingest runs at 5-32 % steal the
// kinds' p10 spread by 0.27 of its median, their lower quartile by 0.39
// and their median by 0.70, beyond any bound the benchmark may set.
// Work added to the costlier requests shows in cpu_ms_per_req, which
// steal moves little; the p25, p50 and tails are in the report. Set-up
// is the daemon's CPU time to its first healthy answer, least over the
// starts: stolen time inflates its wall time several times as much.
func endToEndMetrics(b *bench, m *e2e, rep map[string]any) map[string]metric {
	var all []float64
	for _, l := range m.Lat {
		all = append(all, l...)
	}
	byKind := latencyByKind(m)
	cpuPerReq := 0.0
	if m.Requests > 0 {
		cpuPerReq = ms(m.ServerCPU) / float64(m.Requests)
	}
	out := map[string]metric{
		"setup_s":        {slices.Min(m.SetupCPUS), "s"},
		"heap_mb":        {m.HeapMiB, "MiB"},
		"p10_ms":         {finite(kindMean(byKind, 0.1)), "ms"},
		"cpu_ms_per_req": {cpuPerReq, "ms"},
	}

	detail := map[string]any{"setup_wall_s": m.SetupS, "setup_cpu_s": m.SetupCPUS, "requests": len(all),
		"p50_all_ms": finite(median(all)), "p99_all_ms": finite(quantile(all, 0.99)),
		"p99_ms": finite(windowedP99(m, b.window)), "window_p99_ms": windowQuantiles(m, b.window, 0.99),
		"beyond_p99": beyond(all, 0.99), "steal_share": m.StealShare,
		"p25_ms": finite(kindMean(byKind, 0.25)), "p50_ms": finite(kindMean(byKind, 0.5)),
		"peak_rss_mb": m.PeakRSSMiB}
	for class, l := range m.Lat {
		detail[class+"_p50_ms"] = finite(median(l))
		detail[class+"_p99_ms"] = finite(quantile(l, 0.99))
	}
	kinds := map[string]any{}
	for name, l := range byKind {
		kinds[name] = map[string]any{"n": len(l), "p10_ms": finite(quantile(l, 0.1)), "p25_ms": finite(quantile(l, 0.25)),
			"p50_ms": finite(median(l)), "p99_ms": finite(quantile(l, 0.99))}
	}
	detail["kinds"] = kinds
	for class, l := range m.Lag {
		detail["lag_"+class] = l
	}
	if len(m.GapMS) > 0 {
		detail["client_gap_ms_p99"] = quantile(m.GapMS, 0.99)
	}
	if m.Wall > 0 {
		detail["join_pairs_per_s"] = float64(m.Pairs) / m.Wall.Seconds()
	}
	if m.Attempted > 0 {
		detail["failed_ratio"] = float64(m.Failed) / float64(m.Attempted)
	}
	if m.Fprint != "" {
		detail["join_fingerprint"] = m.Fprint
	}
	rep["detail"] = detail
	return out
}

// p99Windows is how many equal sub-windows p99_ms is the median over.
const p99Windows = 5

// windowedP99 is the median over p99Windows equal sub-windows of the
// run of each sub-window's p99 latency (requests assigned by due or
// send time). A single burst of interference from outside the
// benchmark moves one sub-window's p99, not the reported value.
func windowedP99(m *e2e, window time.Duration) float64 {
	return median(windowQuantiles(m, window, 0.99))
}

// windowQuantiles returns the q-quantile latency of each sub-window.
func windowQuantiles(m *e2e, window time.Duration, q float64) []float64 {
	parts := make([][]float64, p99Windows)
	for class, res := range m.Results {
		for i := range res {
			at := res[i].Sent
			if class != "join" {
				at = m.Ops[class][i].Due
			}
			w := min(int(int64(at)*p99Windows/int64(window)), p99Windows-1)
			parts[w] = append(parts[w], m.Lat[class][i])
		}
	}
	qs := make([]float64, 0, p99Windows)
	for _, p := range parts {
		if len(p) > 0 {
			qs = append(qs, quantile(p, q))
		}
	}
	return qs
}

// latencyByKind splits the latencies by request kind: the join
// rotation's six kinds, relate probes by mode, writes by mutation.
func latencyByKind(m *e2e) map[string][]float64 {
	out := map[string][]float64{}
	for class, ops := range m.Ops {
		for i := range m.Results[class] {
			var name string
			switch class {
			case "join":
				k := joinKinds[m.JoinIdx[i]]
				name = k.Left + "-" + k.Right + "-" + modeNames[k.Mode]
			case "write":
				name = "write-" + writeNames[ops[i].Write]
			default:
				name = class + "-" + modeNames[ops[i].Mode]
			}
			out[name] = append(out[name], m.Lat[class][i])
		}
	}
	return out
}

// kindMean is the geometric mean over request kinds of each kind's
// q-quantile latency.
func kindMean(byKind map[string][]float64, q float64) float64 {
	logSum := 0.0
	for _, l := range byKind {
		logSum += math.Log(quantile(l, q))
	}
	return math.Exp(logSum / float64(len(byKind)))
}
