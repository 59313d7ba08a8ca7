// Command benchrun records one point of the repo's benchmark
// trajectory: a fixed-seed sweep of every find-relation pipeline over
// seeded synthetic workloads, reported as per-pair cost with the
// filter/refine split and allocation rate, and written as JSON — to
// stdout by default, or with -out as a BENCH_N.json artifact at the repo
// root. Each change that claims a performance effect records a new
// BENCH_N.json with the same harness, so "faster" is always a diff
// between two recorded points rather than an assertion.
//
//	benchrun -out BENCH_9.json -label BENCH_9     # record a trajectory point
//	benchrun -out run.json -compare BENCH_8.json  # diff against the latest point
//	benchrun -combos OLE:OPE -pairs 2000 -trials 3
//	benchrun -scale 0.05                          # quick run to stdout
//
// The workload is deterministic: a fixed seed produces the same
// datasets, the same candidate pairs (capped at -pairs per combo, so
// the denominator is stable across machines), and the same verdict
// splits. Timings are medians over -trials measured runs after -warmup
// discarded runs; allocations are Mallocs deltas around the timed sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/harness"
)

func main() {
	var (
		seed    = flag.Int64("seed", 2026, "generator seed")
		scale   = flag.Float64("scale", 0.2, "dataset cardinality multiplier")
		order   = flag.Uint("order", datagen.DefaultOrder, "global grid order (2^order cells per side)")
		combos  = flag.String("combos", "OLE:OPE,OBE:OPE", "comma-separated dataset combos (L:R)")
		pairs   = flag.Int("pairs", 4000, "max candidate pairs swept per combo (0 = all)")
		warmup  = flag.Int("warmup", 1, "discarded warmup sweeps per pipeline")
		trials  = flag.Int("trials", 5, "measured sweeps per pipeline (median reported)")
		out     = flag.String("out", "-", "output path (- for stdout)")
		label   = flag.String("label", "local", "benchmark point label recorded in the artifact")
		compare = flag.String("compare", "", "baseline BENCH_N.json to diff against (prints per-combo deltas, verifies fingerprints)")
		regress = flag.Float64("regress", 0, "with -compare: fail if any pipeline's ns/pair regresses more than this percent (<= 0 gates on fingerprints only)")
	)
	flag.Parse()

	cfg := config{
		Seed: *seed, Scale: *scale, Order: *order,
		Pairs: *pairs, Warmup: *warmup, Trials: *trials, Label: *label,
	}
	var err error
	if cfg.Combos, err = parseCombos(*combos); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchrun: wrote %s (%d combos × %d pipelines)\n",
			*out, len(rep.Combos), core.NumMethods)
	}
	if *compare != "" {
		base, err := loadReport(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		if err := compareReports(rep, base, *regress, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
	}
}

// config is one benchmark recording: the deterministic workload
// definition plus the measurement protocol.
type config struct {
	Label  string
	Seed   int64
	Scale  float64
	Order  uint
	Combos [][2]string
	Pairs  int // cap per combo; 0 = all candidates
	Warmup int
	Trials int
}

// Report is the artifact schema. Everything except the timing and
// allocation fields is a pure function of (seed, scale, order, combos,
// pairs) and must be byte-identical across runs and machines.
type Report struct {
	Bench   string        `json:"bench"`
	Version string        `json:"version"`
	Seed    int64         `json:"seed"`
	Scale   float64       `json:"scale"`
	Order   uint          `json:"grid_order"`
	Warmup  int           `json:"warmup"`
	Trials  int           `json:"trials"`
	GoArch  string        `json:"goarch"`
	Combos  []ComboReport `json:"combos"`
}

// ComboReport is one workload: a dataset combination's candidate pairs
// swept by all four pipelines.
type ComboReport struct {
	Combo     string           `json:"combo"`
	Pairs     int              `json:"pairs"`
	Pipelines []PipelineResult `json:"pipelines"`
}

// PipelineResult is the recorded cost of one pipeline on one workload.
// NsPerPair is the median trial's wall clock over the pair count;
// FilterNsPerPair/RefineNsPerPair split the same trial's per-stage sums
// (their total is at most NsPerPair; the gap is sweep loop overhead).
// The settled counts are the workload's deterministic fingerprint: if
// they drift between two BENCH points the workloads are not comparable.
type PipelineResult struct {
	Method          string  `json:"method"`
	NsPerPair       float64 `json:"ns_per_pair"`
	FilterNsPerPair float64 `json:"filter_ns_per_pair"`
	RefineNsPerPair float64 `json:"refine_ns_per_pair"`
	AllocsPerPair   float64 `json:"allocs_per_pair"`
	MBRSettled      int     `json:"mbr_settled"`
	IFSettled       int     `json:"if_settled"`
	Refined         int     `json:"refined"`
}

// trial is one measured sweep: the stats plus its allocation delta.
type trial struct {
	st      harness.MethodStats
	mallocs uint64
}

// run executes the recording: one preprocessed environment, then for
// each combo × pipeline, warmup sweeps followed by measured trials.
// Sweeps are serial (one goroutine) so ns/pair is CPU cost, not a
// parallel speedup that varies with the recording machine's core count.
func run(cfg config) (*Report, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("trials must be >= 1, got %d", cfg.Trials)
	}
	if len(cfg.Combos) == 0 {
		return nil, fmt.Errorf("no combos")
	}
	env, err := harness.NewEnv(cfg.Seed, cfg.Scale, cfg.Order)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Bench:   cfg.Label,
		Version: buildinfo.Version,
		Seed:    cfg.Seed,
		Scale:   cfg.Scale,
		Order:   cfg.Order,
		Warmup:  cfg.Warmup,
		Trials:  cfg.Trials,
		GoArch:  runtime.GOARCH,
	}
	for _, combo := range cfg.Combos {
		pairs, err := env.CandidatePairs(combo)
		if err != nil {
			return nil, err
		}
		if cfg.Pairs > 0 && len(pairs) > cfg.Pairs {
			pairs = pairs[:cfg.Pairs]
		}
		if len(pairs) == 0 {
			return nil, fmt.Errorf("combo %s produced no candidate pairs", datagen.ComboName(combo))
		}
		cr := ComboReport{Combo: datagen.ComboName(combo), Pairs: len(pairs)}
		for _, m := range core.Methods {
			cr.Pipelines = append(cr.Pipelines, measure(m, pairs, cfg.Warmup, cfg.Trials))
		}
		rep.Combos = append(rep.Combos, cr)
	}
	return rep, nil
}

// measure runs warmup+trials sweeps of one pipeline and reports the
// median trial (by elapsed time) so a GC pause or scheduler hiccup in
// one trial cannot skew the recorded point.
func measure(m core.Method, pairs []harness.Pair, warmup, trials int) PipelineResult {
	for i := 0; i < warmup; i++ {
		harness.RunFindRelation(m, pairs)
	}
	runs := make([]trial, trials)
	for i := range runs {
		runs[i] = measureOnce(m, pairs)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].st.Elapsed < runs[j].st.Elapsed })
	med := runs[len(runs)/2]
	n := float64(med.st.Pairs)
	return PipelineResult{
		Method:          m.String(),
		NsPerPair:       round1(float64(med.st.Elapsed.Nanoseconds()) / n),
		FilterNsPerPair: round1(float64(med.st.FilterTime.Nanoseconds()) / n),
		RefineNsPerPair: round1(float64(med.st.RefineTime.Nanoseconds()) / n),
		AllocsPerPair:   round1(float64(med.mallocs) / n),
		MBRSettled:      med.st.MBRSettled,
		IFSettled:       med.st.IFSettled,
		Refined:         med.st.Undetermined,
	}
}

// measureOnce times one serial sweep and its heap allocation count.
// The GC runs first so a collection triggered by a previous trial's
// garbage doesn't land inside this trial's wall clock.
func measureOnce(m core.Method, pairs []harness.Pair) trial {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := harness.RunFindRelation(m, pairs)
	runtime.ReadMemStats(&after)
	return trial{st: st, mallocs: after.Mallocs - before.Mallocs}
}

// parseCombos parses "OLE:OPE,OBE:OPE" into dataset combinations.
func parseCombos(s string) ([][2]string, error) {
	var out [][2]string
	for _, c := range strings.Split(s, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		l, r, ok := strings.Cut(c, ":")
		if !ok {
			return nil, fmt.Errorf("combo %q: want L:R (e.g. OLE:OPE)", c)
		}
		out = append(out, [2]string{strings.TrimSpace(l), strings.TrimSpace(r)})
	}
	return out, nil
}

// round1 keeps one decimal so artifact diffs stay readable.
func round1(v float64) float64 {
	return float64(int64(v*10+0.5)) / 10
}
