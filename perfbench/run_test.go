package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestShortRunsPrintEveryMetric runs every workload briefly on a small
// suite, untraced and traced, and checks that the last line carries
// exactly the metrics BENCHMARK.json names, each with its unit, and
// that every answer was correct.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds topojoind and runs the daemon")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "topojoind")
	build := exec.Command("go", "build", "-o", bin, "./cmd/topojoind")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building topojoind: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			cfg := config{workload: w.Name, seed: 3, seconds: 2, trace: trace, repo: "..", bin: bin, scale: 0.1, setups: 1}
			if err := run(&out, cfg); err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d\n%s", w.Name, trace,
					res.Correct, res.Attempted, res.Failed, lines[0])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
