package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the declaration at the repository root.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkJSON
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json and spec.go declare the same workloads and metrics.
func TestDeclarationsInStep(t *testing.T) {
	d := readBenchmarkJSON(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in spec.go", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, d.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, spec []metric) {
		if len(declared) != len(spec) {
			t.Fatalf("%d %s metrics declared, %d in spec.go", len(declared), kind, len(spec))
		}
		for i, m := range spec {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], spec.go %s [%s]", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end-to-end", d.EndToEnd, endToEnd)
	check("per-layer", d.PerLayer, perLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeRun drives one contract-shaped run on a tiny world and returns its
// exit code and parsed result line.
func smokeRun(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-smoke", "-dir", t.TempDir(), "--seed", "3", "--seconds", "1"}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, res
}

// Every workload's measured pass and traced pass emit exactly the declared
// metric names, with the declared units, and verify their reports; layers a
// workload does not use report 0 for their counters.
func TestSmokeEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.name)
		}
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var traced result
			for trace, declared := range [][]metric{endToEnd, perLayer} {
				code, res := smokeRun(t, "--workload", w.name, "--trace", []string{"0", "1"}[trace])
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %d: exit %d, %+v", trace, code, res)
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("trace %d: %d metrics emitted, %d declared", trace, len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("trace %d: metric %s [%s] emitted as %+v (present %v)", trace, m.name, m.unit, got, ok)
					}
				}
				traced = res
			}
			used := map[string]bool{
				"orchestrator.": w.variant == sharded || w.variant == fabric,
				"fabric.":       w.variant == fabric,
				"obs.":          w.variant == ops,
				"adversary.":    w.name == "hostile-10pct",
			}
			for prefix, want := range used {
				sum := 0.0
				for name, m := range traced.Metrics {
					if strings.HasPrefix(name, prefix) {
						sum += m.Value
					}
				}
				if (sum != 0) != want {
					t.Errorf("%s* metrics sum to %v, layer used: %v", prefix, sum, want)
				}
			}
		})
	}
}

// A report that lost one observation must fail operations and the command.
func TestPerturbedReportFails(t *testing.T) {
	t.Parallel()
	code, res := smokeRun(t, "--workload", "table3-mono", "-perturb")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("perturbed run: exit %d, %+v", code, res)
	}
}
