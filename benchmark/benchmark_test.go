package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/shard"
)

// TestMain lets the test binary serve as a dist_hosts worker host.
func TestMain(m *testing.M) {
	shard.ServeIfWorker()
	os.Exit(m.Run())
}

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s benchmarkSpec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkSpec(t *testing.T) {
	s := loadSpec(t)
	if s.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", s.RunSeconds, defaultSeconds)
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", len(s.EndToEnd), len(s.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(s.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if i < len(workloads) && (workloads[i].name != w.Name || workloads[i].why != w.Why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	units := map[string]string{}
	for _, e := range endToEnd {
		units[e.name] = e.unit
	}
	e2e := map[string]bool{}
	for _, e := range s.EndToEnd {
		name(e.Name)
		e2e[e.Name] = true
		if units[e.Name] != e.Unit {
			t.Errorf("end-to-end %s: unit %q, the program prints %q", e.Name, e.Unit, units[e.Name])
		}
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", e.Name, e.Bound, e.Better)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}

	layers := map[string]layerMetric{}
	for _, l := range layerMetrics {
		layers[l.name] = l
	}
	for _, p := range s.PerLayer {
		name(p.Name)
		l, ok := layers[p.Name]
		if !ok {
			t.Errorf("per-layer %s is not computed by the program", p.Name)
			continue
		}
		if l.unit != p.Unit || l.better != p.Better {
			t.Errorf("per-layer %s: %s/%s in BENCHMARK.json, %s/%s in the program", p.Name, p.Unit, p.Better, l.unit, l.better)
		}
		// Moves must name an end-to-end metric and workloads it moves.
		metric, wls, ok := strings.Cut(strings.Fields(l.moves)[0], "@")
		if !ok || !e2e[metric] {
			t.Errorf("per-layer %s moves %q: no end-to-end metric", p.Name, l.moves)
		}
		for _, w := range strings.Split(wls, ",") {
			if workloadByName(w) == nil {
				t.Errorf("per-layer %s moves %q: unknown workload %q", p.Name, l.moves, w)
			}
		}
	}
	if len(s.PerLayer) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(s.PerLayer), len(layerMetrics))
	}
}

func runShort(t *testing.T, workload string, seed int64, trace int, expectedPath string) (*result, string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	res, err := runBenchmark(options{
		workload: workload,
		seed:     seed,
		seconds:  defaultSeconds,
		trace:    trace,
		spans:    filepath.Join(t.TempDir(), "spans.json"),
		short:    true,
		expected: expectedPath,
	}, &out, &errOut)
	if errOut.Len() > 0 {
		t.Log(errOut.String())
	}
	return res, out.String(), err
}

// printed checks every metric is in the JSON result and printed as a
// "name value unit" line.
func printed(t *testing.T, res *result, out, name, unit string) {
	t.Helper()
	if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
		t.Errorf("%s missing from the result or not in %s: %+v", name, unit, m)
	}
	if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +-?[0-9.]+ ` + regexp.QuoteMeta(unit) + `$`).MatchString(out) {
		t.Errorf("%s is not printed with its unit %s", name, unit)
	}
}

// TestWorkloadsShort runs every workload at smoke-test sizes on the default
// and the held-out seed, untraced and traced.
func TestWorkloadsShort(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, seed := range pinnedSeeds {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && seed != 1 {
					continue
				}
				t.Run(fmt.Sprintf("%s/seed%d/trace%d", w.name, seed, trace), func(t *testing.T) {
					res, out, err := runShort(t, w.name, seed, trace, "")
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("correct=%v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
					}
					if trace == 0 {
						for _, e := range s.EndToEnd {
							printed(t, res, out, e.Name, e.Unit)
						}
						if !regexp.MustCompile(`(?m)^error_rate +0\.000000 ratio$`).MatchString(out) {
							t.Error("error_rate is not printed as 0")
						}
						return
					}
					for _, p := range s.PerLayer {
						printed(t, res, out, p.Name, p.Unit)
					}
				})
			}
		}
	}
}

// TestCorruptedDigestFails checks a pinned digest is actually enforced.
func TestCorruptedDigestFails(t *testing.T) {
	e, err := loadExpected("")
	if err != nil {
		t.Fatal(err)
	}
	key := pinKey("serve_regrade", fragPhase, 1)
	if _, ok := e.Digests[key]; !ok {
		t.Fatalf("no pinned digest %s", key)
	}
	e.Digests[key] = strings.Repeat("0", 64)
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := e.write(path); err != nil {
		t.Fatal(err)
	}
	res, _, err := runShort(t, "serve_regrade", 1, 0, path)
	if err == nil && res.Correct {
		t.Fatal("the run passed against a corrupted digest")
	}
}
