package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricSpec                 `json:"end_to_end"`
	PerLayer  []metricSpec                 `json:"per_layer"`
}

type metricSpec struct{ Name, Unit string }

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinySizes shrinks every workload to a few simulated seconds.
func tinySizes() sizes {
	return sizes{
		cross4Sim:          5 * time.Second,
		cross4Pairs:        1,
		serveJobs:          2,
		serveSim:           5 * time.Second,
		sweepRounds:        1,
		sweepDuration:      5 * time.Second,
		sweepDensities:     []float64{20},
		sweepFig8Densities: []float64{20},
		sweepSettings:      []string{"V1"},
	}
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case g.Unit == "" || g.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload once at a tiny
// length, traced and against a corrupted reference: the run must print
// exactly the end-to-end and per-layer metrics BENCHMARK.json names,
// with their units, and its digest gate must trip on every check and
// on nothing else.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := lookupWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %s unknown", sw.Name)
		}
		if sw.Why != w.why {
			t.Errorf("BENCHMARK.json why of %s differs from the report's", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 7, trace: true, corruptRef: true, size: tinySizes(), workdir: t.TempDir()}
			b, err := runWorkload(w, o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			res := b.result()
			if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
				t.Errorf("corrupted reference: correct=%v attempted=%d failed=%d, want every check failed",
					res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, "end-to-end", b.e2e, spec.EndToEnd)
			checkMetrics(t, "per-layer", res.Metrics, spec.PerLayer)
		})
	}
}

// TestCleanRunIsCorrect checks an untraced run passes its own gate and
// prints the end-to-end metrics as its result.
func TestCleanRunIsCorrect(t *testing.T) {
	w, _ := lookupWorkload("cross4-paper")
	b, err := runWorkload(w, runOpts{seed: 3, size: tinySizes(), workdir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	res := b.result()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("clean run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	checkMetrics(t, "end-to-end", res.Metrics, loadSpec(t).EndToEnd)
}

// TestLayerListMatchesBenchmark keeps the traced run's metric list and
// BENCHMARK.json's per_layer list identical, units included.
func TestLayerListMatchesBenchmark(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, perfbench has %s %s", i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cross4-paper", "--trace", "2"},
		{"--workload", "cross4-paper", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%q) = 0, want non-zero", args)
		}
	}
}
