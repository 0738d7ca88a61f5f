package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestInputsDeterministic pins that the generated input files depend on
// the seed alone: the same seed writes identical bytes, another seed
// different ones. The printed hashes then prove that two builds of the
// program were measured on the same inputs.
func TestInputsDeterministic(t *testing.T) {
	trainHash := func(seed uint64) string {
		in, err := makeTrainInput(t.TempDir(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return in.hash
	}
	serveHashes := func(seed uint64) [2]string {
		in, err := makeServeInput(t.TempDir(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return [2]string{in.embHash, in.trainHash}
	}
	if a, b := trainHash(3), trainHash(3); a != b {
		t.Errorf("train input: seed 3 gave %s then %s", a, b)
	}
	if a, b := trainHash(3), trainHash(4); a == b {
		t.Errorf("train input: seeds 3 and 4 both gave %s", a)
	}
	a, b := serveHashes(3), serveHashes(3)
	if a != b {
		t.Errorf("serve inputs: seed 3 gave %v then %v", a, b)
	}
	c := serveHashes(4)
	if a[0] == c[0] || a[1] == c[1] {
		t.Errorf("serve inputs: seeds 3 and 4 share a file hash: %v, %v", a, c)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics, with the units, that this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, program has %v", got, want)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
