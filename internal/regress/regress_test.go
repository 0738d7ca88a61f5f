package regress

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gebe/internal/api"
	"gebe/internal/experiments"
	"gebe/internal/obs"
)

func snapshot(p50, p99, sum float64, count uint64) api.LatencySnapshot {
	return api.LatencySnapshot{
		Build: obs.BuildInfo(),
		Endpoints: map[string]api.EndpointLatency{
			"recommend": {
				Count:      count,
				SumSeconds: sum,
				Quantiles:  map[string]float64{"p50": p50, "p99": p99},
			},
		},
	}
}

func TestInflatedSnapshotFailsGate(t *testing.T) {
	base := snapshot(0.010, 0.040, 0.50, 40)
	// Synthetic regression: every quantile and the mean inflated 10×.
	bad := snapshot(0.100, 0.400, 5.0, 40)

	r := CompareSnapshots(base, bad, Options{})
	if r.OK() {
		t.Fatal("10x-inflated snapshot passed the gate")
	}
	byMetric := map[string]Finding{}
	for _, f := range r.Findings {
		byMetric[f.Metric] = f
	}
	for _, m := range []string{"recommend/p50", "recommend/p99", "recommend/mean"} {
		f, ok := byMetric[m]
		if !ok {
			t.Errorf("no finding for %s (got %v)", m, r.Findings)
			continue
		}
		if f.Increase < 8.9 || f.Increase > 9.1 {
			t.Errorf("%s increase = %v, want ~9.0", m, f.Increase)
		}
	}
	if !strings.Contains(r.Summary(), "REGRESSED recommend/p99") {
		t.Errorf("summary missing finding line:\n%s", r.Summary())
	}
}

func TestIdenticalSnapshotsPass(t *testing.T) {
	base := snapshot(0.010, 0.040, 0.50, 40)
	r := CompareSnapshots(base, base, Options{})
	if !r.OK() {
		t.Fatalf("identical snapshots regressed: %s", r.Summary())
	}
	if r.Checked != 3 { // p50, p99, mean
		t.Errorf("checked = %d, want 3", r.Checked)
	}
}

func TestDoubleThreshold(t *testing.T) {
	opt := Options{Ratio: 0.5, MinDelta: 0.025}
	cases := []struct {
		name     string
		old, new float64
		regress  bool
	}{
		{"big ratio, tiny delta", 0.001, 0.010, false}, // 10x but +9ms < floor
		{"big delta, small ratio", 1.00, 1.10, false},  // +100ms but only +10%
		{"both exceeded", 0.050, 0.200, true},
		{"zero baseline, real cost", 0, 0.100, true},
		{"zero baseline, tiny cost", 0, 0.010, false},
		{"improvement", 0.200, 0.050, false},
	}
	for _, tc := range cases {
		var r Report
		r.check(opt, "m", tc.old, tc.new)
		if got := !r.OK(); got != tc.regress {
			t.Errorf("%s (%v -> %v): regressed=%v, want %v", tc.name, tc.old, tc.new, got, tc.regress)
		}
	}
}

func TestSkipsLowCountAndMissingEndpoints(t *testing.T) {
	oldS := snapshot(0.010, 0.040, 0.50, 40)
	newS := snapshot(0.100, 0.400, 5.0, 40)
	// similar only exists on the new side; recommend drops below MinCount.
	newS.Endpoints["similar"] = api.EndpointLatency{Count: 5, Quantiles: map[string]float64{"p50": 9}}
	e := newS.Endpoints["recommend"]
	e.Count = 3
	newS.Endpoints["recommend"] = e

	r := CompareSnapshots(oldS, newS, Options{MinCount: 10})
	if !r.OK() || r.Checked != 0 {
		t.Errorf("report = %+v, want nothing checked", r)
	}
}

func span(name string, d time.Duration, children ...*obs.Span) *obs.Span {
	return &obs.Span{Name: name, Duration: d, Children: children}
}

func manifest(factorSec, sweepSec float64) experiments.Manifest {
	sweeps := []*obs.Span{}
	for i := 0; i < 3; i++ {
		sweeps = append(sweeps, span("sweep", time.Duration(sweepSec*float64(time.Second))))
	}
	return experiments.Manifest{
		Experiment:     "effectiveness",
		ElapsedSeconds: factorSec + 3*sweepSec + 1,
		Trace: span("run", 0,
			span("factorize", time.Duration(factorSec*float64(time.Second)), sweeps...),
			span("eval", time.Second),
		),
	}
}

func TestManifestPhaseRegression(t *testing.T) {
	oldM := manifest(2.0, 0.5)
	newM := manifest(2.0, 2.0) // sweeps 4x slower

	r := CompareManifests(oldM, newM, Options{})
	if r.Mode != "manifest" || r.OK() {
		t.Fatalf("report = %+v, want manifest-mode regression", r)
	}
	var metrics []string
	for _, f := range r.Findings {
		metrics = append(metrics, f.Metric)
	}
	joined := strings.Join(metrics, ",")
	for _, want := range []string{"elapsed", "factorize/sweep"} {
		if !strings.Contains(joined, want) {
			t.Errorf("findings %v missing %s", metrics, want)
		}
	}
	// The factorize top-level span itself did not change.
	if strings.Contains(joined, "factorize,") || strings.HasSuffix(joined, "factorize") {
		// factorize aggregates only its own Duration (unchanged: 2s).
		t.Errorf("unchanged phase flagged: %v", metrics)
	}
}

func writeJSONFile(t *testing.T, dir, name string, v any) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	oldSnap := writeJSONFile(t, dir, "old.json", snapshot(0.010, 0.040, 0.50, 40))
	newSnap := writeJSONFile(t, dir, "new.json", snapshot(0.100, 0.400, 5.0, 40))
	oldMan := writeJSONFile(t, dir, "old_run.json", manifest(2.0, 0.5))
	newMan := writeJSONFile(t, dir, "new_run.json", manifest(2.0, 2.0))

	r, err := CompareFiles(oldSnap, newSnap, Options{})
	if err != nil || r.Mode != "latency" || r.OK() {
		t.Errorf("snapshot files: report=%+v err=%v, want latency regression", r, err)
	}
	r, err = CompareFiles(oldMan, newMan, Options{})
	if err != nil || r.Mode != "manifest" || r.OK() {
		t.Errorf("manifest files: report=%+v err=%v, want manifest regression", r, err)
	}
	if _, err := CompareFiles(oldSnap, newMan, Options{}); err == nil {
		t.Error("mixed record kinds compared without error")
	}
	if _, err := CompareFiles(filepath.Join(dir, "absent.json"), newSnap, Options{}); err == nil {
		t.Error("missing file compared without error")
	}
	junk := writeJSONFile(t, dir, "junk.json", map[string]int{"x": 1})
	if _, err := CompareFiles(junk, junk, Options{}); err == nil {
		t.Error("unrecognized record compared without error")
	}
}
