// Package regress is the performance regression gate: it compares two
// performance records — serve latency snapshots (SERVE_LATENCY.json),
// experiment run manifests (RUN_<exp>.json), or gebe-bench microbench
// reports (BENCH_SPMM/DENSE/ANN.json) — and reports increases that
// exceed both a relative threshold and an absolute floor. CI runs it
// through cmd/gebe-regress against the committed baseline, turning
// "the serving layer got slower" from an anecdote into a failed check.
//
// The double threshold matters: sub-millisecond quantiles jitter by
// large ratios on shared runners, so a pure ratio gate would cry wolf,
// and a pure absolute gate would let a 10× regression on a fast
// endpoint slide. A metric regresses only when it grew by more than
// Ratio relatively AND MinDelta absolutely.
package regress

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gebe/internal/api"
	"gebe/internal/experiments"
	"gebe/internal/obs"
)

// Options tunes the gate.
type Options struct {
	// Ratio is the allowed fractional increase before a metric counts
	// as regressed (0.5 = +50%). Zero selects the default 0.5.
	Ratio float64
	// MinDelta is the absolute increase floor in seconds; increases
	// smaller than this never regress regardless of ratio. Zero selects
	// the default 25ms.
	MinDelta float64
	// MinCount skips endpoints with fewer observations on either side
	// (their quantiles are noise). Zero selects the default 1.
	MinCount uint64
	// RecallFloor is the minimum recall@10 at the default probe the ann
	// gate accepts regardless of the baseline. Zero selects 0.95.
	RecallFloor float64
	// SIMDFloor is the minimum best-in-class SIMD-over-Go speedup a
	// fresh kernel grid must show for the k16 and panel8 width classes
	// (bench mode only). Zero disables the floor — unlike the fields
	// above it has no non-zero default, because grids produced without
	// vector kernels carry no speedups to gate.
	SIMDFloor float64
}

func (o Options) withDefaults() Options {
	if o.Ratio == 0 {
		o.Ratio = 0.5
	}
	if o.MinDelta == 0 {
		o.MinDelta = 0.025
	}
	if o.MinCount == 0 {
		o.MinCount = 1
	}
	if o.RecallFloor == 0 {
		o.RecallFloor = 0.95
	}
	return o
}

// Finding is one regressed metric.
type Finding struct {
	Metric   string  `json:"metric"`
	Old      float64 `json:"old_seconds"`
	New      float64 `json:"new_seconds"`
	Increase float64 `json:"increase"` // fractional, e.g. 1.5 = +150%
	// Note marks unitless findings (recall, latency ratios): when set,
	// Old/New are plain numbers, not seconds, and Note says what broke.
	Note string `json:"note,omitempty"`
}

func (f Finding) String() string {
	if f.Note != "" {
		return fmt.Sprintf("%s: %.4g -> %.4g (%s)", f.Metric, f.Old, f.New, f.Note)
	}
	return fmt.Sprintf("%s: %s -> %s (+%.0f%%)", f.Metric,
		time.Duration(f.Old*float64(time.Second)).Round(time.Microsecond),
		time.Duration(f.New*float64(time.Second)).Round(time.Microsecond),
		f.Increase*100)
}

// Report is the outcome of one comparison.
type Report struct {
	Mode     string    `json:"mode"` // "latency" or "manifest"
	Checked  int       `json:"checked"`
	Findings []Finding `json:"findings"`
	// Builds carries both sides' provenance when the records have it,
	// so a failed gate names the commits it compared.
	OldBuild, NewBuild *obs.Build `json:"-"`
}

// OK reports whether the gate passes (no regressions).
func (r Report) OK() bool { return len(r.Findings) == 0 }

// Summary renders the report for humans, one line per finding.
func (r Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s gate: %d metrics checked, %d regressed", r.Mode, r.Checked, len(r.Findings))
	if r.OldBuild != nil && r.NewBuild != nil && r.OldBuild.Revision != r.NewBuild.Revision {
		fmt.Fprintf(&sb, " (%.12s -> %.12s)", r.OldBuild.Revision, r.NewBuild.Revision)
	}
	for _, f := range r.Findings {
		sb.WriteString("\n  REGRESSED ")
		sb.WriteString(f.String())
	}
	return sb.String()
}

// check applies the double threshold and records a finding on failure.
func (r *Report) check(opt Options, metric string, oldV, newV float64) {
	r.Checked++
	delta := newV - oldV
	if delta <= opt.MinDelta {
		return
	}
	// A baseline of zero with a real new cost is always unexplained.
	if oldV > 0 && newV <= oldV*(1+opt.Ratio) {
		return
	}
	incr := 0.0
	if oldV > 0 {
		incr = delta / oldV
	}
	r.Findings = append(r.Findings, Finding{Metric: metric, Old: oldV, New: newV, Increase: incr})
}

// CompareSnapshots gates a new serve latency snapshot against a
// baseline: per-endpoint quantiles plus the mean, endpoints present in
// both and sampled at least MinCount times on each side.
func CompareSnapshots(oldS, newS api.LatencySnapshot, opt Options) Report {
	opt = opt.withDefaults()
	r := Report{Mode: "latency", OldBuild: &oldS.Build, NewBuild: &newS.Build}
	for _, ep := range api.SortedEndpoints(newS) {
		oldE, ok := oldS.Endpoints[ep]
		newE := newS.Endpoints[ep]
		if !ok || oldE.Count < opt.MinCount || newE.Count < opt.MinCount {
			continue
		}
		qnames := make([]string, 0, len(newE.Quantiles))
		for q := range newE.Quantiles {
			if _, ok := oldE.Quantiles[q]; ok {
				qnames = append(qnames, q)
			}
		}
		sort.Strings(qnames)
		for _, q := range qnames {
			r.check(opt, ep+"/"+q, oldE.Quantiles[q], newE.Quantiles[q])
		}
		r.check(opt, ep+"/mean", oldE.SumSeconds/float64(oldE.Count), newE.SumSeconds/float64(newE.Count))
	}
	return r
}

// CompareManifests gates a run manifest against a baseline: total
// elapsed time plus per-phase wall-clock aggregated over the trace
// tree's first two levels (deeper spans are per-sweep noise).
func CompareManifests(oldM, newM experiments.Manifest, opt Options) Report {
	opt = opt.withDefaults()
	r := Report{Mode: "manifest"}
	r.check(opt, "elapsed", oldM.ElapsedSeconds, newM.ElapsedSeconds)
	oldP, newP := phaseSeconds(oldM.Trace), phaseSeconds(newM.Trace)
	names := make([]string, 0, len(newP))
	for name := range newP {
		if _, ok := oldP[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		r.check(opt, name, oldP[name], newP[name])
	}
	return r
}

// phaseSeconds aggregates span wall-clock by name path, two levels
// deep. Repeated phases (each KSI sweep) sum into one number, so the
// comparison is per phase kind, not per instance.
func phaseSeconds(root *obs.Span) map[string]float64 {
	out := make(map[string]float64)
	if root == nil {
		return out
	}
	for _, c := range root.Children {
		out[c.Name] += c.Duration.Seconds()
		for _, cc := range c.Children {
			out[c.Name+"/"+cc.Name] += cc.Duration.Seconds()
		}
	}
	return out
}

// CompareFiles loads two records and dispatches on their shape: a
// top-level array means a gebe-bench report, an "endpoints" key a
// latency snapshot, an "experiment" key a run manifest. Old and new
// must be the same kind.
func CompareFiles(oldPath, newPath string, opt Options) (Report, error) {
	oldKind, oldRaw, err := loadRecord(oldPath)
	if err != nil {
		return Report{}, err
	}
	newKind, newRaw, err := loadRecord(newPath)
	if err != nil {
		return Report{}, err
	}
	if oldKind != newKind {
		return Report{}, fmt.Errorf("regress: cannot compare %s %s against %s %s", oldKind, oldPath, newKind, newPath)
	}
	switch oldKind {
	case "bench":
		oldEs, err := parseBenchEntries(oldPath, oldRaw)
		if err != nil {
			return Report{}, err
		}
		newEs, err := parseBenchEntries(newPath, newRaw)
		if err != nil {
			return Report{}, err
		}
		return compareBenchReports(oldEs, newEs, opt)
	case "latency":
		var oldS, newS api.LatencySnapshot
		if err := json.Unmarshal(oldRaw, &oldS); err != nil {
			return Report{}, fmt.Errorf("regress: %s: %w", oldPath, err)
		}
		if err := json.Unmarshal(newRaw, &newS); err != nil {
			return Report{}, fmt.Errorf("regress: %s: %w", newPath, err)
		}
		return CompareSnapshots(oldS, newS, opt), nil
	default:
		var oldM, newM experiments.Manifest
		if err := json.Unmarshal(oldRaw, &oldM); err != nil {
			return Report{}, fmt.Errorf("regress: %s: %w", oldPath, err)
		}
		if err := json.Unmarshal(newRaw, &newM); err != nil {
			return Report{}, fmt.Errorf("regress: %s: %w", newPath, err)
		}
		return CompareManifests(oldM, newM, opt), nil
	}
}

// loadRecord reads a file and sniffs which record kind it holds. A
// top-level array is a gebe-bench -json report (BENCH_*.json); objects
// split on "endpoints" (latency snapshot) vs "experiment" (manifest).
func loadRecord(path string) (kind string, raw []byte, err error) {
	raw, err = os.ReadFile(path)
	if err != nil {
		return "", nil, fmt.Errorf("regress: %w", err)
	}
	var entries []benchEntry
	if err := json.Unmarshal(raw, &entries); err == nil {
		if len(entries) == 0 || entries[0].Experiment == "" {
			return "", nil, fmt.Errorf("regress: %s is not a gebe-bench report", path)
		}
		return "bench", raw, nil
	}
	var probe struct {
		Endpoints  map[string]json.RawMessage `json:"endpoints"`
		Experiment string                     `json:"experiment"`
		CreatedAt  json.RawMessage            `json:"created_at"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return "", nil, fmt.Errorf("regress: %s: %w", path, err)
	}
	switch {
	case probe.Endpoints != nil:
		return "latency", raw, nil
	case probe.Experiment != "" && probe.CreatedAt != nil:
		// Both manifests and single BENCH_<exp>.json entries carry
		// "experiment"; only manifests stamp "created_at".
		return "manifest", raw, nil
	case probe.Experiment != "":
		return "bench", raw, nil
	}
	return "", nil, fmt.Errorf("regress: %s is neither a latency snapshot, a run manifest, nor a bench report", path)
}
