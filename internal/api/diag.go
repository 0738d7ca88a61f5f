package api

// Diagnostics: the /debug/requests endpoints over the tail-sampled
// trace retention ring, and the latency snapshot the regression gate
// (cmd/gebe-regress) compares across commits.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"gebe/internal/obs"
)

// debugRequestsResponse is the GET /debug/requests body: what the ring
// currently retains, slowest first, span trees omitted (fetch one by id
// for the full tree).
type debugRequestsResponse struct {
	Capacity int              `json:"capacity"`
	Count    int              `json:"count"`
	Requests []obs.TraceEntry `json:"requests"`
}

// handleDebugRequests summarizes the retained request traces. The
// route bypasses load shedding: it exists to be read while the process
// is misbehaving.
func (l *Lifecycle) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	entries := l.tlog.Entries()
	l.WriteJSON(w, http.StatusOK, debugRequestsResponse{
		Capacity: l.tlog.Cap(),
		Count:    len(entries),
		Requests: entries,
	})
}

// handleDebugRequest returns one retained request in full — metadata
// plus the span tree, the same schema obs.Trace.WriteJSON emits for
// solver runs, so the same tooling reads both.
func (l *Lifecycle) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := l.tlog.Get(id)
	if !ok {
		l.Fail(w, http.StatusNotFound,
			fmt.Errorf("request %q not retained (kept: %d slowest + recent errored)", id, l.tlog.Cap()))
		return
	}
	l.WriteJSON(w, http.StatusOK, e)
}

// EndpointLatency is one endpoint's latency distribution at snapshot
// time: total request count, cumulative seconds, and interpolated
// quantiles from the endpoint histogram's buckets. Empty marks
// endpoints that saw no traffic: their quantiles are all 0, which would
// otherwise read as "instant" — the marker keeps snapshot consumers
// (and the regression gate's min-count skip) honest about the
// difference between measured-fast and never-measured.
type EndpointLatency struct {
	Count      uint64             `json:"count"`
	SumSeconds float64            `json:"sum_seconds"`
	Empty      bool               `json:"empty,omitempty"`
	Quantiles  map[string]float64 `json:"quantiles"`
}

// SnapshotQuantiles are the quantiles a latency snapshot records and
// the regression gate compares.
var SnapshotQuantiles = map[string]float64{"p50": 0.50, "p90": 0.90, "p99": 0.99}

// LatencySnapshot is the machine-readable latency record one server or
// coordinator run leaves behind (results/SERVE_LATENCY.json,
// results/COORD_LATENCY.json): per-endpoint histogram quantiles plus
// the component's counters, stamped with build provenance so two
// snapshots are only ever compared knowing which commits they measure.
type LatencySnapshot struct {
	CreatedAt     time.Time                  `json:"created_at"`
	Build         obs.Build                  `json:"build"`
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Endpoints     map[string]EndpointLatency `json:"endpoints"`
	Counters      map[string]float64         `json:"counters"`
}

// Snapshot captures the current latency state. counters are the
// component's own; the lifecycle adds "panics".
func (l *Lifecycle) Snapshot(counters map[string]float64) LatencySnapshot {
	counters["panics"] = l.panics.Value()
	snap := LatencySnapshot{
		CreatedAt:     time.Now().UTC(),
		Build:         obs.BuildInfo(),
		UptimeSeconds: l.Uptime().Seconds(),
		Endpoints:     make(map[string]EndpointLatency, len(Endpoints)),
		Counters:      counters,
	}
	for _, ep := range Endpoints {
		h := l.seconds[ep]
		lat := EndpointLatency{
			Count:      h.Count(),
			SumSeconds: h.Sum(),
			Empty:      h.Count() == 0,
			Quantiles:  make(map[string]float64, len(SnapshotQuantiles)),
		}
		for name, q := range SnapshotQuantiles {
			lat.Quantiles[name] = h.Quantile(q)
		}
		snap.Endpoints[ep] = lat
	}
	return snap
}

// WriteFile persists the snapshot as indented JSON with sorted keys —
// committable and diffable.
func (s LatencySnapshot) WriteFile(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// SortedEndpoints returns the snapshot's endpoint names in stable
// order, the iteration order snapshot consumers should use.
func SortedEndpoints(snap LatencySnapshot) []string {
	names := make([]string, 0, len(snap.Endpoints))
	for ep := range snap.Endpoints {
		names = append(names, ep)
	}
	sort.Strings(names)
	return names
}
