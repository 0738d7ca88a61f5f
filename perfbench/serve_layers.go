package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gebe"
	"gebe/internal/bigraph"
	"gebe/internal/obs"
)

// countLayers runs the traced serving pass twice on fresh stacks: a
// fixed seeded warm-up, then countRequests sequential requests whose
// span trees are all retained and fetched from /debug/requests/{id}.
// Sequential requests keep cache contents, and so every work count,
// identical between the two passes; the check that they are is a gate.
func countLayers(b *bench, w serveWorkload, in *serveInput, g *bigraph.Graph) error {
	var passes []map[string]float64
	for p := 0; p < 2; p++ {
		m, err := countPass(b, w, in, g)
		if err != nil {
			return err
		}
		passes = append(passes, m)
	}
	for name, v := range passes[0] {
		b.set(name, (v+passes[1][name])/2)
	}
	for _, name := range []string{
		"ann.candidates_per_query", "ann.clusters_per_query", "eval.scored_users",
		"serve.cache_hit_ratio", "dense.fma", "shard.scatter_calls",
	} {
		if passes[0][name] != passes[1][name] {
			b.gate("traced count %s differs between passes: %v then %v", name, passes[0][name], passes[1][name])
		}
	}

	emb, err := gebe.LoadEmbedding(in.embPath)
	if err != nil {
		return err
	}
	path := filepath.Join(b.workdir, "saved.tsv")
	var saves []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := gebe.SaveEmbedding(path, emb); err != nil {
			return err
		}
		saves = append(saves, time.Since(t0).Seconds())
	}
	b.set("gebe.save_embedding_s", median(saves))
	return nil
}

// countPass is one traced pass; it returns per-layer values averaged
// per request (per shard request for the serve.* self times of the
// sharded stack).
func countPass(b *bench, w serveWorkload, in *serveInput, g *bigraph.Graph) (map[string]float64, error) {
	build := obs.NewRegistry()
	enableLayerMetrics(build)
	defer enableLayerMetrics(nil)
	runtime.GC()
	// Retention covers every traced request plus the coordinator's
	// background /v1/info probes.
	st, _, err := buildStack(w, in, g, countWarm+countRequests+256)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := map[string]float64{
		"gebe.load_embedding_s": st.loadS,
		"serve.model_build_s":   st.modelBuildS,
	}
	// Per stack: the sharded stack builds one index per shard.
	out["ann.build_s"] = snap(build).histSum("ann_build_seconds")

	c := newClient()
	defer c.close()
	url := st.url + "/v1/recommend"
	warm := userStream(w, b.seed, saltWarm, in.nu)
	for i := 0; i < countWarm; i++ {
		if status, _, err := c.post(url, recommendBody(w, warm(), 0), "warm-"+strconv.Itoa(i), false); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("traced warm-up request %d: status %d, %v", i, status, err)
		}
	}

	layer := obs.NewRegistry()
	enableLayerMetrics(layer)
	before := snap(st.reg)
	next := userStream(w, b.seed, saltCount, in.nu)
	clientS := make([]float64, countRequests)
	runtime.GC()
	gc0 := readGC()
	for i := range clientS {
		t0 := time.Now()
		status, _, err := c.post(url, recommendBody(w, next(), 0), "req-"+strconv.Itoa(i), false)
		clientS[i] = time.Since(t0).Seconds()
		b.attempted++
		if err != nil || status != http.StatusOK {
			b.failed++
			b.gate("traced request %d: status %d, %v", i, status, err)
		}
	}
	sub := &bench{values: map[string]float64{}}
	gc0.setPer(sub, readGC(), countRequests)
	ls, after := snap(layer), snap(st.reg)
	setEngineLayers(sub, ls, countRequests)
	for k, v := range sub.values {
		if strings.HasPrefix(k, "runtime.") || strings.HasPrefix(k, "dense.") {
			out[k] = v
		}
	}
	n := float64(countRequests)
	if q := ls.val("ann_queries_total"); q > 0 {
		out["ann.candidates_per_query"] = ls.val("ann_candidates_scored_total") / q
		out["ann.clusters_per_query"] = ls.val("ann_clusters_probed_total") / q
	}
	out["eval.scored_users"] = ls.val("eval_scored_users_total") / n
	hits := after.val("serve_cache_hit_total") - before.val("serve_cache_hit_total")
	misses := after.val("serve_cache_miss_total") - before.val("serve_cache_miss_total")
	if hits+misses > 0 {
		out["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	if w.sharded {
		for name, metric := range map[string]string{
			"shard.scatter_calls":    "shard_scatter_calls_total",
			"shard.hedges":           "shard_hedge_total",
			"shard.retries":          "shard_retry_total",
			"shard.scatter_failures": "shard_scatter_failures_total",
		} {
			out[name] = (after.val(metric) - before.val(metric)) / n
		}
	}

	// Span trees: the front server's (the coordinator's when sharded)
	// and, when sharded, each shard's under the same request id.
	self := totalsOf(nil)
	var handler, frontS, fanout, transport float64
	var serverReqs int
	for i := 0; i < countRequests; i++ {
		id := "req-" + strconv.Itoa(i)
		front, err := fetchTrace(c, st.url, id)
		if err != nil {
			return nil, err
		}
		frontS += front.Elapsed.Seconds()
		transport += clientS[i] - front.Elapsed.Seconds()
		servers := []obs.TraceEntry{front}
		if w.sharded {
			servers = servers[:0]
			slowest := 0.0
			for _, su := range st.shardURLs {
				e, err := fetchTrace(c, su, id)
				if err != nil {
					return nil, err
				}
				servers = append(servers, e)
				if s := e.Elapsed.Seconds(); s > slowest {
					slowest = s
				}
			}
			fanout += front.Elapsed.Seconds() - slowest
		}
		for _, e := range servers {
			serverReqs++
			handler += e.Elapsed.Seconds()
			self.add(e.Trace)
			top := 0.0
			if e.Trace != nil {
				for _, ch := range e.Trace.Children {
					top += ch.Duration.Seconds()
				}
			}
			self.secs["unaccounted"] += e.Elapsed.Seconds() - top
		}
	}
	sr := float64(serverReqs)
	out["serve.handler_s"] = handler / sr
	out["serve.cache_s"] = self.self["cache"] / sr
	out["serve.score_s"] = self.self["score"] / sr
	out["serve.retrieval_s"] = self.self["retrieval"] / sr
	out["serve.rank_s"] = self.self["rank"] / sr
	out["serve.encode_s"] = self.self["encode"] / sr
	out["serve.unaccounted_s"] = self.secs["unaccounted"] / sr
	out["eval.score_tile_s"] = self.secs["score.tile"] / sr
	out["client.transport_s"] = transport / n
	if w.sharded {
		out["shard.coord_handler_s"] = frontS / n
		out["shard.fanout_s"] = fanout / n
	}
	return out, nil
}

// fetchTrace reads one retained request trace from a server's
// /debug/requests/{id}.
func fetchTrace(c *client, base, id string) (obs.TraceEntry, error) {
	var e obs.TraceEntry
	resp, err := c.hc.Get(base + "/debug/requests/" + id)
	if err != nil {
		return e, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return e, fmt.Errorf("trace %s at %s: status %d", id, base, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		return e, fmt.Errorf("trace %s at %s: %w", id, base, err)
	}
	return e, nil
}
