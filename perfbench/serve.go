package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gebe"
	"gebe/internal/ann"
	"gebe/internal/bigraph"
	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
	"gebe/internal/serve"
	"gebe/internal/shard"
)

// serveWorkload fixes one serving workload's stack and traffic.
type serveWorkload struct {
	sharded bool
	// mode is the /v1/recommend retrieval mode the traffic asks for.
	mode string
	// rate is the open loop's fixed request rate, about a quarter of the
	// closed-loop capacity measured on a 2-core x86-64 VM.
	rate float64
	// zipf draws users from Zipf(1.1) instead of uniformly.
	zipf bool
	// warm is how many closed-loop requests fill caches before timing.
	warm int
}

var (
	stackExact = serveWorkload{mode: "exact", rate: 500, warm: 2000}
	// stackShardedApprox splits the item rows over two shards behind a
	// coordinator and asks for approximate retrieval at the default nprobe.
	stackShardedApprox = serveWorkload{sharded: true, mode: "approx", rate: 1000, zipf: true, warm: 6000}
)

const (
	// setupReps is how many stacks a run builds; setup_s is the median.
	setupReps = 5
	// The server settings are the gebe-serve defaults.
	serveCache       = 1024
	serveMaxInflight = 64
	serveTraceRing   = 64
	shardCount       = 2
	// qualityUsers is the fixed seeded user sample the served lists are
	// checked on; fullProbeUsers of them also go through a full probe.
	qualityUsers   = 200
	fullProbeUsers = 64
	// closedWindow is the closed loop's throughput sampling window.
	closedWindow = 250 * time.Millisecond
	// maxBacklog bounds how late the last open-loop response may finish
	// after the last due time; beyond it the system did not keep up with
	// the offered rate and the run is invalid.
	maxBacklog = time.Second
	// maxGenLagMs bounds the generator's own median lateness; beyond it
	// the generator, not the server, set the schedule.
	maxGenLagMs = 2.0
	// countRequests is the traced run's fixed request count; countWarm
	// requests precede it.
	countRequests = 1000
	countWarm     = 2000
)

// Stream salts give every phase its own deterministic user stream.
const (
	saltWarm = iota + 1
	saltOpen
	saltClosed
	saltQuality
	saltCount
)

func runServe(b *bench, w serveWorkload) error {
	in, err := makeServeInput(b.workdir, b.seed)
	if err != nil {
		return err
	}
	b.note("input %s: sha256 %s", filepath.Base(in.embPath), in.embHash)
	b.note("input %s: sha256 %s, %d edges", filepath.Base(in.trainPath), in.trainHash, in.trainEdges)
	t0 := time.Now()
	g, err := gebe.LoadGraph(in.trainPath)
	if err != nil {
		return err
	}
	loadS := time.Since(t0).Seconds()
	checkLabels(b, g, in.uLabels, in.vLabels)
	if !b.trace {
		m, err := servePhase(b, w, in, g, b.seconds, false)
		if err != nil {
			return err
		}
		for k, v := range m.e2e {
			b.set(k, v)
		}
		return nil
	}

	b.zeroLayers()
	b.set("bigraph.load_s", loadS)
	untraced, err := servePhase(b, w, in, g, b.seconds/2, false)
	if err != nil {
		return err
	}
	traced, err := servePhase(b, w, in, g, b.seconds/2, true)
	if err != nil {
		return err
	}
	b.setOverhead(untraced.e2e, traced.e2e)
	b.set("client.closed_p99_ms", untraced.closedP99Ms)
	if err := openLayers(b, w, in, g, b.seconds/2); err != nil {
		return err
	}
	return countLayers(b, w, in, g)
}

// stack is one running serving stack: the servers, the coordinator in
// the sharded case, and the URL clients talk to.
type stack struct {
	url       string
	shardURLs []string
	emb       *gebe.Embedding
	reg       *obs.Registry
	coord     *shard.Coordinator
	servers   []*http.Server
	served    sync.WaitGroup

	loadS, modelBuildS float64
}

// buildStack loads the embedding and builds the stack. The returned set-up
// time covers gebe.LoadEmbedding, shard.Slice, serve.New and shard.New —
// the same path /v1/reload takes — but not listener start-up.
func buildStack(w serveWorkload, in *serveInput, g *bigraph.Graph, traceRing int) (*stack, float64, error) {
	st := &stack{reg: obs.NewRegistry()}
	cfg := serve.Config{
		MaxInflight: serveMaxInflight, CacheSize: serveCache, TraceRequests: traceRing,
		ANN: &ann.Config{}, Metrics: st.reg,
	}
	t0 := time.Now()
	emb, err := gebe.LoadEmbedding(in.embPath)
	if err != nil {
		return nil, 0, err
	}
	st.emb = emb
	st.loadS = time.Since(t0).Seconds()
	if !w.sharded {
		t1 := time.Now()
		srv, err := serve.New(emb, g, cfg)
		if err != nil {
			return nil, 0, err
		}
		st.modelBuildS = time.Since(t1).Seconds()
		setup := time.Since(t0).Seconds()
		st.url, err = st.listen(srv.Handler())
		if err != nil {
			st.close()
			return nil, 0, err
		}
		return st, setup, nil
	}

	setup := st.loadS
	part, err := shard.NewPartition(emb.V.Rows, shardCount)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < shardCount; i++ {
		t1 := time.Now()
		srv, err := serve.New(shard.Slice(emb, part, i), g, cfg)
		if err != nil {
			st.close()
			return nil, 0, err
		}
		built := time.Since(t1).Seconds()
		st.modelBuildS += built
		setup += built
		u, err := st.listen(srv.Handler())
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.shardURLs = append(st.shardURLs, u)
	}
	t2 := time.Now()
	c, err := shard.New(shard.Config{Shards: st.shardURLs, TraceRequests: traceRing, Metrics: st.reg})
	if err != nil {
		st.close()
		return nil, 0, err
	}
	setup += time.Since(t2).Seconds()
	c.Start()
	st.coord = c
	if st.url, err = st.listen(c.Handler()); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, setup, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the coordinator and every server and waits for them.
func (st *stack) close() {
	if st.coord != nil {
		st.coord.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
	st.served.Wait()
}

// client is the benchmark's HTTP client: at most nproc connections.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	conns int
}

func newClient() *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, conns: n}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one request and returns the status and body; reqID, when
// set, becomes the request's X-Request-ID.
func (c *client) post(url string, body []byte, reqID string, keep bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out []byte
	if keep {
		out, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, out, err
}

// userStream returns a deterministic stream of users for one phase.
func userStream(w serveWorkload, seed uint64, salt uint64, users int) func() int {
	rng := rand.New(rand.NewPCG(seed, 0xb0d1+salt))
	if !w.zipf {
		return func() int { return rng.IntN(users) }
	}
	// Hot users are spread over the id range, not clustered at 0.
	perm := rng.Perm(users)
	z := rand.NewZipf(rng, 1.1, 1, uint64(users-1))
	return func() int { return perm[z.Uint64()] }
}

func recommendBody(w serveWorkload, user, nprobe int) []byte {
	body := `{"user":` + strconv.Itoa(user) + `,"n":` + strconv.Itoa(topN)
	if w.mode != "exact" {
		body += `,"mode":"` + w.mode + `"`
	}
	if nprobe > 0 {
		body += `,"nprobe":` + strconv.Itoa(nprobe)
	}
	return []byte(body + "}")
}

// phaseResult is what one measured serving phase reports.
type phaseResult struct {
	e2e         map[string]float64
	closedP99Ms float64
}

// servePhase builds the stack setupReps times, warms the last one,
// checks its answers, and measures the closed loop for seconds. traced
// turns on request tracing with the gebe-serve retention default and
// the engines' instruments.
func servePhase(b *bench, w serveWorkload, in *serveInput, g *bigraph.Graph, seconds float64, traced bool) (phaseResult, error) {
	ring := 0
	if traced {
		ring = serveTraceRing
		enableLayerMetrics(obs.NewRegistry())
		defer enableLayerMetrics(nil)
	}
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		var setup float64
		var err error
		st, setup, err = buildStack(w, in, g, ring)
		if err != nil {
			return phaseResult{}, err
		}
		setups = append(setups, setup)
	}
	defer st.close()
	c := newClient()
	defer c.close()
	url := st.url + "/v1/recommend"

	warm := closedLoop(c, url, w, userStream(w, b.seed, saltWarm, in.nu), 0, w.warm)
	if warm.ok != warm.attempted {
		b.gate("%d of %d warm-up requests failed", warm.attempted-warm.ok, warm.attempted)
	}
	quality := checkLists(b, c, st, w, in, g)

	runtime.GC()
	heap := startHeapSampler()
	closed := closedLoop(c, url, w, userStream(w, b.seed, saltClosed, in.nu), seconds, 0)
	peak := heap.stopMB()
	b.attempted += closed.attempted
	b.failed += closed.attempted - closed.ok
	b.note("%s: closed loop %d requests over %d windows: p50 %.3fms p90 %.3fms p99 %.3fms; set-up median of %d",
		b.workload, len(closed.lat), len(closed.rates), 1000*median(closed.lat), 1000*quantile(closed.lat, 0.9),
		1000*quantile(closed.lat, 0.99), len(setups))
	return phaseResult{
		e2e: map[string]float64{
			"setup_s":          median(setups),
			"p50_ms":           1000 * median(closed.lat),
			"tail_ms":          1000 * quantile(closed.lat, 0.9),
			"throughput_per_s": median(closed.rates),
			"peak_heap_mb":     peak,
			"quality":          quality,
			"ok_ratio":         float64(closed.ok) / float64(closed.attempted),
		},
		closedP99Ms: 1000 * quantile(closed.lat, 0.99),
	}, nil
}

// openLayers measures the open loop at the workload's fixed rate for
// seconds on a fresh, warm, untraced stack and records its latencies
// from due time and the generator's lateness. A generator that fell
// behind its schedule fails the run instead of reporting latencies.
func openLayers(b *bench, w serveWorkload, in *serveInput, g *bigraph.Graph, seconds float64) error {
	st, _, err := buildStack(w, in, g, 0)
	if err != nil {
		return err
	}
	defer st.close()
	c := newClient()
	defer c.close()
	url := st.url + "/v1/recommend"
	warm := closedLoop(c, url, w, userStream(w, b.seed, saltWarm, in.nu), 0, w.warm)
	if warm.ok != warm.attempted {
		b.gate("%d of %d warm-up requests failed", warm.attempted-warm.ok, warm.attempted)
	}
	runtime.GC()
	open := openLoop(c, url, w, userStream(w, b.seed, saltOpen, in.nu), w.rate, seconds)
	b.attempted += open.attempted
	b.failed += open.attempted - open.ok
	lag := median(open.lagMs)
	if open.backlog > maxBacklog || lag > maxGenLagMs {
		b.gate("open loop fell behind its schedule (backlog %v, median generator lag %.3fms): latencies invalid",
			open.backlog, lag)
	}
	b.note("%s: open loop %d requests at %.0f/s: p50 %.3fms p99 %.3fms, generator lag p50 %.3fms p99 %.3fms",
		b.workload, len(open.lat), w.rate, 1000*median(open.lat), 1000*quantile(open.lat, 0.99),
		lag, quantile(open.lagMs, 0.99))
	b.set("client.open_p50_ms", 1000*median(open.lat))
	b.set("client.open_p99_ms", 1000*quantile(open.lat, 0.99))
	b.set("client.gen_lag_ms", lag)
	return nil
}

// enableLayerMetrics points the package-level instruments of the layers
// a served request crosses at r (nil turns them off).
func enableLayerMetrics(r *obs.Registry) {
	ann.EnableMetrics(r)
	eval.EnableMetrics(r)
	dense.EnableMetrics(r)
}

// loopResult is what one traffic loop measured.
type loopResult struct {
	attempted, ok int
	// lat holds latencies in seconds: in the open loop from each due
	// time, in the closed loop from each send.
	lat []float64
	// lagMs holds how late the generator issued each request, in ms.
	lagMs []float64
	// backlog is how long after the last due time the last response came.
	backlog time.Duration
	// rates holds closed-loop OK responses per second, one per window.
	rates []float64
}

// openLoop sends rate requests per second for dur seconds on a fixed
// schedule, whatever the responses do, over at most c.conns connections.
// A request waiting for a free connection is still timed from its due
// time, so queueing shows in its latency.
func openLoop(c *client, url string, w serveWorkload, next func() int, rate, dur float64) loopResult {
	n := int(rate * dur)
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = recommendBody(w, next(), 0)
	}
	res := loopResult{attempted: n, lat: make([]float64, n), lagMs: make([]float64, n)}
	// Buffered for the whole schedule so the generator never blocks on
	// busy workers: lateness then measures the generator alone.
	jobs := make(chan int, n)
	var ok atomic.Int64
	var last atomic.Int64 // unix ns of the latest completion
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * 1e9)) }
	for k := 0; k < c.conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				status, _, err := c.post(url, bodies[i], "", false)
				done := time.Now()
				res.lat[i] = done.Sub(due(i)).Seconds()
				if err == nil && status == http.StatusOK {
					ok.Add(1)
				}
				for {
					prev := last.Load()
					if done.UnixNano() <= prev || last.CompareAndSwap(prev, done.UnixNano()) {
						break
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			time.Sleep(wait)
		}
		res.lagMs[i] = float64(time.Since(d)) / 1e6
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.ok = int(ok.Load())
	if n > 0 {
		res.backlog = time.Unix(0, last.Load()).Sub(due(n - 1))
	}
	return res
}

// closedLoop runs c.conns clients that each send their next request as
// soon as the previous one completes, for dur seconds or, when count is
// positive, for count requests in total.
func closedLoop(c *client, url string, w serveWorkload, next func() int, dur float64, count int) loopResult {
	var mu sync.Mutex
	var res loopResult
	start := time.Now()
	end := start.Add(time.Duration(dur * 1e9))
	// Only whole windows inside the loop's time count toward rates.
	windows := make([]float64, int(time.Duration(dur*1e9)/closedWindow))
	var wg sync.WaitGroup
	for k := 0; k < c.conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if (count > 0 && res.attempted >= count) || (count == 0 && !time.Now().Before(end)) {
					mu.Unlock()
					return
				}
				res.attempted++
				body := recommendBody(w, next(), 0)
				mu.Unlock()
				t0 := time.Now()
				status, _, err := c.post(url, body, "", false)
				mu.Lock()
				res.lat = append(res.lat, time.Since(t0).Seconds())
				if err == nil && status == http.StatusOK {
					res.ok++
					if win := int(time.Since(start) / closedWindow); win < len(windows) {
						windows[win]++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, n := range windows {
		res.rates = append(res.rates, n/closedWindow.Seconds())
	}
	return res
}

type recommendResponse struct {
	Results []struct {
		User  int `json:"user"`
		Items []struct {
			Item  int     `json:"item"`
			Score float64 `json:"score"`
		} `json:"items"`
	} `json:"results"`
}

// checkLists asks the stack for the lists of a fixed seeded user sample
// and compares them with an offline eval.Scorer + eval.TopNIndices
// reference under the same training mask. Exact lists, and approximate
// lists at a full probe, must equal the reference in ids and scores bit
// for bit. It returns the mean recall@10 of the workload's own lists.
func checkLists(b *bench, c *client, st *stack, w serveWorkload, in *serveInput, g *bigraph.Graph) float64 {
	masks := make([]map[int]bool, in.nu)
	for _, e := range g.Edges {
		if masks[e.U] == nil {
			masks[e.U] = map[int]bool{}
		}
		masks[e.U][e.V] = true
	}
	sc := eval.NewScorer(st.emb.U, st.emb.V)
	next := userStream(serveWorkload{}, b.seed, saltQuality, in.nu)
	url := st.url + "/v1/recommend"
	recall := 0.0
	for i := 0; i < qualityUsers; i++ {
		u := next()
		var refIDs []int
		var refScores []float64
		_ = sc.Score([]int{u}, nil, func(_ int, row []float64) {
			refIDs = eval.TopNIndices(row, topN, masks[u])
			for _, id := range refIDs {
				refScores = append(refScores, row[id])
			}
		})
		ids, scores, err := fetchList(c, url, recommendBody(w, u, 0))
		if err != nil {
			b.gate("user %d: %v", u, err)
			continue
		}
		recall += overlap(ids, refIDs) / float64(len(refIDs))
		if w.mode == "exact" && !sameList(ids, scores, refIDs, refScores) {
			b.gate("user %d: served exact list differs from the offline reference", u)
		}
		if w.mode != "exact" && i < fullProbeUsers {
			ids, scores, err := fetchList(c, url, recommendBody(w, u, math.MaxInt32))
			if err != nil {
				b.gate("user %d full probe: %v", u, err)
			} else if !sameList(ids, scores, refIDs, refScores) {
				b.gate("user %d: full-probe approximate list differs from the exact reference", u)
			}
		}
	}
	return recall / qualityUsers
}

func fetchList(c *client, url string, body []byte) ([]int, []float64, error) {
	status, raw, err := c.post(url, body, "", true)
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", status, raw)
	}
	var r recommendResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, nil, err
	}
	if len(r.Results) != 1 {
		return nil, nil, errors.New("response does not hold exactly one user")
	}
	var ids []int
	var scores []float64
	for _, it := range r.Results[0].Items {
		ids = append(ids, it.Item)
		scores = append(scores, it.Score)
	}
	return ids, scores, nil
}

func sameList(ids []int, scores []float64, refIDs []int, refScores []float64) bool {
	if len(ids) != len(refIDs) {
		return false
	}
	for i := range ids {
		if ids[i] != refIDs[i] || math.Float64bits(scores[i]) != math.Float64bits(refScores[i]) {
			return false
		}
	}
	return true
}

func overlap(a, b []int) float64 {
	n := 0
	for _, x := range a {
		if containsInt(b, x) {
			n++
		}
	}
	return float64(n)
}
