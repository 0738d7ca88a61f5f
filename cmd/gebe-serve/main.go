// Command gebe-serve exposes a trained embedding as an HTTP service:
// top-N recommendation, same-side similarity and pair scoring over the
// factorized U·Vᵀ scores — the online form of the offline evaluation
// protocols, sharing their tiled GEMM scorer.
//
// Usage:
//
//	gebe-serve -emb emb.tsv -addr :8080
//	gebe-serve -emb emb.tsv -train train.tsv -max-inflight 64 -deadline 250ms -cache 4096
//
// Endpoints (JSON): POST /v1/recommend, GET /v1/similar, POST /v1/score,
// GET /v1/healthz, GET /v1/info, POST /v1/reload. Requests beyond
// -max-inflight are shed with 429 + Retry-After; requests that blow
// -deadline get 503; SIGINT/SIGTERM drains in-flight requests before
// exiting. POST /v1/reload (gated by -admin-token) and SIGHUP both
// re-read -emb/-train and hot-swap the served model without dropping
// in-flight requests. Metrics (request
// histograms, shed/cache counters, runtime stats) appear on the
// -debug-addr mux. Every non-bypass request answers with an
// X-Request-ID; the -trace-requests slowest/errored span trees are
// retrievable from GET /debug/requests[/{id}], and -latency-out
// persists per-endpoint latency quantiles on clean shutdown for the
// gebe-regress gate.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gebe"
	"gebe/internal/ann"
	"gebe/internal/api"
	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
	"gebe/internal/serve"
	"gebe/internal/sparse"
)

func main() {
	var (
		embP        = flag.String("emb", "", "embedding file from cmd/gebe (required)")
		trainP      = flag.String("train", "", "training edge list enabling mask_train exclusion")
		addr        = flag.String("addr", ":8080", "listen address for the serving API")
		ddl         = flag.Duration("deadline", 0, "per-request compute budget (0 = unlimited)")
		maxInflight = flag.Int("max-inflight", 64, "max concurrent requests before shedding with 429 (0 = unlimited)")
		cacheSize   = flag.Int("cache", 1024, "recommend LRU cache entries (0 = disabled)")
		defaultN    = flag.Int("n", 10, "default recommendation list length")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		traceReqs   = flag.Int("trace-requests", 64, "retained request traces on /debug/requests (0 = disabled)")
		latencyOut  = flag.String("latency-out", "", "write a latency snapshot (SERVE_LATENCY.json) here on clean exit")
		adminToken  = flag.String("admin-token", "", "X-Admin-Token required by POST /v1/reload (empty = open)")
		annClusters = flag.Int("ann-clusters", 0, "IVF clusters for approximate retrieval (0 = approx mode disabled)")
		annNprobe   = flag.Int("ann-nprobe", 0, "default clusters probed per approx request (0 = clusters/8)")
		annInt8     = flag.Bool("ann-int8", false, "serve approx requests from 8-bit quantized item rows")
	)
	cli := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *embP == "" {
		fmt.Fprintln(os.Stderr, "gebe-serve: -emb is required")
		flag.Usage()
		os.Exit(2)
	}
	stop, err := cli.Start("gebe-serve")
	if err != nil {
		fail(err)
	}
	defer stop()
	// The serving hot path is the eval scorer's GEMM tiles; surface its
	// metrics (and the engines') whenever any sink is on.
	if cli.Active() {
		eval.EnableMetrics(obs.DefaultRegistry())
		ann.EnableMetrics(obs.DefaultRegistry())
		sparse.EnableMetrics(obs.DefaultRegistry())
		dense.EnableMetrics(obs.DefaultRegistry())
		obs.RegisterRuntimeMetrics(obs.DefaultRegistry())
	}

	emb, err := gebe.LoadEmbedding(*embP)
	if err != nil {
		fail(err)
	}
	var train *gebe.Graph
	if *trainP != "" {
		if train, err = gebe.LoadGraph(*trainP); err != nil {
			fail(err)
		}
	}
	// The reload loader re-reads the same paths the process started from:
	// retrain offline, overwrite -emb (and -train), then POST /v1/reload
	// or send SIGHUP to hot-swap without restarting.
	reload := func() (*gebe.Embedding, *gebe.Graph, error) {
		e, err := gebe.LoadEmbedding(*embP)
		if err != nil {
			return nil, nil, err
		}
		var tg *gebe.Graph
		if *trainP != "" {
			if tg, err = gebe.LoadGraph(*trainP); err != nil {
				return nil, nil, err
			}
		}
		return e, tg, nil
	}
	// The IVF index is rebuilt on every reload inside the new model
	// snapshot, so approx answers always come from the served embedding.
	var annCfg *ann.Config
	if *annClusters > 0 {
		annCfg = &ann.Config{Clusters: *annClusters, Nprobe: *annNprobe, Int8: *annInt8}
	} else if *annNprobe > 0 || *annInt8 {
		fail(fmt.Errorf("-ann-nprobe/-ann-int8 require -ann-clusters > 0"))
	}
	srv, err := serve.New(emb, train, serve.Config{
		Deadline:      *ddl,
		MaxInflight:   *maxInflight,
		CacheSize:     *cacheSize,
		DefaultN:      *defaultN,
		TraceRequests: *traceReqs,
		Metrics:       obs.DefaultRegistry(),
		Log:           obs.Default(),
		Reload:        reload,
		AdminToken:    *adminToken,
		ANN:           annCfg,
	})
	if err != nil {
		fail(err)
	}

	// SIGHUP is the operational reload path for process managers that
	// can't speak HTTP (systemd's ExecReload, logrotate-style hooks).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if v, err := srv.Reload(); err != nil {
				obs.Default().Warn("serve: SIGHUP reload failed", "err", err)
			} else {
				obs.Default().Info("serve: SIGHUP reload complete", "model_version", v)
			}
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	annDesc := "off"
	if annCfg != nil {
		annDesc = fmt.Sprintf("%d clusters", *annClusters)
	}
	fmt.Fprintf(os.Stderr, "gebe-serve: %s embedding %dx%dx%d on http://%s (max-inflight=%d deadline=%s cache=%d ann=%s)\n",
		emb.Method, emb.U.Rows, emb.V.Rows, emb.K(), ln.Addr(), *maxInflight, *ddl, *cacheSize, annDesc)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := api.Run(ln, srv.Handler(), sig, *drain, obs.Default()); err != nil {
		fail(err)
	}
	// The snapshot is written after the drain so it covers every request
	// this process served; gebe-regress compares it against the committed
	// baseline.
	if *latencyOut != "" {
		if err := srv.LatencySnapshot().WriteFile(*latencyOut); err != nil {
			fail(err)
		}
		obs.Default().Info("serve: wrote latency snapshot", "path", *latencyOut)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gebe-serve:", err)
	os.Exit(1)
}
