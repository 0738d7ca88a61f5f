// Command gebe-coord is the scatter/gather front door for an
// item-sharded serving fleet: it exposes the same /v1 API as a single
// gebe-serve process, fans each query out to every healthy shard under
// the request's remaining deadline, and merges the per-shard top-N
// lists — with every shard up, responses are byte-identical to an
// unsharded server over the same embedding.
//
// Usage:
//
//	gebe-shard -emb emb.tsv -shards 2 -out emb-shard
//	gebe-serve -emb emb-shard.0.tsv -train train.tsv -addr :8091 &
//	gebe-serve -emb emb-shard.1.tsv -train train.tsv -addr :8092 &
//	gebe-coord -shards http://127.0.0.1:8091,http://127.0.0.1:8092 -addr :8080
//
// A down shard degrades, never fails: affected answers come back 200
// with "truncated":true and an X-Gebe-Truncated header; only a fully
// dead fleet yields 503. Shards are health-probed every -probe-interval,
// ejected after -fail-after consecutive failures, and readmitted by the
// next successful probe. Slow shard calls are hedged after -hedge-after
// (the losing request is cancelled); transport errors are retried once.
// POST /v1/reload (gated by -admin-token) fans the reload out to every
// shard and reconciles version skew; healthz fails while healthy shards
// disagree on the model version.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gebe/internal/api"
	"gebe/internal/obs"
	"gebe/internal/shard"
)

func main() {
	var (
		shardsP       = flag.String("shards", "", "comma-separated shard base URLs (required)")
		addr          = flag.String("addr", ":8080", "listen address for the coordinator API")
		ddl           = flag.Duration("deadline", 0, "per-request end-to-end budget propagated to shards (0 = unlimited)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "hedge a shard call still unanswered after this long (0 = off)")
		probeInterval = flag.Duration("probe-interval", time.Second, "background shard health-probe period")
		probeTimeout  = flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe round-trip budget")
		failAfter     = flag.Int("fail-after", 2, "consecutive failures before a shard is ejected")
		defaultN      = flag.Int("n", 10, "default recommendation list length (must match the shards)")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		traceReqs     = flag.Int("trace-requests", 64, "retained request traces on /debug/requests (0 = disabled)")
		latencyOut    = flag.String("latency-out", "", "write a latency snapshot (COORD_LATENCY.json) here on clean exit")
		adminToken    = flag.String("admin-token", "", "X-Admin-Token required by POST /v1/reload (empty = open)")
	)
	cli := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *shardsP == "" {
		fmt.Fprintln(os.Stderr, "gebe-coord: -shards is required")
		flag.Usage()
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*shardsP, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	stop, err := cli.Start("gebe-coord")
	if err != nil {
		fail(err)
	}
	defer stop()
	if cli.Active() {
		obs.RegisterRuntimeMetrics(obs.DefaultRegistry())
	}

	coord, err := shard.New(shard.Config{
		Shards:        urls,
		Deadline:      *ddl,
		HedgeAfter:    *hedgeAfter,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailAfter:     *failAfter,
		DefaultN:      *defaultN,
		TraceRequests: *traceReqs,
		AdminToken:    *adminToken,
		Metrics:       obs.DefaultRegistry(),
		Log:           obs.Default(),
	})
	if err != nil {
		fail(err)
	}
	coord.Start()
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "gebe-coord: fronting %d shards on http://%s (deadline=%s hedge-after=%s probe=%s fail-after=%d)\n",
		len(urls), ln.Addr(), *ddl, *hedgeAfter, *probeInterval, *failAfter)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := api.Run(ln, coord.Handler(), sig, *drain, obs.Default()); err != nil {
		fail(err)
	}
	if *latencyOut != "" {
		if err := coord.LatencySnapshot().WriteFile(*latencyOut); err != nil {
			fail(err)
		}
		obs.Default().Info("coord: wrote latency snapshot", "path", *latencyOut)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gebe-coord:", err)
	os.Exit(1)
}
