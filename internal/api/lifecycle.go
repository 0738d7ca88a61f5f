package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gebe/internal/budget"
	"gebe/internal/obs"
)

// The request lifecycle wraps a component's routing mux. Ordering
// matters:
//
//	recover → in-flight gauge → load shedding → deadline stamp → tracing → mux
//
// Recovery sits outermost so a panic anywhere below (shedding and
// instrumentation included) still yields a well-formed 500 and a
// released semaphore slot. Shedding sits above deadline stamping and
// tracing, so a shed request costs two channel operations, no clock
// reads and no allocations: it never mints a request id or a trace
// (its access-log line is emitted from the shed branch itself). Tracing
// sits below stamping so the access log can tell a blown deadline from
// any other 503. /v1/healthz, /v1/reload and the /debug/ routes bypass
// both the limiter and tracing: liveness probes must answer,
// diagnostics must be reachable and a replacement model must be
// accepted precisely when the process is drowning.

// Endpoints names the instrumented /v1 routes; per-endpoint histograms
// are created eagerly so the metrics surface is complete before
// traffic.
var Endpoints = []string{"recommend", "similar", "score", "healthz", "info", "reload"}

// Settings are what a component hands its lifecycle: its name and the
// request-level parts of its configuration.
type Settings struct {
	// Component names the front end ("serve", "coord"): the prefix of
	// its metric names and of its log messages.
	Component string
	// Deadline is the configured per-request budget; 0 disables it.
	Deadline time.Duration
	// MaxInflight caps concurrently served requests; excess requests are
	// shed with 429 + Retry-After. 0 means unlimited.
	MaxInflight int
	// TraceRequests sets the tail-sampling trace retention (see
	// obs.TraceLog); 0 disables tracing and /debug/requests.
	TraceRequests int
	// Metrics receives the lifecycle instrumentation.
	Metrics *obs.Registry
	// Log receives the access log and panic reports; nil disables them.
	Log *obs.Logger
}

// Lifecycle is one component's request machinery: the middleware
// chain, per-endpoint instrumentation, JSON responses, the
// /debug/requests surface and the latency snapshot.
type Lifecycle struct {
	name     string
	deadline time.Duration
	limiter  chan struct{} // nil = unlimited; capacity MaxInflight
	log      *obs.Logger
	start    time.Time

	// Request-scoped diagnostics: the trace retention ring (nil when
	// disabled) and the request-id mint (a per-process prefix plus an
	// atomic counter, so ids are unique and cheap).
	tlog      *obs.TraceLog
	ridPrefix string
	rid       atomic.Uint64

	inflight *obs.Gauge
	shed     *obs.Counter
	panics   *obs.Counter
	status   *obs.CounterVec
	seconds  map[string]*obs.Histogram
}

// New builds the lifecycle for one component and registers its
// metrics: <component>_inflight, _shed_total, _panics_total, the
// _status family and one _<endpoint>_seconds histogram per endpoint.
func New(s Settings) *Lifecycle {
	l := &Lifecycle{
		name:      s.Component,
		deadline:  s.Deadline,
		log:       s.Log,
		start:     time.Now(),
		tlog:      obs.NewTraceLog(s.TraceRequests),
		ridPrefix: fmt.Sprintf("%08x-", uint32(time.Now().UnixNano())),
	}
	if s.MaxInflight > 0 {
		l.limiter = make(chan struct{}, s.MaxInflight)
	}
	r, p := s.Metrics, s.Component+"_"
	l.inflight = r.Gauge(p+"inflight", "requests currently in flight")
	l.shed = r.Counter(p+"shed_total", "requests shed with 429 at the concurrency limit")
	l.panics = r.Counter(p+"panics_total", "handler panics recovered to 500")
	l.status = r.CounterVec(p+"status", "responses per endpoint and status code")
	l.seconds = make(map[string]*obs.Histogram, len(Endpoints))
	for _, ep := range Endpoints {
		// FastBuckets: a request is a handful of sub-millisecond GEMM
		// tiles or one shard round trip; DefBuckets' 100µs floor would
		// flatten the distribution.
		l.seconds[ep] = r.Histogram(p+ep+"_seconds", "wall-clock of /v1/"+ep+" requests", obs.FastBuckets)
	}
	return l
}

// Traces returns the request trace retention ring (nil when tracing is
// off).
func (l *Lifecycle) Traces() *obs.TraceLog { return l.tlog }

// Uptime is the time since the lifecycle was built.
func (l *Lifecycle) Uptime() time.Duration { return time.Since(l.start) }

// Shed returns how many requests the limiter has shed.
func (l *Lifecycle) Shed() float64 { return l.shed.Value() }

// Handler mounts the /debug/requests routes on mux when tracing is on
// and wraps the result in the lifecycle chain.
func (l *Lifecycle) Handler(mux *http.ServeMux) http.Handler {
	if l.tlog != nil {
		mux.HandleFunc("GET /debug/requests", l.handleDebugRequests)
		mux.HandleFunc("GET /debug/requests/{id}", l.handleDebugRequest)
	}
	return l.wrap(mux)
}

func (l *Lifecycle) wrap(next http.Handler) http.Handler {
	return l.recovered(l.counted(l.limited(l.stamped(l.traced(next)))))
}

// bypassed reports whether the request skips load shedding and request
// tracing: liveness probes, the diagnostic surface itself, and the
// admin reload.
func bypassed(path string) bool {
	return path == "/v1/healthz" || path == "/v1/reload" || strings.HasPrefix(path, "/debug/")
}

// recovered converts handler panics into JSON 500s. A panicking request
// must not take the process (and its model or its fleet) down with it.
func (l *Lifecycle) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				l.panics.Inc()
				l.log.Error(l.name+": handler panic", "path", r.URL.Path, "panic", fmt.Sprint(v))
				// Headers may already be gone; WriteHeader on a started
				// response is a no-op warning, which is the best available.
				l.Fail(w, http.StatusInternalServerError, errors.New("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// counted maintains the in-flight gauge across every request, shed or
// served.
func (l *Lifecycle) counted(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.inflight.Add(1)
		defer l.inflight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// limited sheds load once MaxInflight requests are being served: a
// non-blocking semaphore acquire, and on failure an immediate 429 with
// Retry-After — bounded latency for the shed request and bounded
// concurrency for everyone else, instead of an unbounded accept queue
// all timing out together.
func (l *Lifecycle) limited(next http.Handler) http.Handler {
	if l.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if bypassed(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case l.limiter <- struct{}{}:
			defer func() { <-l.limiter }()
			next.ServeHTTP(w, r)
		default:
			l.shed.Inc()
			l.status.With("shed_429").Inc()
			w.Header().Set("Retry-After", "1")
			l.Fail(w, http.StatusTooManyRequests,
				fmt.Errorf("server at capacity (%d in flight)", cap(l.limiter)))
			// Shed requests never reach the tracing layer, so their access
			// line is emitted here: no id (nothing retained to look up), no
			// bytes counting, cause "shed". Enabled gates the allocation.
			if l.log.Enabled(obs.LevelInfo) {
				l.logAccess("", endpointName(r), http.StatusTooManyRequests, 0, 0, "shed", "")
			}
		}
	})
}

// stamped derives the request's absolute compute deadline and attaches
// it as a context deadline, which the handlers turn into cooperative
// budget checks and the coordinator propagates to its shards.
func (l *Lifecycle) stamped(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dl := requestDeadline(time.Now(), l.deadline, r.Header.Get(DeadlineHeader))
		if dl.IsZero() {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithDeadline(r.Context(), dl)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// requestDeadline composes a request's deadline at now from two
// sources through budget.Earliest: the configured budget (0 = none) and
// a caller's X-Gebe-Deadline-Ms header. A malformed header is ignored;
// a non-positive one means the caller's budget is already gone. The
// zero time means no deadline.
func requestDeadline(now time.Time, configured time.Duration, header string) time.Time {
	var dl time.Time
	if configured > 0 {
		dl = now.Add(configured)
	}
	if d, ok := headerBudget(header); ok {
		dl = budget.Earliest(dl, now.Add(d))
	}
	return dl
}

// headerBudget parses an X-Gebe-Deadline-Ms value. Millisecond counts
// beyond what a time.Duration holds (and integers beyond int64)
// saturate instead of wrapping, so a huge budget never turns into an
// expired one.
func headerBudget(raw string) (time.Duration, bool) {
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, false
	}
	const maxMs = math.MaxInt64 / int64(time.Millisecond)
	switch {
	case ms > maxMs:
		return math.MaxInt64, true
	case ms < -maxMs:
		return math.MinInt64, true
	}
	return time.Duration(ms) * time.Millisecond, true
}

// traced is the request-scoped diagnostics layer: it mints or
// propagates X-Request-ID (set on the inbound request too, so a
// coordinator's shard calls carry the same id), opens the per-request
// obs.Trace carried down through the context, counts response bytes
// through statusRecorder, emits one structured access-log line per
// request, and offers the finished trace to the retention ring.
// Bypassed routes pay nothing but the path check.
func (l *Lifecycle) traced(next http.Handler) http.Handler {
	if l.tlog == nil && l.log == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if bypassed(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		id := l.requestID(r)
		ep := endpointName(r)
		var tr *obs.Trace
		req := r
		if l.tlog != nil {
			tr = obs.NewTrace(ep)
			req = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		}
		req.Header.Set("X-Request-ID", id)
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}
		// The epilogue runs deferred so a panicking handler still leaves an
		// access line and an (errored, thus retained) trace behind before
		// the recovery layer writes its 500.
		panicked := true
		defer func() {
			status := rec.code
			if status == 0 {
				status = http.StatusOK
			}
			cause := ""
			switch {
			case panicked:
				status, cause = http.StatusInternalServerError, "panic"
			case status == http.StatusServiceUnavailable:
				cause = "unavailable"
				if dl, ok := r.Context().Deadline(); ok && budget.Exceeded(dl) {
					cause = "deadline"
				}
			case status >= 500:
				cause = "error"
			case rec.Header().Get(TruncatedHeader) != "":
				cause = "truncated"
			}
			elapsed := time.Since(t0)
			if l.log.Enabled(obs.LevelInfo) {
				// The version comes from the header the handler stamped, so
				// the log line always matches the response bytes even when a
				// model swap lands mid-request.
				l.logAccess(id, ep, status, rec.bytes, elapsed, cause, rec.Header().Get("X-Model-Version"))
			}
			if tr != nil {
				l.tlog.Add(obs.TraceEntry{
					ID: id, Name: ep, Status: status, Bytes: rec.bytes,
					Start: t0, Elapsed: elapsed, Cause: cause, Trace: tr.Root(),
				})
			}
		}()
		next.ServeHTTP(rec, req)
		panicked = false
	})
}

// logAccess emits the structured access-log line: one record per
// request with the fields an operator greps for first.
func (l *Lifecycle) logAccess(id, endpoint string, status int, bytes int64, elapsed time.Duration, cause, modelVersion string) {
	args := []any{
		"id", id, "endpoint", endpoint, "status", status,
		"bytes", bytes, "elapsed", elapsed,
	}
	if modelVersion != "" {
		args = append(args, "model_version", modelVersion)
	}
	if cause != "" {
		args = append(args, "cause", cause)
	}
	l.log.Info(l.name+": access", args...)
}

// requestID returns the client-supplied X-Request-ID when it is sane
// (non-empty, bounded, printable ASCII) so upstream correlation ids
// survive, and mints a process-unique id otherwise.
func (l *Lifecycle) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 64 && printableASCII(id) {
		return id
	}
	return l.ridPrefix + strconv.FormatUint(l.rid.Add(1), 10)
}

func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// endpointName maps a request path to the instrumented endpoint label;
// unrouted paths share one bucket so an URL-shaped attack cannot mint
// unbounded label values.
func endpointName(r *http.Request) string {
	if ep, ok := strings.CutPrefix(r.URL.Path, "/v1/"); ok && slices.Contains(Endpoints, ep) {
		return ep
	}
	return "other"
}

// statusRecorder captures the response code and byte count for
// instrumentation and the access log. Wrapping an http.ResponseWriter
// hides its optional interfaces, so the one the surface can
// meaningfully honor is forwarded explicitly: Flush for callers
// streaming partial responses. (Hijack and ReadFrom are deliberately
// not forwarded — no JSON endpoint upgrades connections, and losing
// the sendfile fast path is irrelevant for encoder-driven bodies.)
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer's Flusher, restoring the
// optional interface the embedding hid.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Instrument wraps one endpoint with its latency histogram and the
// per-endpoint status-code counters. The tracing layer above usually
// wraps the writer already; its recorder is reused rather than stacked
// so bytes are counted once.
func (l *Lifecycle) Instrument(name string, h http.HandlerFunc) http.Handler {
	hist := l.seconds[name]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec, ok := w.(*statusRecorder)
		if !ok {
			rec = &statusRecorder{ResponseWriter: w}
		}
		h(rec, r)
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		hist.ObserveSince(t0)
		l.status.With(fmt.Sprintf("%s_%d", name, code)).Inc()
	})
}

// WriteJSON writes v as the JSON response body with the given status.
func (l *Lifecycle) WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		l.log.Warn(l.name+": encoding response", "err", err)
	}
}

// Fail writes err as an ErrorResponse with the given status.
func (l *Lifecycle) Fail(w http.ResponseWriter, code int, err error) {
	l.WriteJSON(w, code, ErrorResponse{Error: err.Error()})
}

// Run serves h on ln until stop delivers a signal, then drains
// gracefully: the listener closes immediately (new connections are
// refused), in-flight requests get up to drainTimeout to finish, and
// only then are stragglers cut. Returns nil on a clean drain or
// server-closed exit.
func Run(ln net.Listener, h http.Handler, stop <-chan os.Signal, drainTimeout time.Duration, log *obs.Logger) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("serve: %w", err)
	case sig := <-stop:
		log.Info("serve: draining", "signal", fmt.Sprint(sig), "timeout", drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
			<-errc
			return fmt.Errorf("serve: drain: %w", err)
		}
		<-errc // Serve has returned ErrServerClosed by now
		log.Info("serve: drained")
		return nil
	}
}
