package api

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gebe/internal/obs"
)

// newTestLifecycle builds a "serve" lifecycle on its own registry and
// returns it with the registry for assertions.
func newTestLifecycle(t testing.TB, s Settings) (*Lifecycle, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s.Component, s.Metrics = "serve", reg
	return New(s), reg
}

// blockingHandler answers 200 after release closes, reporting each
// arrival on entered. healthz requests answer immediately so the
// bypass path stays testable while the rest of the server is wedged.
func blockingHandler(entered chan<- struct{}, release <-chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
}

func TestShed429(t *testing.T) {
	l, reg := newTestLifecycle(t, Settings{MaxInflight: 1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := httptest.NewServer(l.wrap(blockingHandler(entered, release)))
	defer ts.Close()

	// Saturate the single slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/recommend")
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight request finished %d after release", resp.StatusCode)
		}
	}()
	<-entered

	// The next request must shed immediately, not queue.
	resp, err := http.Get(ts.URL + "/v1/recommend")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("429 body %q not a JSON error", body)
	}
	if got := reg.Counter("serve_shed_total", "").Value(); got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}

	// Liveness probes bypass the limiter even at capacity.
	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz at capacity: status %d, want 200", hz.StatusCode)
	}

	close(release)
	wg.Wait()
	// The slot frees after drain: a fresh request is served again.
	resp2, err := http.Get(ts.URL + "/v1/recommend")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-release request: status %d, want 200", resp2.StatusCode)
	}
}

func TestShedAccessLog(t *testing.T) {
	var buf bytes.Buffer
	l, _ := newTestLifecycle(t, Settings{MaxInflight: 1, Log: obs.NewTextLogger(&buf, slog.LevelInfo)})
	l.limiter <- struct{}{} // saturate
	l.wrap(http.NotFoundHandler()).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/score", nil))
	for _, want := range []string{"serve: access", `id=""`, "endpoint=score", "status=429", "cause=shed"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("shed access log %q missing %q", buf.String(), want)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	l, reg := newTestLifecycle(t, Settings{MaxInflight: 1})
	boom := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("scoring exploded") })
	w := httptest.NewRecorder()
	l.wrap(boom).ServeHTTP(w, httptest.NewRequest("GET", "/v1/similar?id=1", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if got := reg.Counter("serve_panics_total", "").Value(); got != 1 {
		t.Errorf("panic counter = %v, want 1", got)
	}
	if got := reg.Gauge("serve_inflight", "").Value(); got != 0 {
		t.Errorf("inflight gauge = %v after panic, want 0", got)
	}
	// The semaphore slot must have been released: the next request runs.
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(200) })
	w2 := httptest.NewRecorder()
	l.wrap(ok).ServeHTTP(w2, httptest.NewRequest("GET", "/v1/info", nil))
	if w2.Code != http.StatusOK {
		t.Errorf("request after panic: status %d, want 200", w2.Code)
	}
}

// TestUnavailableCause: the access-log cause of a 503 comes from the
// request's own deadline — "deadline" once it has passed, otherwise
// "unavailable" — and the retained trace carries the same cause.
func TestUnavailableCause(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline time.Duration
		header   string
		want     string
	}{
		{"no deadline", 0, "", "unavailable"},
		{"live configured deadline", time.Hour, "", "unavailable"},
		{"spent caller budget", time.Hour, "0", "deadline"},
		{"spent configured budget", time.Nanosecond, "", "deadline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			l, _ := newTestLifecycle(t, Settings{
				Deadline: tc.deadline, TraceRequests: 4, Log: obs.NewTextLogger(&buf, slog.LevelInfo),
			})
			h := l.wrap(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				l.Fail(w, http.StatusServiceUnavailable, io.EOF)
			}))
			req := httptest.NewRequest("GET", "/v1/similar?id=1", nil)
			req.Header.Set("X-Request-ID", "r1")
			if tc.header != "" {
				req.Header.Set(DeadlineHeader, tc.header)
			}
			h.ServeHTTP(httptest.NewRecorder(), req)
			if !strings.Contains(buf.String(), "cause="+tc.want) {
				t.Errorf("access log %q, want cause=%s", buf.String(), tc.want)
			}
			if e, ok := l.Traces().Get("r1"); !ok || e.Cause != tc.want {
				t.Errorf("trace entry = %+v, want cause %s", e, tc.want)
			}
		})
	}
}

// TestHeaderBudget pins the X-Gebe-Deadline-Ms parser: millisecond
// counts a time.Duration cannot hold saturate rather than wrap, so a
// huge remaining budget never expires a request at once.
func TestHeaderBudget(t *testing.T) {
	const maxMs = math.MaxInt64 / int64(time.Millisecond)
	for _, tc := range []struct {
		raw  string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"soon", 0, false},
		{"1.5", 0, false},
		{"0", 0, true},
		{"-5", -5 * time.Millisecond, true},
		{"1500", 1500 * time.Millisecond, true},
		{"9223372036854", time.Duration(maxMs) * time.Millisecond, true}, // largest exact value
		{"9223372036855", math.MaxInt64, true},                           // first overflowing value
		{"9300000000000", math.MaxInt64, true},
		{"99999999999999", math.MaxInt64, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"99999999999999999999", math.MaxInt64, true}, // beyond int64
		{"-9223372036855", math.MinInt64, true},
		{"-9223372036854775808", math.MinInt64, true},
	} {
		got, ok := headerBudget(tc.raw)
		if got != tc.want || ok != tc.ok {
			t.Errorf("headerBudget(%q) = %v, %v; want %v, %v", tc.raw, got, ok, tc.want, tc.ok)
		}
	}

	now := time.Now()
	for _, raw := range []string{"9300000000000", "9223372036854775807", "99999999999999999999"} {
		if dl := requestDeadline(now, 0, raw); !dl.After(now.Add(100 * 365 * 24 * time.Hour)) {
			t.Errorf("header %s: deadline %v, want centuries away", raw, dl)
		}
		// The configured budget still wins over a saturated header.
		if dl := requestDeadline(now, time.Second, raw); !dl.Equal(now.Add(time.Second)) {
			t.Errorf("header %s with 1s budget: deadline %v, want now+1s", raw, dl)
		}
	}
	if dl := requestDeadline(now, 0, "0"); !dl.Equal(now) {
		t.Errorf("spent header: deadline %v, want now", dl)
	}
	if dl := requestDeadline(now, 0, "soon"); !dl.IsZero() {
		t.Errorf("malformed header: deadline %v, want none", dl)
	}
}

// TestDeadlineStampedOnContext: a huge caller budget reaches the
// handler as a far-future context deadline, not an expired one.
func TestDeadlineStampedOnContext(t *testing.T) {
	l, _ := newTestLifecycle(t, Settings{})
	var dl time.Time
	var ok bool
	h := l.wrap(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		dl, ok = r.Context().Deadline()
	}))
	req := httptest.NewRequest("POST", "/v1/recommend", nil)
	req.Header.Set(DeadlineHeader, "9223372036854775807")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if !ok || time.Until(dl) < 100*365*24*time.Hour {
		t.Errorf("context deadline %v (set %v), want centuries away", dl, ok)
	}
}

// discardWriter is a zero-allocation ResponseWriter for alloc-count
// tests: the header map is preallocated and bodies vanish.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestStatusRecorderForwardsFlushAndCountsBytes: wrapping the
// ResponseWriter must not lose http.Flusher, and the recorder reports
// how many body bytes the handler wrote (the access log's bytes field).
func TestStatusRecorderForwardsFlushAndCountsBytes(t *testing.T) {
	under := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: under}

	// The wrapper must satisfy Flusher statically and forward dynamically.
	var flusher http.Flusher = rec
	flusher.Flush()
	if !under.Flushed {
		t.Error("Flush not forwarded to the underlying writer")
	}

	n, err := rec.Write([]byte("hello "))
	if n != 6 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	rec.Write([]byte("world"))
	if rec.bytes != 11 {
		t.Errorf("bytes = %d, want 11", rec.bytes)
	}
	if rec.code != http.StatusOK {
		t.Errorf("implicit code = %d, want 200", rec.code)
	}
	// Flushing a non-Flusher base must not panic.
	(&statusRecorder{ResponseWriter: &discardWriter{h: make(http.Header)}}).Flush()
}

// TestHealthzTracingAllocFree guards the liveness fast path: with
// request tracing fully enabled, a /v1/healthz request must pass the
// tracing layer without a single allocation — no id mint, no trace, no
// recorder.
func TestHealthzTracingAllocFree(t *testing.T) {
	l, _ := newTestLifecycle(t, Settings{TraceRequests: 64})
	h := l.traced(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	w := &discardWriter{h: make(http.Header)}
	if allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); allocs != 0 {
		t.Errorf("healthz through tracing layer allocates %.1f/op, want 0", allocs)
	}
	// Same for the diagnostics surface itself.
	req = httptest.NewRequest("GET", "/debug/requests", nil)
	if allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); allocs != 0 {
		t.Errorf("/debug through tracing layer allocates %.1f/op, want 0", allocs)
	}
}

// TestShedTracingAllocFree guards the shed fast path: enabling request
// tracing must add zero allocations to a shed request — shedding
// happens above the tracing layer, so a 429 never mints an id or a
// trace.
func TestShedTracingAllocFree(t *testing.T) {
	shedAllocs := func(traceRequests int) float64 {
		l, _ := newTestLifecycle(t, Settings{MaxInflight: 1, TraceRequests: traceRequests})
		l.limiter <- struct{}{} // saturate so every request sheds
		h := l.wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			panic("shed request must not reach the handler")
		}))
		req := httptest.NewRequest("POST", "/v1/recommend", nil)
		w := &discardWriter{h: make(http.Header)}
		return testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
	}
	traced, untraced := shedAllocs(64), shedAllocs(0)
	if traced != untraced {
		t.Errorf("tracing adds allocations to the shed path: %.1f/op with tracing, %.1f/op without",
			traced, untraced)
	}
}

// BenchmarkHealthzFastPath and BenchmarkShedFastPath are the
// observable form of the alloc guards: run with -benchmem, both must
// report the tracing layer adding 0 allocs/op.
func BenchmarkHealthzFastPath(b *testing.B) {
	l, _ := newTestLifecycle(b, Settings{TraceRequests: 64})
	h := l.traced(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

func BenchmarkShedFastPath(b *testing.B) {
	l, _ := newTestLifecycle(b, Settings{MaxInflight: 1, TraceRequests: 64})
	l.limiter <- struct{}{}
	h := l.wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req := httptest.NewRequest("POST", "/v1/recommend", nil)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}
