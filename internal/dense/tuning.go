package dense

import (
	"fmt"
	"sync/atomic"
	"time"

	"gebe/internal/cpu"
	"gebe/internal/obs"
)

// DefaultMinParallelFlops is the multiply-add count below which dense
// operations run sequentially: under ~128Ki fused multiply-adds the
// fork/join on the shared pool costs more than it saves.
const DefaultMinParallelFlops = 1 << 17

// Tuning carries the dense engine knobs call sites pass down with each
// operation. The zero value selects the sequential shape-aware defaults
// (register-blocked kernels, no parallel fan-out), so existing callers
// lose nothing.
type Tuning struct {
	// Threads caps the number of parallel partitions (<=1 sequential).
	Threads int
	// MinParallelFlops gates parallelism on the operation's multiply-add
	// count (rows·inner·cols for a product, ~n²(m−n/3) for QR);
	// 0 selects DefaultMinParallelFlops.
	MinParallelFlops int
	// Kernels picks the kernel flavor (Go scalar or SIMD).
	// The zero value KernelAuto follows GEBE_SIMD and hardware support;
	// explicit requests are clamped to what the CPU can run.
	Kernels cpu.KernelMode
}

// Validate rejects tunings no engine path can honor.
func (t Tuning) Validate() error {
	if t.Threads < 0 {
		return fmt.Errorf("dense: Tuning.Threads must be non-negative, got %d", t.Threads)
	}
	if t.MinParallelFlops < 0 {
		return fmt.Errorf("dense: Tuning.MinParallelFlops must be non-negative, got %d", t.MinParallelFlops)
	}
	if !t.Kernels.Valid() {
		return fmt.Errorf("dense: unknown Tuning.Kernels %d", int(t.Kernels))
	}
	return nil
}

// workers returns the partition count for an operation with the given
// multiply-add count: the thread cap, gated on flops and clamped to the
// partitionable extent (rows or column tiles).
func (t Tuning) workers(flops float64, parts int) int {
	nw := t.Threads
	if nw < 1 {
		nw = 1
	}
	gate := t.MinParallelFlops
	if gate <= 0 {
		gate = DefaultMinParallelFlops
	}
	if flops < float64(gate) {
		return 1
	}
	if nw > parts {
		nw = parts
	}
	return nw
}

// dop indexes the instrumented dense entry points in gemmMetrics.
type dop int

const (
	dopMul dop = iota
	dopTMul
	dopMulT
	dopQR
	numDops
)

// gemmMetrics holds pre-resolved metric handles for the dense hot paths.
// Telemetry is off by default — the only per-call cost is one atomic
// pointer load — and is switched on by EnableMetrics (wired to
// -v/-vv/-debug-addr in the commands, like the sparse engine's).
type gemmMetrics struct {
	seconds [numDops]*obs.Histogram
	calls   [numDops]*obs.Counter
	fma     *obs.Counter
	// strategy and kernel count how each operation was scheduled (serial,
	// rowpar, colpar) and which inner kernel it dispatched to,
	// one counter per label.
	strategy, kernel *obs.CounterVec
}

var gemms atomic.Pointer[gemmMetrics]

// EnableMetrics records dense kernel timings, dispatch counts and
// multiply-add counts into r; nil disables collection again. The span
// histograms use obs.FastBuckets — dense GEMM and QR calls at solver
// shapes sit well under a millisecond, where obs.DefBuckets would lump
// everything into one bucket.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		gemms.Store(nil)
		return
	}
	gm := &gemmMetrics{
		fma:      r.Counter("dense_gemm_fma_total", "dense multiply-adds performed (rows × inner × cols; QR booked by its shape formula)"),
		strategy: r.CounterVec("dense_strategy", "dense operations executed per schedule (serial or parallel fan-out)"),
		kernel:   r.CounterVec("dense_kernel", "dense operations executed per inner kernel"),
	}
	gm.seconds[dopMul] = r.Histogram("dense_gemm_seconds", "wall-clock of A·B products", obs.FastBuckets)
	gm.seconds[dopTMul] = r.Histogram("dense_gemm_t_seconds", "wall-clock of Aᵀ·B products", obs.FastBuckets)
	gm.seconds[dopMulT] = r.Histogram("dense_gemm_nt_seconds", "wall-clock of A·Bᵀ products", obs.FastBuckets)
	gm.seconds[dopQR] = r.Histogram("dense_qr_seconds", "wall-clock of Householder QR factorizations", obs.FastBuckets)
	gm.calls[dopMul] = r.Counter("dense_gemm_calls_total", "number of A·B products")
	gm.calls[dopTMul] = r.Counter("dense_gemm_t_calls_total", "number of Aᵀ·B products")
	gm.calls[dopMulT] = r.Counter("dense_gemm_nt_calls_total", "number of A·Bᵀ products")
	gm.calls[dopQR] = r.Counter("dense_qr_calls_total", "number of QR factorizations")
	gemms.Store(gm)
}

// record books one operation: wall-clock, call count, multiply-adds
// (a pure shape function, identical across schedules and kernels — the
// invariant TestEngineMetricsRecorded and TestQRBooksOneRecord pin), and
// the dispatch counters. Nil-safe so the disabled path stays branch-only.
func (gm *gemmMetrics) record(o dop, t0 time.Time, flops float64, strategy, kernel string) {
	if gm == nil {
		return
	}
	gm.seconds[o].ObserveSince(t0)
	gm.calls[o].Inc()
	gm.fma.Add(flops)
	gm.strategy.With(strategy).Inc()
	gm.kernel.With(kernel).Inc()
}

// gemmNow keeps the disabled-metrics path branch-only.
func gemmNow(gm *gemmMetrics) time.Time {
	if gm == nil {
		return time.Time{}
	}
	return time.Now()
}
