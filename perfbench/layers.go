package main

import (
	"strings"

	"gebe/internal/obs"
)

// Per-layer figures come from two sources the modules already export:
// span trees (the solvers' Options.Trace, the servers' /debug/requests)
// and metric registries (the engines' EnableMetrics instruments). The
// helpers here turn both into plain numbers.

// spanTotals sums span durations (seconds) and counts spans by name over
// a whole tree.
type spanTotals struct {
	secs  map[string]float64
	count map[string]int
	// self is each name's summed self time: its duration minus the part
	// its children cover.
	self map[string]float64
}

func totalsOf(root *obs.Span) spanTotals {
	t := spanTotals{secs: map[string]float64{}, count: map[string]int{}, self: map[string]float64{}}
	t.add(root)
	return t
}

func (t spanTotals) add(s *obs.Span) {
	if s == nil {
		return
	}
	d := s.Duration.Seconds()
	t.secs[s.Name] += d
	t.count[s.Name]++
	self := d
	for _, c := range s.Children {
		self -= c.Duration.Seconds()
		t.add(c)
	}
	t.self[s.Name] += self
}

// findSpan returns the first span named name in a depth-first walk.
func findSpan(s *obs.Span, name string) *obs.Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// intAttr reads an integer attribute of an in-memory span, 0 when the
// span or the attribute is absent.
func intAttr(s *obs.Span, key string) float64 {
	if s == nil {
		return 0
	}
	v, _ := s.Attrs[key].(int)
	return float64(v)
}

// snapshot is a read-only view of a registry's values.
type snapshot map[string]any

func snap(r *obs.Registry) snapshot { return snapshot(r.Snapshot()) }

// val returns a counter or gauge value, 0 when absent.
func (s snapshot) val(name string) float64 {
	v, _ := s[name].(float64)
	return v
}

// histSum returns a histogram's summed observations, 0 when absent.
func (s snapshot) histSum(names ...string) float64 {
	t := 0.0
	for _, n := range names {
		if h, ok := s[n].(map[string]any); ok {
			t += h["sum"].(float64)
		}
	}
	return t
}

// simdShare is the fraction of kernel dispatches (a CounterVec family
// named prefix + label + "_total") that went to a vector kernel; the
// engines label those "<width>+<flavor>", e.g. "k16+avx2".
func (s snapshot) simdShare(prefix string) float64 {
	all, simd := 0.0, 0.0
	for name, v := range s {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, "_total") {
			continue
		}
		n, _ := v.(float64)
		all += n
		if strings.Contains(strings.TrimPrefix(name, prefix), "+") {
			simd += n
		}
	}
	if all == 0 {
		return 0
	}
	return simd / all
}

// setEngineLayers records the sparse.* and dense.* metrics of one
// interval, each divided by ops.
func setEngineLayers(b *bench, s snapshot, ops int) {
	n := float64(ops)
	spmmS := s.histSum("sparse_spmm_seconds", "sparse_spmm_t_seconds", "sparse_spmv_seconds", "sparse_spmv_t_seconds")
	spmmFMA := s.val("sparse_spmm_fma_total")
	b.set("sparse.spmm_s", spmmS/n)
	b.set("sparse.spmm_calls", (s.val("sparse_spmm_calls_total")+s.val("sparse_spmm_t_calls_total")+
		s.val("sparse_spmv_calls_total")+s.val("sparse_spmv_t_calls_total"))/n)
	b.set("sparse.spmm_fma", spmmFMA/n)
	b.set("sparse.spmm_gflops", gflops(spmmFMA, spmmS))
	b.set("sparse.transpose_s", s.histSum("sparse_transpose_build_seconds")/n)
	b.set("sparse.kernel_simd_share", s.simdShare("sparse_spmm_kernel_"))

	qrS := s.histSum("dense_qr_seconds")
	gemmS := s.histSum("dense_gemm_seconds", "dense_gemm_t_seconds", "dense_gemm_nt_seconds")
	denseFMA := s.val("dense_gemm_fma_total")
	b.set("dense.qr_s", qrS/n)
	b.set("dense.qr_calls", s.val("dense_qr_calls_total")/n)
	b.set("dense.gemm_s", gemmS/n)
	b.set("dense.fma", denseFMA/n)
	b.set("dense.gflops", gflops(denseFMA, gemmS+qrS))
	b.set("dense.kernel_simd_share", s.simdShare("dense_kernel_"))
}

// gflops converts multiply-adds over seconds into GFLOP/s (two flops
// per multiply-add).
func gflops(fma, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return 2 * fma / secs / 1e9
}

// zeroLayers presets every per-layer metric to 0, the reading of a
// layer the workload does not exercise.
func (b *bench) zeroLayers() {
	for _, d := range perLayer {
		b.values[d.name] = 0
	}
}

// setOverhead records the traced-minus-untraced difference of each
// end-to-end metric.
func (b *bench) setOverhead(untraced, traced map[string]float64) {
	for _, d := range endToEnd {
		b.set("trace_overhead."+d.name, traced[d.name]-untraced[d.name])
	}
}
