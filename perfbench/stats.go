package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// heapSampler tracks the high-water mark of the live Go heap (the bytes
// the most recent GC marked live) while it runs. The runtime updates
// that figure once per GC cycle; sampling every 2ms catches every cycle
// of the workloads here, which run tens of milliseconds apart at least.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in megabytes (2^20).
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// gcStats is a snapshot of the cumulative runtime counters the
// runtime.* layer metrics are deltas of.
type gcStats struct {
	allocBytes uint64
	cycles     uint32
	pauseNs    uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{allocBytes: ms.TotalAlloc, cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// setPer records the runtime.* layer metrics of the interval from s to
// now, divided by ops (solves or requests).
func (s gcStats) setPer(b *bench, now gcStats, ops int) {
	n := float64(ops)
	b.set("runtime.alloc_mb", float64(now.allocBytes-s.allocBytes)/(1<<20)/n)
	b.set("runtime.gc_cycles", float64(now.cycles-s.cycles)/n)
	b.set("runtime.gc_pause_s", float64(now.pauseNs-s.pauseNs)/1e9/n)
}
