package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	ca "convexagreement"
)

// Runtime metrics read at the edges of a window; all are cheap to read.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mAssistCPU  = "/cpu/classes/gc/mark/assist:cpu-seconds"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mSchedLat   = "/sched/latencies:seconds"
	mGoroutines = "/sched/goroutines:goroutines"
	mHeapObjs   = "/memory/classes/heap/objects:bytes"
)

// snapshot is the process and program state at one edge of a window.
type snapshot struct {
	at       time.Time
	cpu      time.Duration // user + system time of the process
	rt       map[string]metrics.Value
	mux      ca.SessionMuxStats // summed over live parties
	ticks    uint64             // mean over live parties
	progress int64              // honest rounds run so far
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime(names ...string) map[string]metrics.Value {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]metrics.Value, len(samples))
	for _, s := range samples {
		out[s.Name] = s.Value
	}
	return out
}

func takeSnapshot(m *mesh, progress *atomic.Int64) snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTime(), progress: progress.Load()}
	s.rt = readRuntime(mAllocBytes, mAllocObjs, mGCCycles, mGCCPU, mAssistCPU, mGCPauses, mSchedLat)
	for _, p := range m.alive {
		st := m.muxes[p].Stats()
		s.mux.Ticks += st.Ticks
		s.mux.Packets += st.Packets
		s.mux.BytesReferenced += st.BytesReferenced
		s.mux.BytesCopied += st.BytesCopied
		s.mux.SessionShed += st.SessionShed
		s.mux.TickShed += st.TickShed
	}
	s.ticks = s.mux.Ticks / uint64(len(m.alive))
	return s
}

func scalar(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// delta returns b − a for a scalar runtime metric.
func delta(a, b snapshot, name string) float64 { return scalar(b.rt[name]) - scalar(a.rt[name]) }

// histQuantile returns the q-quantile of the histogram counts b − a, as
// the upper edge of the bucket that holds it (the lower edge for the
// open-ended last bucket).
func histQuantile(a, b snapshot, name string, q float64) float64 {
	hb, ha := b.rt[name], a.rt[name]
	if hb.Kind() != metrics.KindFloat64Histogram || ha.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	hi, lo := hb.Float64Histogram(), ha.Float64Histogram()
	var total uint64
	counts := make([]uint64, len(hi.Counts))
	for i := range hi.Counts {
		counts[i] = hi.Counts[i] - lo.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if edge := hi.Buckets[i+1]; !math.IsInf(edge, 0) {
				return edge
			}
			return hi.Buckets[i]
		}
	}
	return hi.Buckets[len(hi.Buckets)-1]
}

// peaks samples live heap and goroutine count while a window runs.
type peaks struct {
	stop chan struct{}
	done sync.WaitGroup
	heap float64 // bytes
	gor  float64
}

func startPeaks(every time.Duration) *peaks {
	pk := &peaks{stop: make(chan struct{})}
	sample := func() {
		v := readRuntime(mHeapObjs, mGoroutines)
		pk.heap = math.Max(pk.heap, scalar(v[mHeapObjs]))
		pk.gor = math.Max(pk.gor, scalar(v[mGoroutines]))
	}
	sample()
	pk.done.Add(1)
	go func() {
		defer pk.done.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-pk.stop:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return pk
}

// end stops the sampler and waits for it.
func (pk *peaks) end() {
	close(pk.stop)
	pk.done.Wait()
}

// quantile is the linear-interpolation quantile of sorted values, the
// convention of Python's statistics.quantiles(method="inclusive").
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}
