package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one invocation prints: the end-to-end metrics of the
// untraced window, or the per-layer metrics of the traced one.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string // failures and broken invariants, one line each
}

func (rp *report) add(name string, value float64, unit string) {
	rp.metrics = append(rp.metrics, metric{name, value, unit})
}

func (rp *report) fail(format string, args ...any) {
	rp.correct = false
	rp.notes = append(rp.notes, fmt.Sprintf(format, args...))
}

// latencies returns the latencies in ms, sorted, of the sessions decided
// inside the window whose whole lifetime ran at full load — due after
// every client had opened its first session — or, when the window is too
// short to hold one, of every session decided inside it. A latency runs
// from when the session was due to its last honest party's return.
func latencies(w *window) []float64 {
	from := w.steady
	if len(from) == 0 {
		from = w.decided
	}
	out := make([]float64, 0, len(from))
	for _, s := range from {
		out = append(out, float64(s.end.Sub(s.due))/1e6)
	}
	sort.Float64s(out)
	return out
}

func decisionsPerSec(w *window) float64 { return w.decisions / w.seconds() }

// check fills the verdict shared by both reports: every session of the
// run must have passed, the window must hold decisions, and the mux must
// not have copied a payload byte over TCP.
func (r *run) check(rp *report, w *window) {
	rp.correct = true
	rp.attempted = len(r.sessions)
	for _, s := range r.sessions {
		if s.failure != "" {
			rp.failed++
			if rp.failed <= 5 {
				rp.notes = append(rp.notes, fmt.Sprintf("session %d (client %d #%d): %s", s.sid, s.client, s.seq, s.failure))
			}
		}
	}
	if rp.failed > 0 {
		rp.correct = false
	}
	if len(w.decided) == 0 {
		rp.fail("no session decided inside the %.1fs window", w.seconds())
	}
	if c := w.b.mux.BytesCopied - w.a.mux.BytesCopied; c != 0 {
		rp.fail("sessmux copied %d payload bytes over TCP", c)
	}
}

// endToEnd is the untraced report.
func (r *run) endToEnd() *report {
	w := r.untraced
	rp := &report{}
	r.check(rp, w)
	d := math.Max(w.decisions, 1e-9)
	lat := latencies(w)
	rp.add("decisions_per_s", decisionsPerSec(w), "1/s")
	rp.add("latency_p50_ms", quantile(lat, 0.5), "ms")
	rp.add("latency_p90_ms", quantile(lat, 0.9), "ms")
	rp.add("rounds_per_decision", w.rounds, "count")
	payload := (w.b.mux.BytesReferenced + w.b.mux.BytesCopied) - (w.a.mux.BytesReferenced + w.a.mux.BytesCopied)
	rp.add("payload_bytes_per_decision", float64(payload)/d, "B")
	rp.add("cpu_ms_per_decision", float64(w.b.cpu-w.a.cpu)/1e6/d, "ms")
	rp.add("alloc_bytes_per_decision", delta(w.a, w.b, mAllocBytes)/d, "B")
	rp.add("allocs_per_decision", delta(w.a, w.b, mAllocObjs)/d, "count")
	rp.add("heap_peak_mib", w.heapPeak/(1<<20), "MiB")
	rp.add("setup_s", median(r.setups), "s")
	return rp
}

// runtimeMetrics are the GC and scheduler numbers of a window.
func runtimeMetrics(rp *report, w *window) {
	d := math.Max(w.decisions, 1e-9)
	rp.add("gc.cycles", delta(w.a, w.b, mGCCycles)/d, "count")
	rp.add("gc.cpu_ms", delta(w.a, w.b, mGCCPU)*1e3/d, "ms")
	rp.add("gc.assist_ms", delta(w.a, w.b, mAssistCPU)*1e3/d, "ms")
	rp.add("gc.pause_p99_us", histQuantile(w.a, w.b, mGCPauses, 0.99)*1e6, "us")
	rp.add("sched.latency_p99_us", histQuantile(w.a, w.b, mSchedLat, 0.99)*1e6, "us")
	rp.add("sched.goroutines_peak", w.gorPeak, "count")
}

// perLayer is the traced report: the protocol split from the session
// wrappers' spans, the CPU split from the profile, the mux, tcpnet and
// runtime counters, and the tracing overhead against the untraced window
// of the same run.
func (r *run) perLayer() (*report, error) {
	w := r.traced
	rp := &report{}
	r.check(rp, w)
	// Per-session numbers average over the sessions decided in the window;
	// window totals (CPU, runtime) divide by the window's decision count.
	d := math.Max(float64(len(w.decided)), 1)
	dw := math.Max(w.decisions, 1e-9)

	// Protocol: per decision, compute and wait are per-party means, bytes
	// are summed over honest parties.
	var (
		compute, wait  float64
		gRounds, gByte [numGroups]float64
		gComp          [numGroups]float64
		sRounds, sByte [numSubs]float64
		sComp          [numSubs]float64
		silent         float64
		waits          []float64
	)
	for _, s := range w.decided {
		st := s.trace
		if st == nil {
			return nil, fmt.Errorf("session %d decided in the traced window without a trace", s.sid)
		}
		k := float64(st.parties)
		compute += float64(st.compute) / k
		wait += float64(st.wait) / k
		for g := 0; g < numGroups; g++ {
			gRounds[g] += float64(st.groupRounds[g])
			gByte[g] += float64(st.groupBytes[g])
			gComp[g] += float64(st.groupCompute[g]) / k
		}
		for x := 0; x < numSubs; x++ {
			sRounds[x] += float64(st.subRounds[x])
			sByte[x] += float64(st.subBytes[x])
			sComp[x] += float64(st.subCompute[x]) / k
		}
		silent += float64(st.silent)
		for _, v := range st.waits {
			waits = append(waits, float64(v)/1e3)
		}
	}
	sort.Float64s(waits)
	rp.add("proto.compute_ms", compute/1e6/d, "ms")
	rp.add("proto.wait_ms", wait/1e6/d, "ms")
	rp.add("proto.silent_peers", silent/d, "count")
	rp.add("round.wait_p50_ms", quantile(waits, 0.5), "ms")
	rp.add("round.wait_p99_ms", quantile(waits, 0.99), "ms")
	for g, name := range groupNames {
		rp.add("tag."+name+".rounds", gRounds[g]/d, "count")
		rp.add("tag."+name+".bytes", gByte[g]/d, "B")
		rp.add("tag."+name+".compute_ms", gComp[g]/1e6/d, "ms")
	}
	for x, name := range subNames {
		rp.add("sub."+name+".rounds", sRounds[x]/d, "count")
		rp.add("sub."+name+".bytes", sByte[x]/d, "B")
		rp.add("sub."+name+".compute_ms", sComp[x]/1e6/d, "ms")
	}

	split, total, err := cpuSplit(w.profile)
	if err != nil {
		return nil, err
	}
	var sum int64
	for _, b := range cpuBuckets {
		rp.add("cpu."+b, float64(split[b])/1e6/dw, "ms")
		sum += split[b]
	}
	rp.add("cpu.total_ms", float64(total)/1e6/dw, "ms")
	if sum != total {
		rp.fail("cpu split sums to %d ns, profile total %d ns", sum, total)
	}

	mux := func(f func(snapshot) uint64) float64 { return float64(f(w.b) - f(w.a)) }
	packets := mux(func(s snapshot) uint64 { return s.mux.Packets })
	ticks := mux(func(s snapshot) uint64 { return s.mux.Ticks })
	shed := mux(func(s snapshot) uint64 { return s.mux.SessionShed + s.mux.TickShed })
	rp.add("sessmux.frames_per_tick", packets/math.Max(ticks, 1), "count")
	rp.add("sessmux.ticks_per_s", mux(func(s snapshot) uint64 { return s.ticks })/w.seconds(), "1/s")
	rp.add("sessmux.shed", shed/math.Max(packets, 1), "ratio")
	rp.add("sessmux.bytes_copied", mux(func(s snapshot) uint64 { return s.mux.BytesCopied }), "B")

	rp.add("tcpnet.faulty_peers", float64(w.faulty), "count")
	rp.add("tcpnet.demotions", float64(w.demoted), "count")
	rp.add("tcpnet.frontier_gap", float64(w.gap), "count")
	rp.add("setup.dial_ms", median(r.dials)*1e3, "ms")

	runtimeMetrics(rp, w)

	u := r.untraced
	ud, td := decisionsPerSec(u), decisionsPerSec(w)
	up, tp := quantile(latencies(u), 0.5), quantile(latencies(w), 0.5)
	rp.add("trace.untraced_decisions_per_s", ud, "1/s")
	rp.add("trace.traced_decisions_per_s", td, "1/s")
	rp.add("trace.untraced_latency_p50_ms", up, "ms")
	rp.add("trace.traced_latency_p50_ms", tp, "ms")
	rp.add("trace.overhead_pct", 100*(ud-td)/math.Max(ud, 1e-9), "%")
	return rp, nil
}

// print writes the human-readable report.
func (rp *report) print(out io.Writer, title string) {
	fmt.Fprintf(out, "%s\n", title)
	for _, m := range rp.metrics {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "  %-36s %14.4f (%d of %d sessions)\n", "fail_ratio", float64(rp.failed)/math.Max(float64(rp.attempted), 1), rp.failed, rp.attempted)
	for _, n := range rp.notes {
		fmt.Fprintf(out, "  ! %s\n", n)
	}
}
