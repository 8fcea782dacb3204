// Command perfbench is the repository's end-to-end benchmark: it runs the
// paper's protocol Π_ℤ (ProtoOptimal) through the production path — a
// DialTCP loopback mesh, one SessionMux per party, Open, RunParty — under
// four seeded closed-loop workloads, verifies every session against the
// simulator, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer split) followed by one JSON line.
//
//	bash _perfbench/run.sh --workload burst --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and for how to read the split.
package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runLimit stops a run that hangs; a healthy run takes well under it.
const runLimit = 170 * time.Second

// traceDir, relative to the working directory, receives the traced run's
// spans and CPU profile.
const traceDir = ".bench_out"

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: solo | burst | long | crash")
	seed := fs.Int64("seed", 1, "seed of every input and of the crashed set")
	seconds := fs.Int("seconds", 10, "length of each measured window")
	trace := fs.Int("trace", 0, "1: report the per-layer split of a traced window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sh, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload solo|burst|long|crash, --seconds ≥ 1, --trace 0|1")
		return 2
	}
	sh.window = time.Duration(*seconds) * time.Second
	runtime.GOMAXPROCS(runtime.NumCPU())

	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", sh.name, runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	r, err := execute(sh, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sh.name, err)
		return 1
	}
	var rp *report
	if *trace == 1 {
		if rp, err = r.perLayer(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", sh.name, err)
			return 1
		}
		base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", sh.name, *seed))
		if err := r.writeTrace(base); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", sh.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s.spans.jsonl.gz  cpu profile: %s.cpu.pprof\n", base, base)
	} else {
		rp = r.endToEnd()
	}
	w := r.untraced
	if r.traced != nil {
		w = r.traced
	}
	title := fmt.Sprintf("%s seed=%d n=%d t=%d clients=%d bits=%d crashed=%d window=%.2fs decided=%d latency-samples=%d",
		sh.name, *seed, sh.n, sh.t, sh.clients, sh.bits, sh.crashed, w.seconds(), len(w.decided), len(latencies(w)))
	rp.print(stdout, title)
	fmt.Fprintf(stderr, "perfbench: stages %s\n", r.stages)
	if *trace == 0 {
		rt := &report{}
		runtimeMetrics(rt, r.untraced)
		for _, m := range rt.metrics {
			fmt.Fprintf(stdout, "  %-36s %14.4f %s (untraced)\n", m.name, m.value, m.unit)
		}
	}
	if code := printJSON(stdout, rp); code != 0 || rp.correct {
		return code
	}
	fmt.Fprintf(stderr, "perfbench: %s: the run failed its checks (the report's ! lines say which)\n", sh.name)
	return 1
}

func printJSON(out io.Writer, rp *report) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rp.correct, rp.attempted, rp.failed, make(map[string]value, len(rp.metrics))}
	for _, m := range rp.metrics {
		doc.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

// span is one traced interval, in microseconds since the run started.
// Times in a partyRec are nanoseconds since the same start.
type span struct {
	Trace  uint64 `json:"trace"` // session id; 0 for set-up
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Party  int    `json:"party"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// writeTrace writes the traced phase's spans and CPU profile under base.
// Every honest party of a session gets a RunParty span; the session's
// lowest honest party also gets its per-round compute and exchange
// spans, which is where the per-round timeline is read from.
func (r *run) writeTrace(base string) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", r.traced.profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl.gz")
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	id := 0
	emit := func(s span) error {
		id++
		s.ID = id
		return enc.Encode(s)
	}
	at := func(t time.Time) int64 { return t.Sub(r.epoch).Microseconds() }
	dialEnd := r.tmesh.dialAt.Add(r.tmesh.dial)
	if err := emit(span{Name: "DialTCP", Party: -1, Start: at(r.tmesh.dialAt), End: at(dialEnd)}); err != nil {
		return err
	}
	if err := emit(span{Name: "NewSessionMux", Party: -1, Start: at(dialEnd), End: at(dialEnd.Add(r.tmesh.muxInit))}); err != nil {
		return err
	}
	for _, s := range r.traced.sessions {
		st := s.trace
		if st == nil {
			continue
		}
		var observer int
		for i, ps := range st.partySpans {
			if err := emit(span{Trace: s.sid, Name: "RunParty", Party: st.partyIDs[i], Start: ps[0] / 1e3, End: ps[1] / 1e3}); err != nil {
				return err
			}
			if st.partyIDs[i] == st.observer {
				observer = id
			}
		}
		for i, rr := range st.observerRounds {
			tag := st.roundTags[i]
			if err := emit(span{Trace: s.sid, Parent: observer, Name: "compute", Party: st.observer, Tag: tag,
				Start: (rr.enter - rr.compute) / 1e3, End: rr.enter / 1e3}); err != nil {
				return err
			}
			if err := emit(span{Trace: s.sid, Parent: observer, Name: "exchange", Party: st.observer, Tag: tag,
				Start: rr.enter / 1e3, End: rr.exit / 1e3}); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := zw.Close(); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
