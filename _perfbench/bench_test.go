package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tiny shrinks a workload to n = 4 and one-second windows, keeping what
// makes it that workload: its client count (capped at 3), long inputs,
// crashed parties.
func tiny(t *testing.T, name string) shape {
	t.Helper()
	sh, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sh.n, sh.t = 4, 1
	sh.clients = min(sh.clients, 3)
	if sh.bits > 64 {
		sh.bits = 1 << 12
	}
	sh.crashed = min(sh.crashed, sh.t)
	sh.window = time.Second
	return sh
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// emits checks that rp reports exactly the declared metrics, each with
// its declared unit, and passed every check.
func emits(t *testing.T, what string, rp *report, want map[string]string) map[string]float64 {
	t.Helper()
	got := make(map[string]float64, len(rp.metrics))
	for _, m := range rp.metrics {
		if unit, ok := want[m.name]; !ok {
			t.Errorf("%s: undeclared metric %s", what, m.name)
		} else if unit != m.unit {
			t.Errorf("%s: %s in %q, declared %q", what, m.name, m.unit, unit)
		}
		got[m.name] = m.value
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: metric %s not emitted", what, name)
		}
	}
	if !rp.correct || rp.failed != 0 || rp.attempted == 0 {
		t.Errorf("%s: correct=%v failed=%d of %d: %v", what, rp.correct, rp.failed, rp.attempted, rp.notes)
	}
	return got
}

func TestWorkloadsTiny(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sh := tiny(t, w.name)
			r, err := execute(sh, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.untraced.decided) == 0 || len(r.traced.decided) == 0 {
				t.Errorf("%d and %d sessions decided in the windows", len(r.untraced.decided), len(r.traced.decided))
			}
			emits(t, "end-to-end", r.endToEnd(), endToEnd)
			lp, err := r.perLayer()
			if err != nil {
				t.Fatal(err)
			}
			got := emits(t, "per-layer", lp, perLayer)
			if got["sessmux.bytes_copied"] != 0 {
				t.Errorf("sessmux copied %v bytes over TCP", got["sessmux.bytes_copied"])
			}
			if got["proto.silent_peers"] != float64(sh.crashed) {
				t.Errorf("proto.silent_peers = %v, want %d", got["proto.silent_peers"], sh.crashed)
			}
			if err := r.writeTrace(filepath.Join(t.TempDir(), sh.name)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSameSeedSameSessions runs a workload twice with one seed: every
// session both runs completed must take the same rounds and carry the
// same bytes under the same tags. Which sessions complete depends on
// timing; what each one does must not.
func TestSameSeedSameSessions(t *testing.T) {
	sh := tiny(t, "crash")
	type key struct{ client, seq int }
	runOnce := func() map[key]*session {
		r, err := execute(sh, 11, true)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[key]*session)
		for _, s := range r.traced.sessions {
			out[key{s.client, s.seq}] = s
		}
		return out
	}
	first, second := runOnce(), runOnce()
	both := 0
	for k, a := range first {
		b := second[k]
		if b == nil {
			continue
		}
		both++
		if a.rounds != b.rounds {
			t.Errorf("session %v: %d rounds, then %d", k, a.rounds, b.rounds)
		}
		if a.trace.groupRounds != b.trace.groupRounds || a.trace.subRounds != b.trace.subRounds {
			t.Errorf("session %v: tag round counts differ", k)
		}
		if len(a.trace.ledger) != len(b.trace.ledger) {
			t.Errorf("session %v: %d tags, then %d", k, len(a.trace.ledger), len(b.trace.ledger))
		}
		for tag, n := range a.trace.ledger {
			if b.trace.ledger[tag] != n {
				t.Errorf("session %v: %s carried %d bytes, then %d", k, tag, n, b.trace.ledger[tag])
			}
		}
	}
	if both == 0 {
		t.Fatalf("no session completed in both runs (%d, then %d)", len(first), len(second))
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		tag        string
		group, sub int
	}{
		{"ca/sign/pk1", gPhaseKing, sSign},
		{"ca/mag/len3/pk2", gPhaseKing, sEstimate},
		{"ca/mag/lenient/pk2", gPhaseKing, sNone},
		{"ca/mag/flca/fp/lba/a/val/tc1", gTurpinCoan, sFindPrefix},
		{"ca/mag/flcab/fpb/lba/dist", gBAPlus, sFindPrefix},
		{"ca/mag/flca/fp/lba/sharerelay", gDispersal, sFindPrefix},
		{"ca/mag/flca/alb/lastbit/pk3", gPhaseKing, sAddLast},
		{"ca/mag/flca/go/side", gOther, sGetOutput},
		{"", gOther, sNone},
	} {
		if g, s := classify(c.tag); g != c.group || s != c.sub {
			t.Errorf("classify(%q) = %d, %d; want %d, %d", c.tag, g, s, c.group, c.sub)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"syscall.Syscall6", "internal/poll.(*FD).Writev", "net.(*netFD).writeBuffers", "convexagreement/internal/tcpnet.(*Conn).writeBufs"}, "tcpnet.write"},
		{[]string{"math/big.nat.add", "convexagreement/internal/bitstr.(*Bits).Append", "convexagreement/internal/core.FindPrefixBlocks"}, "bitstr"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "convexagreement/internal/sessmux.(*Mux).demux"}, "gc"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.ready", "sync.(*Cond).Broadcast", "convexagreement/internal/sessmux.(*Mux).flush"}, "sched"},
		{[]string{"convexagreement/internal/sessmux.unframe", "convexagreement/internal/sessmux.(*Mux).demux"}, "sessmux.demux"},
		{[]string{"sort.insertionSort", "convexagreement/internal/tcpnet.sortMessages"}, "tcpnet.sort"},
		{[]string{"convexagreement.netAdapter.Exchange", "convexagreement.RunParty"}, "adapter"},
		{[]string{"main.(*partyNet).Exchange"}, "harness"},
		{[]string{"runtime.sysmon", "runtime.mstart"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestFinishOrdersExchanges checks the guard behind the compute/wait
// split: an exchange outside the RunParty call, or overlapping the
// previous one, is refused.
func TestFinishOrdersExchanges(t *testing.T) {
	epoch := time.Now()
	at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }
	for _, c := range []struct {
		name   string
		rounds []roundRec
		ok     bool
	}{
		{"inside", []roundRec{{enter: 10, exit: 20}, {enter: 25, exit: 40}}, true},
		{"before start", []roundRec{{enter: 5, exit: 20}}, false},
		{"overlapping", []roundRec{{enter: 10, exit: 30}, {enter: 25, exit: 40}}, false},
		{"after end", []roundRec{{enter: 10, exit: 120}}, false},
	} {
		r := newPartyRec(epoch)
		r.rounds = c.rounds
		err := r.finish(at(8), at(100))
		if (err == nil) != c.ok {
			t.Errorf("%s: finish = %v", c.name, err)
			continue
		}
		if c.ok {
			var sum int64
			for _, rr := range r.rounds {
				sum += rr.compute + rr.wait()
			}
			if sum+r.end-r.last != r.end-r.start {
				t.Errorf("%s: compute + wait = %d ns, call %d ns", c.name, sum+r.end-r.last, r.end-r.start)
			}
		}
	}
}
