package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	ca "convexagreement"
)

// window is one measured interval of a phase.
type window struct {
	a, b     snapshot
	sessions []*session // every session of the phase that completed
	decided  []*session // those whose last honest party returned inside [a, b]
	steady   []*session // those of decided that were due after the ramp
	// decisions is the window's progress in sessions: honest rounds run
	// inside [a, b] over the rounds one session takes across its honest
	// parties (perSession). Unlike a count of finished sessions it does
	// not jump by a whole session at the window's edges.
	decisions  float64
	perSession float64
	rounds     float64 // mean rounds of the phase's completed sessions
	heapPeak   float64
	gorPeak    float64
	profile    []byte // gzipped pprof CPU profile, traced windows only

	// tcpnet's view at the window's end.
	faulty  int    // most peers any live party demoted
	demoted int    // demotions summed over live parties
	gap     uint64 // largest FrontierGap over live parties
}

func (w *window) seconds() float64 { return w.b.at.Sub(w.a.at).Seconds() }

// run is everything one benchmark invocation measured.
type run struct {
	sh       shape
	seed     int64
	epoch    time.Time
	crashed  map[int]bool
	setups   []float64 // seconds
	dials    []float64 // seconds
	untraced *window
	traced   *window
	tmesh    *mesh      // the traced phase's mesh, for its set-up spans
	sessions []*session // every completed session of every phase
	stages   stages
}

// stages times the parts of a run, for tuning the run's length.
type stages struct {
	setup, sizing, ramp, window, teardown, replay time.Duration
}

func (s stages) String() string {
	r := func(d time.Duration) time.Duration { return d.Round(10 * time.Millisecond) }
	return fmt.Sprintf("setup %v sizing %v ramp %v window %v teardown %v replay %v",
		r(s.setup), r(s.sizing), r(s.ramp), r(s.window), r(s.teardown), r(s.replay))
}

// phaseLimit bounds a ramp or the wait for a decision; a healthy run
// needs a fraction of it.
const phaseLimit = 90 * time.Second

// setupRuns is how many timed set-ups a run makes; setup_s is their
// median. One more, untimed, goes first: the process's first mesh pays
// one-off costs (goroutine stacks, the first listeners) several times a
// set-up's usual time.
const setupRuns = 41

// execute sets up the mesh 1 + setupRuns times, keeping the last for the
// untraced phase; with traced set, it runs the traced phase on a fresh
// mesh dialled under pprof labels. Then it replays every completed
// session through the simulator.
func execute(sh shape, seed int64, traced bool) (*run, error) {
	epoch := time.Now()
	r := &run{sh: sh, seed: seed, epoch: epoch, crashed: crashSet(seed, sh.n, sh.crashed)}
	var m *mesh
	for i := 0; i <= setupRuns; i++ {
		mm, err := dialMesh(sh.n, sh.t, r.crashed, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i > 0 {
			r.setups = append(r.setups, mm.setupTime().Seconds())
			r.dials = append(r.dials, mm.dial.Seconds())
		}
		if i < setupRuns {
			mm.close()
			continue
		}
		m = mm
	}
	r.stages.setup = time.Since(epoch)
	start := time.Now()
	lifetime, err := r.lifetime()
	r.stages.sizing = time.Since(start)
	if err != nil {
		m.close()
		return nil, err
	}
	if r.untraced, err = r.phase(m, lifetime, false); err != nil {
		return nil, err
	}
	r.sessions = append(r.sessions, r.untraced.sessions...)
	if traced {
		if r.tmesh, err = dialMesh(sh.n, sh.t, r.crashed, true); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if r.traced, err = r.phase(r.tmesh, lifetime, true); err != nil {
			return nil, err
		}
		r.sessions = append(r.sessions, r.traced.sessions...)
	}
	start = time.Now()
	r.replay()
	r.stages.replay = time.Since(start)
	return r, nil
}

// lifetime is the session lifetime in ticks that client starts are
// staggered over: the rounds the simulator takes on the first session's
// inputs, crashed parties silent.
func (r *run) lifetime() (int, error) {
	res, err := r.simulate(0, 0)
	if err != nil {
		return 0, fmt.Errorf("sizing the stagger: %w", err)
	}
	return res.Rounds, nil
}

// phase runs one closed loop over m and closes m. Client starts are
// staggered over lifetime ticks. The window opens at the first decision
// after every client has opened its first session — from then on every
// tick carries all clients' sessions at evenly spread protocol phases —
// and closes at the first decision after sh.window has passed, so that
// with few clients the window holds whole sessions; then the mesh is
// torn down under the sessions still running.
func (r *run) phase(m *mesh, lifetime int, traced bool) (*window, error) {
	l := newLoop(r.sh, r.seed, m, r.epoch, lifetime, traced)
	if err := l.start(); err != nil {
		m.close()
		return nil, err
	}
	start := time.Now()
	if err := l.wait(l.ramped, "ramp", phaseLimit); err != nil {
		l.abort()
		return nil, err
	}
	if err := l.wait(l.nextDecision(), "first decision", phaseLimit); err != nil {
		l.abort()
		return nil, err
	}
	r.stages.ramp += time.Since(start)

	w := &window{}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			l.abort()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	pk := startPeaks(10 * time.Millisecond)
	w.a = takeSnapshot(m, &l.exchanges)
	time.Sleep(r.sh.window)
	werr := l.wait(l.nextDecision(), "last decision", phaseLimit)
	w.b = takeSnapshot(m, &l.exchanges)
	pk.end()
	if traced {
		pprof.StopCPUProfile()
		w.profile = prof.Bytes()
	}
	w.heapPeak, w.gorPeak = pk.heap, pk.gor
	r.stages.window += w.b.at.Sub(w.a.at)
	for _, p := range m.alive {
		tr := m.trs[p]
		if f := len(tr.Faulty()); f > w.faulty {
			w.faulty = f
		}
		for _, c := range tr.Demotions() {
			w.demoted += c
		}
		if g := tr.FrontierGap(); g > w.gap {
			w.gap = g
		}
	}

	start = time.Now()
	l.abort()
	r.stages.teardown += time.Since(start)
	if werr != nil {
		return nil, werr
	}

	w.sessions = l.sessions
	rounds := 0
	for _, s := range w.sessions {
		rounds += s.rounds
		if s.end.Before(w.a.at) || s.end.After(w.b.at) {
			continue
		}
		w.decided = append(w.decided, s)
		if !s.due.Before(l.rampEnd) {
			w.steady = append(w.steady, s)
		}
	}
	if rounds == 0 {
		return nil, errors.New("no session completed")
	}
	w.rounds = float64(rounds) / float64(len(w.sessions))
	w.perSession = w.rounds * float64(len(m.alive))
	w.decisions = float64(w.b.progress-w.a.progress) / w.perSession
	return w, nil
}

// replay re-runs every session through the simulator (ca.Agree, crashed
// parties silent) outside the timed windows. The simulator must reach the
// same output in the same number of rounds, and for a traced session its
// per-label bits must equal the session's non-self bytes × 8, label by
// label. A mismatch fails the session.
func (r *run) replay() {
	work := make(chan *session)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				if s.failure == "" {
					s.failure = r.oracle(s)
				}
			}
		}()
	}
	for _, s := range r.sessions {
		work <- s
	}
	close(work)
	wg.Wait()
}

// simulate runs client's seq-th session through the simulator.
func (r *run) simulate(client, seq int) (*ca.Result, error) {
	inputs := make([]*big.Int, r.sh.n)
	corr := make(map[int]ca.Corruption, len(r.crashed))
	for p := range inputs {
		if r.crashed[p] {
			corr[p] = ca.Corruption{Kind: ca.AdvSilent}
		} else {
			inputs[p] = partyInput(r.seed, client, seq, p, r.sh.bits)
		}
	}
	return ca.Agree(inputs, ca.Options{N: r.sh.n, T: r.sh.t, Protocol: ca.ProtoOptimal, Corruptions: corr})
}

func (r *run) oracle(s *session) string {
	res, err := r.simulate(s.client, s.seq)
	switch {
	case err != nil:
		return fmt.Sprintf("oracle: %v", err)
	case res.Output.Cmp(s.out) != 0:
		return "oracle: different output"
	case res.Rounds != s.rounds:
		return fmt.Sprintf("oracle: %d rounds, measured %d", res.Rounds, s.rounds)
	}
	if s.trace == nil {
		return ""
	}
	for label, bits := range res.BitsByLabel {
		if got := s.trace.ledger[label] * 8; got != bits {
			return fmt.Sprintf("ledger: %s carried %d bits, simulator %d", label, got, bits)
		}
	}
	for label, b := range s.trace.ledger {
		if _, ok := res.BitsByLabel[label]; !ok && b != 0 {
			return fmt.Sprintf("ledger: %s carried %d bits, simulator none", label, b*8)
		}
	}
	return ""
}
