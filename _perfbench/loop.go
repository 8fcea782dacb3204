package main

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	ca "convexagreement"
)

// pacerSid is the session every live party drives with Exchange(nil) on
// every tick. It keeps the mux clock running whatever the load, and gives
// each party one place to open scheduled sessions before it submits a
// tick.
const pacerSid = 0

// session is one agreement: a client's seq-th request.
type session struct {
	sid         uint64
	client, seq int

	due    time.Time // when the client asked for it
	opened time.Time // first party's open

	// Filled as parties report, under loop.mu.
	lo, hi   *big.Int // hull of the honest inputs
	out      *big.Int
	rounds   int // most exchanges any honest party made
	finished int
	end      time.Time // last honest party's RunParty return
	failure  string    // first error, disagreement or hull violation
	recs     map[int]*partyRec
	trace    *sessionTrace
}

// loop drives one closed-loop phase over one mesh. Every open comes from
// one tick-indexed schedule shared by all parties: a party opens what the
// schedule lists for tick k right before it submits tick k, so every
// participant of a session opens it at the same tick, as the mux's
// lock-step contract requires.
type loop struct {
	sh       shape
	seed     int64
	m        *mesh
	epoch    time.Time
	lifetime int // ticks the client starts are staggered over
	traced   bool

	// exchanges counts every honest party's rounds: the phase's progress,
	// smooth at any instant, unlike the count of finished sessions.
	exchanges atomic.Int64

	mu       sync.Mutex
	cur      []uint64 // tick each party's pacer is about to submit
	opens    map[uint64][]*session
	reads    map[uint64]int
	aborting bool // the mesh is being torn down
	nextSid  uint64
	seqs     []int
	rampLeft int           // clients that have not opened a session yet
	ramped   chan struct{} // closed when every client has opened one
	rampEnd  time.Time     // when ramped closed
	decided  chan struct{} // closed and replaced whenever a session completes
	sessions []*session    // completed, in completion order

	pacers   sync.WaitGroup
	parties  sync.WaitGroup
	failOnce sync.Once
	failed   chan struct{}
	err      error
}

func newLoop(sh shape, seed int64, m *mesh, epoch time.Time, lifetime int, traced bool) *loop {
	return &loop{
		sh: sh, seed: seed, m: m, epoch: epoch, lifetime: lifetime, traced: traced,
		cur:      make([]uint64, sh.n),
		opens:    make(map[uint64][]*session),
		reads:    make(map[uint64]int),
		nextSid:  pacerSid + 1,
		seqs:     make([]int, sh.clients),
		rampLeft: sh.clients,
		ramped:   make(chan struct{}),
		decided:  make(chan struct{}),
		failed:   make(chan struct{}),
	}
}

// fail records the first fatal error: one that stops the mesh's clock.
func (l *loop) fail(err error) {
	l.failOnce.Do(func() {
		l.err = err
		close(l.failed)
	})
}

// start opens the pacer session on every live party at tick 0 and
// staggers the clients' first sessions evenly across one session
// lifetime, so ticks carry a steady mix of protocol phases.
func (l *loop) start() error {
	pacers := make([]*ca.MuxedTransport, len(l.m.alive))
	for i, p := range l.m.alive {
		mt, err := l.m.muxes[p].Open(pacerSid, l.sh.n, l.sh.t)
		if err != nil {
			return fmt.Errorf("party %d: open pacer: %w", p, err)
		}
		pacers[i] = mt
	}
	l.mu.Lock()
	for c := 0; c < l.sh.clients; c++ {
		l.schedule(c, 1+uint64(c*l.lifetime/l.sh.clients), time.Time{})
	}
	l.mu.Unlock()
	for i, p := range l.m.alive {
		l.pacers.Add(1)
		go l.pace(p, pacers[i])
	}
	return nil
}

func (l *loop) pace(p int, pacer *ca.MuxedTransport) {
	defer l.pacers.Done()
	defer pacer.Close()
	for k := uint64(0); ; k++ {
		l.mu.Lock()
		l.cur[p] = k
		list := l.opens[k]
		if list != nil {
			l.reads[k]++
			if l.reads[k] == len(l.m.alive) {
				delete(l.opens, k)
				delete(l.reads, k)
			}
		}
		l.mu.Unlock()
		for _, s := range list {
			l.open(p, s)
		}
		if _, err := pacer.Exchange(nil); err != nil {
			l.mu.Lock()
			aborting := l.aborting
			l.mu.Unlock()
			if !aborting {
				l.fail(fmt.Errorf("party %d: pacer tick %d: %w", p, k, err))
			}
			return
		}
	}
}

// nextTick is the first tick no pacer has reached yet. Caller holds l.mu.
func (l *loop) nextTick() uint64 {
	var max uint64
	for _, p := range l.m.alive {
		if l.cur[p] > max {
			max = l.cur[p]
		}
	}
	return max + 1
}

// schedule lists the client's next session for tick. Caller holds l.mu.
func (l *loop) schedule(client int, tick uint64, due time.Time) {
	s := &session{sid: l.nextSid, client: client, seq: l.seqs[client], due: due}
	if l.traced {
		s.recs = make(map[int]*partyRec, len(l.m.alive))
	}
	l.nextSid++
	l.seqs[client]++
	l.opens[tick] = append(l.opens[tick], s)
}

// open starts party p's side of s; p's pacer calls it before submitting
// the session's tick.
func (l *loop) open(p int, s *session) {
	mt, err := l.m.muxes[p].Open(s.sid, l.sh.n, l.sh.t)
	l.mu.Lock()
	if s.opened.IsZero() {
		s.opened = time.Now()
		if s.due.IsZero() {
			s.due = s.opened
		}
		if s.seq == 0 {
			if l.rampLeft--; l.rampLeft == 0 {
				l.rampEnd = s.opened
				close(l.ramped)
			}
		}
	}
	l.mu.Unlock()
	if err != nil {
		l.finish(s, p, nil, fmt.Errorf("open: %w", err), nil, time.Now())
		return
	}
	l.parties.Add(1)
	go l.runParty(p, s, mt)
}

func (l *loop) runParty(p int, s *session, mt *ca.MuxedTransport) {
	defer l.parties.Done()
	input := partyInput(l.seed, s.client, s.seq, p, l.sh.bits)
	l.mu.Lock()
	if s.lo == nil || input.Cmp(s.lo) < 0 {
		s.lo = input
	}
	if s.hi == nil || input.Cmp(s.hi) > 0 {
		s.hi = input
	}
	l.mu.Unlock()
	w := &partyNet{mt: mt, id: p, progress: &l.exchanges}
	if s.recs != nil {
		w.rec = newPartyRec(l.epoch)
	}
	start := time.Now()
	out, err := ca.RunParty(w, ca.ProtoOptimal, 0, input)
	end := time.Now()
	if w.rec != nil && err == nil {
		err = w.rec.finish(start, end)
	}
	mt.Close()
	l.finish(s, p, out, err, w, end)
}

// finish records party p's result for s. The last honest party to report
// completes the session, checks agreement and validity, and schedules the
// client's next session at the first tick after it. A session still
// running when the mesh is torn down is dropped: neither counted nor
// verified.
func (l *loop) finish(s *session, p int, out *big.Int, err error, w *partyNet, end time.Time) {
	l.mu.Lock()
	if l.aborting {
		l.mu.Unlock()
		return
	}
	if err != nil && s.failure == "" {
		s.failure = fmt.Sprintf("party %d: %v", p, err)
	}
	if out != nil {
		if s.out == nil {
			s.out = out
		} else if s.out.Cmp(out) != 0 && s.failure == "" {
			s.failure = fmt.Sprintf("party %d disagrees", p)
		}
	}
	if w != nil {
		if w.rounds > s.rounds {
			s.rounds = w.rounds
		}
		if w.rec != nil {
			s.recs[p] = w.rec
		}
	}
	if end.After(s.end) {
		s.end = end
	}
	s.finished++
	if s.finished < len(l.m.alive) {
		l.mu.Unlock()
		return
	}
	if s.failure == "" && (s.out == nil || s.out.Cmp(s.lo) < 0 || s.out.Cmp(s.hi) > 0) {
		s.failure = "output outside the honest hull"
	}
	l.schedule(s.client, l.nextTick(), s.end)
	close(l.decided)
	l.decided = make(chan struct{})
	recs := s.recs
	s.recs = nil
	l.mu.Unlock()

	var st *sessionTrace
	if recs != nil {
		st = mergeTrace(l.sh.n, recs)
	}
	l.mu.Lock()
	s.trace = st
	l.sessions = append(l.sessions, s)
	l.mu.Unlock()
}

// nextDecision returns a channel closed when the next session completes.
func (l *loop) nextDecision() chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decided
}

// wait blocks until ch closes, the loop fails, or the limit passes.
func (l *loop) wait(ch chan struct{}, what string, limit time.Duration) error {
	select {
	case <-ch:
		return nil
	case <-l.failed:
		return l.err
	case <-time.After(limit):
		return fmt.Errorf("%s: timed out after %v", what, limit)
	}
}

// abort tears the mesh down, under the sessions still running if any,
// and waits for every goroutine of the loop; those sessions are dropped.
// Closing the transports unblocks every Exchange at once, so no party
// waits out Δ for a peer that left first.
func (l *loop) abort() {
	l.mu.Lock()
	l.aborting = true
	l.mu.Unlock()
	l.m.close()
	l.pacers.Wait()
	l.parties.Wait()
}
