package main

import (
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"time"

	ca "convexagreement"
)

// mesh is one loopback TCP mesh with a session mux per party. Parties in
// crashed have had their transport closed; they run nothing.
type mesh struct {
	trs     []*ca.TCPTransport
	muxes   []*ca.SessionMux
	crashed map[int]bool
	alive   []int

	dial    time.Duration // DialTCP of all parties, concurrently
	muxInit time.Duration // NewSessionMux of all parties
	dialAt  time.Time     // span start of the dial
}

// dialMesh builds the n-party mesh the way a deployment would: one
// DialTCP per party over pre-bound loopback listeners, then one
// SessionMux per party. With labelled set, DialTCP runs under the pprof
// label layer=tcpnet, which tcpnet's read goroutines inherit.
func dialMesh(n, t int, crashed map[int]bool, labelled bool) (*mesh, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	reconnect := 0
	if len(crashed) > 0 {
		reconnect = -1 // a closed party stays down: no re-dial backoff
	}
	m := &mesh{trs: make([]*ca.TCPTransport, n), crashed: crashed}
	errs := make([]error, n)
	m.dialAt = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dial := func(context.Context) {
				m.trs[i], errs[i] = ca.DialTCP(ca.TCPConfig{
					ID:                i,
					Addrs:             addrs,
					T:                 t,
					Listener:          listeners[i],
					ReconnectAttempts: reconnect,
				})
			}
			if labelled {
				pprof.Do(context.Background(), pprof.Labels("layer", "tcpnet"), dial)
			} else {
				dial(context.Background())
			}
		}(i)
	}
	wg.Wait()
	m.dial = time.Since(m.dialAt)
	for i, err := range errs {
		if err != nil {
			m.close()
			for _, l := range listeners {
				l.Close()
			}
			return nil, fmt.Errorf("party %d: dial: %w", i, err)
		}
	}
	start := time.Now()
	m.muxes = make([]*ca.SessionMux, n)
	for i, tr := range m.trs {
		m.muxes[i] = ca.NewSessionMux(tr)
	}
	m.muxInit = time.Since(start)
	for i := 0; i < n; i++ {
		if crashed[i] {
			m.trs[i].Close()
			continue
		}
		m.alive = append(m.alive, i)
	}
	return m, nil
}

// setupTime is what the set-up metric measures: dial plus mux creation.
func (m *mesh) setupTime() time.Duration { return m.dial + m.muxInit }

func (m *mesh) close() {
	var wg sync.WaitGroup
	for _, tr := range m.trs {
		if tr == nil {
			continue
		}
		wg.Add(1)
		go func(tr *ca.TCPTransport) {
			defer wg.Done()
			tr.Close()
		}(tr)
	}
	wg.Wait()
}
