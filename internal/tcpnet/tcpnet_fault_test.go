package tcpnet_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// rawPeer dials party 0's listener and handshakes as party 1, returning the
// raw socket so the test can speak arbitrary bytes on an authenticated link.
func rawPeer(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte{1, 0}); err != nil { // hello: id 1, round 0
		t.Fatal(err)
	}
	// The accepting side replies with its own (id, round) hello; drain it so
	// the test's raw writes are the next thing the peer parses.
	reply := make([]byte, 2)
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatal(err)
	}
	return conn
}

// dialParty0 establishes party 0's side of a 2-party mesh whose peer is a
// raw socket driven by the test.
func dialParty0(t *testing.T, cfgs []tcpnet.Config) (*tcpnet.Conn, net.Conn) {
	t.Helper()
	var (
		conn *tcpnet.Conn
		err  error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err = tcpnet.Dial(cfgs[0])
	}()
	raw := rawPeer(t, cfgs[0].Addrs[0])
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, raw
}

// waitFaulty polls until the peer set demoted to silent matches want.
func waitFaulty(t *testing.T, conn *tcpnet.Conn, want []int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got := conn.Faulty()
		if len(got) == len(want) {
			match := true
			for i := range got {
				if got[i] != want[i] {
					match = false
				}
			}
			if match {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("Faulty() = %v, want %v", conn.Faulty(), want)
}

// TestGarbledFrameDemotesPeer: a peer whose length prefix is a malformed
// varint is a protocol violator — demoted to silent, surfaced via Faulty,
// and never waited Δ for again.
func TestGarbledFrameDemotesPeer(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	conn, raw := dialParty0(t, cfgs)
	// An 11-byte varint can never terminate: protocol violation.
	if _, err := raw.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	waitFaulty(t, conn, []int{1})
	// Rounds now close immediately: no live peers to wait for.
	start := time.Now()
	in, err := transport.ExchangeAll(conn, "x", []byte{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 1 || in[0].From != 0 {
		t.Fatalf("got %v, want only self-delivery", in)
	}
	if elapsed := time.Since(start); elapsed > cfgs[0].Delta {
		t.Fatalf("round over a demoted peer took %v (waited Δ for it)", elapsed)
	}
}

// TestOversizedFrameDemotesPeer: a frame announcing a body over the 64 MiB
// cap is rejected on the prefix alone — no allocation — and the peer is
// demoted to silent.
func TestOversizedFrameDemotesPeer(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	cfgs[0].Delta = 300 * time.Millisecond
	conn, raw := dialParty0(t, cfgs)
	var hdr [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(hdr[:], (64<<20)+1)
	if _, err := raw.Write(hdr[:m]); err != nil {
		t.Fatal(err)
	}
	waitFaulty(t, conn, []int{1})
	if in, err := transport.ExchangeAll(conn, "x", []byte{7}); err != nil || len(in) != 1 {
		t.Fatalf("post-demotion round: msgs=%v err=%v", in, err)
	}
}

// TestReconnectRestoresLink: severing the TCP connection mid-run is a
// transient network fault — the dialing side re-dials, re-handshakes, and
// the link carries rounds again.
func TestReconnectRestoresLink(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	for i := range cfgs {
		cfgs[i].Delta = 300 * time.Millisecond
		cfgs[i].ReconnectBase = 20 * time.Millisecond
	}
	conns := dialAll(t, cfgs)

	exchangeBoth := func(stamp byte) ([2][]transport.Message, [2]error) {
		var out [2][]transport.Message
		var errs [2]error
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c *tcpnet.Conn) {
				defer wg.Done()
				out[i], errs[i] = transport.ExchangeAll(c, "r", []byte{stamp})
			}(i, c)
		}
		wg.Wait()
		return out, errs
	}

	if in, errs := exchangeBoth(0); errs[0] != nil || errs[1] != nil || len(in[0]) != 2 || len(in[1]) != 2 {
		t.Fatalf("pre-break round failed: %v %v", in, errs)
	}
	// Party 1 is the dialer for peer 0; breaking from its side exercises
	// the active reconnect path (party 0 re-accepts passively).
	conns[1].BreakLink(0)
	time.Sleep(800 * time.Millisecond) // backoff + jitter + re-handshake

	in, errs := exchangeBoth(1)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("post-reconnect round errored: %v", errs)
	}
	for i := range conns {
		if len(in[i]) != 2 {
			t.Fatalf("party %d got %d messages after reconnect, want 2", i, len(in[i]))
		}
		if f := conns[i].Faulty(); len(f) != 0 {
			t.Fatalf("party %d demoted %v after a recoverable fault", i, f)
		}
	}
}

// TestReconnectExhaustedDemotesPeer: when the peer is truly gone (process
// down, listener closed), bounded reconnection gives up and demotes it to
// silent, so the survivor's rounds close immediately instead of burning Δ
// forever.
func TestReconnectExhaustedDemotesPeer(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	for i := range cfgs {
		cfgs[i].Delta = 200 * time.Millisecond
		cfgs[i].ReconnectAttempts = 2
		cfgs[i].ReconnectBase = 10 * time.Millisecond
	}
	conns := dialAll(t, cfgs)
	conns[0].Close() // party 0 dies, taking its listener with it
	waitFaulty(t, conns[1], []int{0})
	start := time.Now()
	in, err := transport.ExchangeAll(conns[1], "x", []byte{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 1 || in[0].From != 1 {
		t.Fatalf("got %v, want only self-delivery", in)
	}
	if elapsed := time.Since(start); elapsed > cfgs[1].Delta {
		t.Fatalf("round took %v with the only peer demoted", elapsed)
	}
}

// TestReconnectDisabledDemotesPeer: with reconnection disabled the dialing
// side has nothing to wait for, so a lost peer goes straight to silent with
// the same ReasonUnreachable verdict an exhausted reconnect loop records,
// and Faulty lists it. The accepting side keeps the link down: re-dialing
// is never its job.
func TestReconnectDisabledDemotesPeer(t *testing.T) {
	cfgs := newCluster(t, 3, 0)
	for i := range cfgs {
		cfgs[i].Delta = 200 * time.Millisecond
		cfgs[i].ReconnectAttempts = -1
	}
	conns := dialAll(t, cfgs)
	conns[1].Close() // party 2 dials party 1; party 0 accepts from it
	waitFaulty(t, conns[2], []int{1})
	st := conns[2].Stats()
	if len(st.Demotions) != 1 || st.Demotions[0].Peer != 1 || st.Demotions[0].Reason != wire.ReasonUnreachable {
		t.Fatalf("demotions = %+v, want peer 1 unreachable", st.Demotions)
	}
	// Neither survivor waits Δ for party 1: down and silent peers are both
	// skipped.
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for _, i := range []int{0, 2} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = transport.ExchangeAll(conns[i], "x", []byte{byte(i)})
		}(i)
	}
	wg.Wait()
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("round errored: %v", errs)
	}
	if elapsed := time.Since(start); elapsed > cfgs[2].Delta {
		t.Fatalf("round took %v with the lost peer out", elapsed)
	}
	if got := conns[0].Faulty(); len(got) != 0 {
		t.Fatalf("accepting side demoted %v, want none", got)
	}
}

// TestCloseUnblocksExchange: Close during a blocked Exchange must release
// it promptly with ErrClosed, not leave it waiting out Δ.
func TestCloseUnblocksExchange(t *testing.T) {
	cfgs := newCluster(t, 2, 0)
	for i := range cfgs {
		cfgs[i].Delta = 10 * time.Second // long enough that only Close can end the round
	}
	conns := dialAll(t, cfgs)
	errCh := make(chan error, 1)
	go func() {
		_, err := transport.ExchangeAll(conns[0], "x", []byte{1})
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the Exchange block on party 1's frame
	conns[0].Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, tcpnet.ErrClosed) {
			t.Fatalf("unblocked with %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Exchange still blocked after Close")
	}
}
