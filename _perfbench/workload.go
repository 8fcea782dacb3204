package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"
)

// shape is everything a run needs besides the seed: the mesh size, the
// closed-loop client count, the input length and how many parties crash.
type shape struct {
	name    string
	n, t    int
	clients int
	bits    int // magnitude bit length of every input
	crashed int // parties closed right after mesh set-up
	// window is how long each measured phase lasts.
	window time.Duration
}

// workloads are the four shapes of the benchmark; README.md says why
// each was chosen.
var workloads = []shape{
	{name: "solo", n: 16, t: 5, clients: 1, bits: 64},
	{name: "burst", n: 16, t: 5, clients: 64, bits: 64},
	{name: "long", n: 16, t: 5, clients: 4, bits: 1 << 22},
	{name: "crash", n: 16, t: 5, clients: 64, bits: 64, crashed: 5},
}

func workloadByName(name string) (shape, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return shape{}, fmt.Errorf("unknown workload %q", name)
}

// mix is splitmix64 over a tuple, so every input stream is a pure
// function of (seed, client, seq, party).
func mix(vals ...int64) int64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		h ^= uint64(v)
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return int64(h)
}

// partyInput is party p's input for the seq-th session of client c: an
// integer whose magnitude has exactly bits bits. All inputs of a session
// share one sign, so every session runs the full magnitude protocol
// rather than collapsing to 0 when the honest signs differ.
func partyInput(seed int64, client, seq, party, bits int) *big.Int {
	r := rand.New(rand.NewSource(mix(seed, int64(client), int64(seq), int64(party))))
	buf := make([]byte, (bits+7)/8)
	r.Read(buf)
	v := new(big.Int).SetBytes(buf)
	v.Rsh(v, uint(len(buf)*8-bits))
	v.SetBit(v, bits-1, 1)
	if mix(seed, int64(client), int64(seq))&1 == 0 {
		v.Neg(v)
	}
	return v
}

// crashSet picks which parties crash, from the seed.
func crashSet(seed int64, n, k int) map[int]bool {
	r := rand.New(rand.NewSource(mix(seed, -1)))
	out := make(map[int]bool, k)
	for _, p := range r.Perm(n)[:k] {
		out[p] = true
	}
	return out
}
