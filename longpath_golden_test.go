package convexagreement_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"

	ca "convexagreement"
)

// longPathDigest hashes what Π_ℤ's long-input path produced: the output,
// the round count and the honest bits per label, labels sorted.
func longPathDigest(res *ca.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "output %s\nrounds %d\n", res.Output, res.Rounds)
	labels := make([]string, 0, len(res.BitsByLabel))
	for l := range res.BitsByLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(h, "%s %d\n", l, res.BitsByLabel[l])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// longInputs returns n integers whose magnitudes have exactly bits bits;
// party i's value is negative when neg(i) holds.
func longInputs(seed int64, n, bits int, neg func(i int) bool) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*big.Int, n)
	for i := range out {
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits-1)))
		v.SetBit(v, bits-1, 1)
		if neg(i) {
			v.Neg(v)
		}
		out[i] = v
	}
	return out
}

func hasLabel(res *ca.Result, part string) bool {
	for l := range res.BitsByLabel {
		if strings.Contains(l, part) {
			return true
		}
	}
	return false
}

// sharedHead gives every value the top head bits of vals[0], except
// vals[odd], whose top bits are flipped in its first block instead.
func sharedHead(vals []*big.Int, head, odd int) []*big.Int {
	bits := vals[0].BitLen()
	low := new(big.Int).Lsh(big.NewInt(1), uint(bits-head))
	low.Sub(low, big.NewInt(1))
	top := new(big.Int).AndNot(vals[0], low)
	for i, v := range vals {
		v.And(v, low).Or(v, top)
		if i == odd {
			v.SetBit(v, bits-3, v.Bit(bits-3)^1)
		}
	}
	return vals
}

// TestLongPathDigestsPinned pins Π_ℤ's long-input path (FindPrefixBlocks,
// AddLastBlock, GetOutput) end to end. The 637- and 3328-bit cases use
// 13-bit blocks, so block boundaries are not byte-aligned and the
// bit-string layer's shifting paths carry the run; the 2^16-bit case is
// byte-aligned. The digests were taken from the bit-at-a-time
// implementation; any change to the bit-string layer must leave them as
// they are.
func TestLongPathDigestsPinned(t *testing.T) {
	cases := []struct {
		name   string
		n, t   int
		inputs []*big.Int
		corr   map[int]ca.Corruption
		want   string
	}{
		{
			name:   "n7-637bit-mixed-sign",
			n:      7,
			t:      2,
			inputs: longInputs(1, 7, 637, func(i int) bool { return i == 4 }),
			corr: map[int]ca.Corruption{
				2: {Kind: ca.AdvEquivocate},
				5: {Kind: ca.AdvGarbage},
			},
			want: "7ba4fcd35dd8bfab60afda098e00d917df65a41634f362816eec29e8b7a97f89",
		},
		{
			// Honest values share their top 400 bits except party 6's,
			// which differs in its first block: the search agrees on
			// segments, concatenates them at 13-bit offsets and
			// re-anchors party 6 on the agreed prefix.
			name:   "n7-637bit-shared-head",
			n:      7,
			t:      2,
			inputs: sharedHead(longInputs(4, 7, 637, func(int) bool { return false }), 400, 6),
			corr: map[int]ca.Corruption{
				1: {Kind: ca.AdvSpam},
				3: {Kind: ca.AdvReplay},
			},
			want: "c2066df100e2e86deaa1f92d9c9b65bb2d3a39b1b3cb4f75ed4d50230508c81d",
		},
		{
			name:   "n16-3328bit-silent",
			n:      16,
			t:      5,
			inputs: longInputs(2, 16, 3328, func(int) bool { return false }),
			corr: map[int]ca.Corruption{
				1: {Kind: ca.AdvSilent}, 4: {Kind: ca.AdvSilent}, 8: {Kind: ca.AdvSilent},
				11: {Kind: ca.AdvSilent}, 15: {Kind: ca.AdvSilent},
			},
			want: "c7a80af040981efb6c61321d7673aa65a50d7df11addffe309dccb53d9687c87",
		},
		{
			name:   "n16-65536bit",
			n:      16,
			t:      5,
			inputs: longInputs(3, 16, 1<<16, func(int) bool { return false }),
			want:   "278d9a36f7d54d26e71aaeac37ceecbb883078475ffbee58a7093d307f9f4b9d",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := ca.Agree(tc.inputs, ca.Options{
				N: tc.n, T: tc.t, Protocol: ca.ProtoOptimal, Corruptions: tc.corr, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !hasLabel(res, "/flcab/go/") {
				t.Fatal("run did not reach GetOutput on the block path")
			}
			if got := longPathDigest(res); got != tc.want {
				t.Errorf("digest = %s, want %s (rounds %d)", got, tc.want, res.Rounds)
			}
		})
	}
}
