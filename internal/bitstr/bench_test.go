package bitstr

import (
	"math/big"
	"math/rand"
	"testing"
)

// BenchmarkLongPathOps runs the bit-string work one party does in
// FIXEDLENGTHCABLOCKS at ℓ = 2^22 bits and n = 16 (256 blocks of 16384
// bits), the benchmark's long workload: BITS_ℓ of the input, the eight
// halving FindPrefixBlocks segments (each cut out, marshalled for Π_ℓBA+,
// decoded, appended to the prefix and compared against the party's own
// head), one re-anchoring fill, GetOutput's prefix test and the fill its
// BA picks. Every agreed segment is the party's own, so each compare
// scans its whole prefix. One op is one party's decision.
func BenchmarkLongPathOps(b *testing.B) {
	const width, blocks = 1 << 22, 256
	const blockBits = width / blocks
	rng := rand.New(rand.NewSource(1))
	in := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), width))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := FromBig(in, width)
		if err != nil {
			b.Fatal(err)
		}
		prefix := String{}
		for left, right := 1, blocks+1; left < right; {
			mid := (left + right) / 2
			seg, err := v.BlockRange(left-1, mid, blockBits)
			if err != nil {
				b.Fatal(err)
			}
			agreed, err := Unmarshal(seg.Marshal())
			if err != nil {
				b.Fatal(err)
			}
			prefix = prefix.Concat(agreed)
			if v.Compare(prefix) != 0 {
				b.Fatal("own prefix compares unequal")
			}
			left = mid + 1
		}
		if benchFill, err = prefix.FillTo(width, 0); err != nil {
			b.Fatal(err)
		}
		if !v.HasPrefix(prefix) {
			b.Fatal("own prefix is not a prefix")
		}
		if benchOut, err = prefix.MinFill(width); err != nil {
			b.Fatal(err)
		}
	}
}

// Sinks keep the compiler from discarding the benchmarked results.
var (
	benchFill String
	benchOut  *big.Int
)
