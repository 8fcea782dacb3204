package bitstr

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// checkOps holds every packed-byte operation to the bit-at-a-time oracle on
// one case: x and y are reduced to width-bit strings (width ≤ 300), lo/hi
// pick a range, and fill picks FillTo's bit and extra width. Values must
// agree as numbers and, where a String comes out, as marshalled bytes.
func checkOps(t *testing.T, x, y []byte, width, lo, hi int, fill byte) {
	t.Helper()
	width %= 301
	mask := new(big.Int).Lsh(big.NewInt(1), uint(width))
	mask.Sub(mask, big.NewInt(1))
	vx := new(big.Int).SetBytes(x)
	vy := new(big.Int).SetBytes(y)

	// FromBig, errors included: the unreduced value may overflow width.
	_, err := FromBig(vx, width)
	_, oerr := oracleFromBig(vx, width)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("FromBig(%v, %d): err %v, oracle err %v", vx, width, err, oerr)
	}
	vx.And(vx, mask)
	vy.And(vy, mask)
	s := MustFromBig(vx, width)
	u := MustFromBig(vy, width)
	o, err := oracleFromBig(vx, width)
	if err != nil {
		t.Fatal(err)
	}
	ou, err := oracleFromBig(vy, width)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got String, want oracle) {
		t.Helper()
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("%s: got %x, oracle %x", what, got.Marshal(), want.Marshal())
		}
	}
	same("FromBig", s, o)
	same("FromBig", u, ou)

	// Big.
	if got, want := s.Big(), o.Big(); got.Cmp(want) != 0 || got.Cmp(vx) != 0 {
		t.Fatalf("Big: got %v, oracle %v, value %v", got, want, vx)
	}

	// Slice and BlockRange, including out-of-range requests.
	lo %= width + 2
	hi %= width + 2
	sl, err := s.Slice(lo, hi)
	osl, oerr := o.Slice(lo, hi)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("Slice(%d,%d) of %d: err %v, oracle err %v", lo, hi, width, err, oerr)
	}
	if err == nil {
		same("Slice", sl, osl)
	}
	bb := 1 + int(fill)%13
	br, err := s.BlockRange(lo/bb, hi/bb, bb)
	obr, oerr := o.BlockRange(lo/bb, hi/bb, bb)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("BlockRange(%d,%d,%d): err %v, oracle err %v", lo/bb, hi/bb, bb, err, oerr)
	}
	if err == nil {
		same("BlockRange", br, obr)
	}

	// Concat at every alignment: s split at k and rejoined, and s's head
	// joined to u's tail.
	for k := 0; k <= width; k++ {
		sh, _ := s.Slice(0, k)
		st, _ := s.Slice(k, width)
		ut, _ := u.Slice(k, width)
		osh, _ := o.Slice(0, k)
		ost, _ := o.Slice(k, width)
		out, _ := ou.Slice(k, width)
		same("Concat", sh.Concat(st), osh.Concat(ost))
		same("Concat", sh.Concat(ut), osh.Concat(out))
		if !sh.Concat(st).Equal(s) {
			t.Fatalf("split at %d and rejoined differs", k)
		}

		// HasPrefix and Compare against u's and s's heads of k bits.
		uh, _ := u.Slice(0, k)
		ouh, _ := ou.Slice(0, k)
		if got, want := s.HasPrefix(uh), o.HasPrefix(ouh); got != want {
			t.Fatalf("HasPrefix(%d bits): %v, oracle %v", k, got, want)
		}
		if !s.HasPrefix(sh) {
			t.Fatalf("own %d-bit head is not a prefix", k)
		}
		if got, want := s.Compare(uh), osh.Compare(ouh); got != want {
			t.Fatalf("prefix Compare(%d bits): %d, oracle %d", k, got, want)
		}
		if got, want := sh.Compare(uh), osh.Compare(ouh); got != want {
			t.Fatalf("Compare(%d bits): %d, oracle %d", k, got, want)
		}
	}
	if got, want := s.Compare(u), o.Compare(ou); got != want {
		t.Fatalf("Compare: %d, oracle %d", got, want)
	}
	if s.HasPrefix(s.Concat(u)) != (width == 0) || o.HasPrefix(o.Concat(ou)) != (width == 0) {
		t.Fatal("a longer string counted as a prefix")
	}

	// FillTo, MinFill and MaxFill of the slice out to a wider width.
	if lo <= hi && hi <= width {
		fw := (hi - lo) + int(fill)%40
		for b := byte(0); b <= 2; b++ {
			got, err := sl.FillTo(fw, b)
			want, oerr := osl.FillTo(fw, b)
			if (err == nil) != (oerr == nil) {
				t.Fatalf("FillTo(%d, %d): err %v, oracle err %v", fw, b, err, oerr)
			}
			if err == nil {
				same("FillTo", got, want)
			}
		}
		if _, err := sl.FillTo(hi-lo-1, 0); err == nil && hi > lo {
			t.Fatal("FillTo below the length accepted")
		}
		for _, w := range []int{fw, hi - lo - 1} {
			got, err := sl.MinFill(w)
			want, oerr := osl.MinFill(w)
			if (err == nil) != (oerr == nil) || err == nil && got.Cmp(want) != 0 {
				t.Fatalf("MinFill(%d): %v %v, oracle %v %v", w, got, err, want, oerr)
			}
			got, err = sl.MaxFill(w)
			want, oerr = osl.MaxFill(w)
			if (err == nil) != (oerr == nil) || err == nil && got.Cmp(want) != 0 {
				t.Fatalf("MaxFill(%d): %v %v, oracle %v %v", w, got, err, want, oerr)
			}
		}
	}

	// Marshal and Unmarshal: a well-formed encoding, the same with its
	// lowest padding bit set, and x taken raw as an encoding (mostly
	// garbage, sometimes with padding bits set).
	padded := s.Marshal()
	if width%8 != 0 {
		padded[len(padded)-1] |= 1
	}
	for _, raw := range [][]byte{s.Marshal(), padded, x} {
		got, err := Unmarshal(raw)
		want, oerr := oracleUnmarshal(raw)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("Unmarshal(%x): err %v, oracle err %v", raw, err, oerr)
		}
		if err == nil {
			same("Unmarshal", got, want)
		}
	}
}

// FuzzOps: every operation agrees with the oracle on arbitrary values,
// widths up to 300 bits, ranges and fill bits.
func FuzzOps(f *testing.F) {
	f.Add([]byte{0xb5, 0x3c}, []byte{0xb5, 0x3d}, uint16(13), uint16(3), uint16(11), byte(1))
	f.Add([]byte{0, 0, 0, 9, 0xff, 0x80}, []byte{0xff}, uint16(9), uint16(0), uint16(9), byte(12))
	f.Add(bytes.Repeat([]byte{0xff}, 40), []byte{}, uint16(300), uint16(7), uint16(293), byte(39))
	f.Fuzz(func(t *testing.T, x, y []byte, width, lo, hi uint16, fill byte) {
		checkOps(t, x, y, int(width), int(lo), int(hi), fill)
	})
}

// TestOpsMatchOracle runs checkOps over seeded random cases so plain
// `go test` covers the differential check beyond FuzzOps's seed corpus.
func TestOpsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		x := make([]byte, rng.Intn(40))
		y := make([]byte, rng.Intn(40))
		rng.Read(x)
		rng.Read(y)
		checkOps(t, x, y, rng.Intn(301), rng.Intn(310), rng.Intn(310), byte(rng.Intn(256)))
	}
}

// TestLongOpsMatchOracle checks the long-path operations at a width of a
// few thousand bits with unaligned block boundaries, the shape the
// 13-bit-block protocol runs produce.
func TestLongOpsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const width, blockBits = 3328, 13
	v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), width))
	w := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), width))
	s, u := MustFromBig(v, width), MustFromBig(w, width)
	o, _ := oracleFromBig(v, width)
	ou, _ := oracleFromBig(w, width)
	if s.Big().Cmp(o.Big()) != 0 {
		t.Fatal("Big differs")
	}
	const blocks = width / blockBits
	for lo := 0; lo < blocks; lo += 7 {
		for _, hi := range []int{lo, lo + 1, min(lo+17, blocks), blocks} {
			got, err := s.BlockRange(lo, hi, blockBits)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := o.BlockRange(lo, hi, blockBits)
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Fatalf("BlockRange(%d,%d)", lo, hi)
			}
			head, _ := s.Prefix(lo * blockBits)
			ohead, _ := o.Prefix(lo * blockBits)
			joined, ojoined := head.Concat(got), ohead.Concat(want)
			if !bytes.Equal(joined.Marshal(), ojoined.Marshal()) {
				t.Fatalf("Concat at %d", lo*blockBits)
			}
			for b := byte(0); b <= 1; b++ {
				f, _ := joined.FillTo(width, b)
				of, _ := ojoined.FillTo(width, b)
				if !bytes.Equal(f.Marshal(), of.Marshal()) {
					t.Fatalf("FillTo(%d) of %d bits", b, joined.Len())
				}
			}
			uhead, _ := ou.Prefix(joined.Len())
			if u.Compare(joined) != uhead.Compare(ojoined) {
				t.Fatalf("prefix Compare at %d bits", joined.Len())
			}
		}
	}
}
