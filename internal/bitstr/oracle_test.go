package bitstr

import (
	"fmt"
	"math/big"
)

// oracle is the bit-at-a-time implementation the package shipped before its
// operations were rewritten over packed bytes: the bodies of the rewritten
// operations (and the helpers they call) are kept verbatim, only renamed,
// as the reference the differential tests and FuzzOps hold the production
// kernels to. Every loop here walks one bit through Bit/setBit or
// big.Int.SetBit, so it is slow but obviously correct.
type oracle struct {
	data []byte // ceil(n/8) bytes; bit i lives at data[i/8] bit (7 - i%8)
	n    int    // length in bits
}

func oracleFromBig(v *big.Int, width int) (oracle, error) {
	if v.Sign() < 0 {
		return oracle{}, ErrNegative
	}
	if width < 0 {
		return oracle{}, fmt.Errorf("bitstr: negative width %d", width)
	}
	if v.BitLen() > width {
		return oracle{}, fmt.Errorf("%w: %d bits into width %d", ErrOverflow, v.BitLen(), width)
	}
	s := oracle{data: make([]byte, (width+7)/8), n: width}
	raw := v.Bytes() // big-endian, minimal
	// Right-align raw into the bit width: the value occupies the lowest
	// v.BitLen() bits, i.e. the rightmost bits of the string.
	for i, b := range raw {
		// Byte raw[i] covers value bits [8*(len(raw)-i)-8, 8*(len(raw)-i)).
		shift := uint(8 * (len(raw) - 1 - i))
		for k := 0; k < 8; k++ {
			if b>>(7-k)&1 == 1 {
				// Bit position from the right end of the value.
				fromRight := int(shift) + (7 - k)
				s.setBit(width-1-fromRight, 1)
			}
		}
	}
	return s, nil
}

func oracleFromBits(bits []byte) (oracle, error) {
	s := oracle{data: make([]byte, (len(bits)+7)/8), n: len(bits)}
	for i, b := range bits {
		switch b {
		case 0:
		case 1:
			s.setBit(i, 1)
		default:
			return oracle{}, fmt.Errorf("bitstr: bit %d has non-binary value %d", i, b)
		}
	}
	return s, nil
}

func (s *oracle) setBit(i int, b byte) {
	if b == 1 {
		s.data[i/8] |= 1 << uint(7-i%8)
	} else {
		s.data[i/8] &^= 1 << uint(7-i%8)
	}
}

func (s oracle) Bit(i int) byte {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: bit index %d out of range [0,%d)", i, s.n))
	}
	return s.data[i/8] >> uint(7-i%8) & 1
}

func (s oracle) Big() *big.Int {
	v := new(big.Int)
	for i := 0; i < s.n; i++ {
		if s.Bit(i) == 1 {
			v.SetBit(v, s.n-1-i, 1)
		}
	}
	return v
}

func (s oracle) Slice(lo, hi int) (oracle, error) {
	if lo < 0 || hi < lo || hi > s.n {
		return oracle{}, fmt.Errorf("%w: [%d,%d) of %d", ErrRange, lo, hi, s.n)
	}
	out := oracle{data: make([]byte, (hi-lo+7)/8), n: hi - lo}
	for i := lo; i < hi; i++ {
		if s.Bit(i) == 1 {
			out.setBit(i-lo, 1)
		}
	}
	return out, nil
}

func (s oracle) Prefix(k int) (oracle, error) { return s.Slice(0, k) }

func (s oracle) Concat(t oracle) oracle {
	out := oracle{data: make([]byte, (s.n+t.n+7)/8), n: s.n + t.n}
	copy(out.data, s.data)
	if s.n%8 == 0 {
		copy(out.data[s.n/8:], t.data)
		return out
	}
	for i := 0; i < t.n; i++ {
		if t.Bit(i) == 1 {
			out.setBit(s.n+i, 1)
		}
	}
	return out
}

func (s oracle) Equal(t oracle) bool {
	if s.n != t.n {
		return false
	}
	full := s.n / 8
	for i := 0; i < full; i++ {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	for i := full * 8; i < s.n; i++ {
		if s.Bit(i) != t.Bit(i) {
			return false
		}
	}
	return true
}

func (s oracle) HasPrefix(p oracle) bool {
	if p.n > s.n {
		return false
	}
	head, err := s.Prefix(p.n)
	if err != nil {
		return false
	}
	return head.Equal(p)
}

// Compare is the oracle's equal-length comparison; the production Compare
// generalises it to s's first t.Len() bits, which the differential tests
// check as s.Prefix(t.Len()).Compare(t) here.
func (s oracle) Compare(t oracle) int {
	if s.n != t.n {
		panic(fmt.Sprintf("bitstr: comparing lengths %d and %d", s.n, t.n))
	}
	for i := 0; i < s.n; i++ {
		a, b := s.Bit(i), t.Bit(i)
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

func (s oracle) MinFill(width int) (*big.Int, error) {
	if width < s.n {
		return nil, fmt.Errorf("%w: width %d < length %d", ErrRange, width, s.n)
	}
	v := s.Big()
	return v.Lsh(v, uint(width-s.n)), nil
}

func (s oracle) MaxFill(width int) (*big.Int, error) {
	if width < s.n {
		return nil, fmt.Errorf("%w: width %d < length %d", ErrRange, width, s.n)
	}
	v := s.Big()
	v.Lsh(v, uint(width-s.n))
	pad := new(big.Int).Lsh(big.NewInt(1), uint(width-s.n))
	pad.Sub(pad, big.NewInt(1))
	return v.Or(v, pad), nil
}

func (s oracle) FillTo(width int, b byte) (oracle, error) {
	if b > 1 {
		return oracle{}, fmt.Errorf("bitstr: non-binary fill bit %d", b)
	}
	if width < s.n {
		return oracle{}, fmt.Errorf("%w: width %d < length %d", ErrRange, width, s.n)
	}
	pad := make([]byte, width-s.n)
	for i := range pad {
		pad[i] = b
	}
	tail, err := oracleFromBits(pad)
	if err != nil {
		return oracle{}, err
	}
	return s.Concat(tail), nil
}

func (s oracle) BlockRange(lo, hi, blockBits int) (oracle, error) {
	if blockBits <= 0 {
		return oracle{}, fmt.Errorf("bitstr: non-positive block size %d", blockBits)
	}
	return s.Slice(lo*blockBits, hi*blockBits)
}

func (s oracle) Marshal() []byte {
	out := make([]byte, 4+len(s.data))
	out[0] = byte(s.n >> 24)
	out[1] = byte(s.n >> 16)
	out[2] = byte(s.n >> 8)
	out[3] = byte(s.n)
	copy(out[4:], s.data)
	return out
}

func oracleUnmarshal(raw []byte) (oracle, error) {
	if len(raw) < 4 {
		return oracle{}, ErrCorrupt
	}
	n := int(raw[0])<<24 | int(raw[1])<<16 | int(raw[2])<<8 | int(raw[3])
	if n < 0 {
		return oracle{}, ErrCorrupt
	}
	body := raw[4:]
	if len(body) != (n+7)/8 {
		return oracle{}, ErrCorrupt
	}
	s := oracle{data: make([]byte, len(body)), n: n}
	copy(s.data, body)
	// Reject nonzero bits in the final partial byte so equal strings have
	// equal encodings.
	for i := n; i < 8*len(body); i++ {
		if s.data[i/8]>>uint(7-i%8)&1 == 1 {
			return oracle{}, ErrCorrupt
		}
	}
	return s, nil
}
