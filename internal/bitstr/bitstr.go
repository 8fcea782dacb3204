// Package bitstr implements the exact-width binary representations of
// Section 2 of the paper ("Binary representations"): BITS_ℓ(v), VAL(BITS),
// MIN_ℓ(BITS), MAX_ℓ(BITS), prefix tests, bit- and block-range extraction,
// and concatenation.
//
// A String is a sequence of bits stored MSB-first. Bit indices in this
// package are 0-based (the paper uses 1-based indices; call sites translate).
// Strings are value types: all operations return fresh storage and never
// alias the receiver's backing array, so a String can be shared freely
// between goroutines once constructed.
//
// Every operation works on the packed bytes, never one bit at a time, so
// the O(ℓ) steps of the long-input protocols cost a copy or a compare of
// ℓ/8 bytes. The bits past Len() in the last byte are always zero; every
// constructor keeps that invariant (Unmarshal rejects encodings that break
// it), and Equal, HasPrefix and Compare rely on it to compare whole bytes.
package bitstr

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"strings"
)

// String is an immutable bitstring of arbitrary length, packed MSB-first.
// The zero value is the empty bitstring.
type String struct {
	data []byte // ceil(n/8) bytes; bit i lives at data[i/8] bit (7 - i%8); padding bits are zero
	n    int    // length in bits
}

// Errors returned by constructors and codecs in this package.
var (
	ErrNegative = errors.New("bitstr: negative value has no binary representation")
	ErrOverflow = errors.New("bitstr: value does not fit in the requested width")
	ErrRange    = errors.New("bitstr: bit range out of bounds")
	ErrCorrupt  = errors.New("bitstr: corrupt encoding")
)

// New returns the all-zero bitstring of n bits. n must be non-negative.
func New(n int) (String, error) {
	if n < 0 {
		return String{}, fmt.Errorf("bitstr: negative length %d", n)
	}
	return String{data: make([]byte, (n+7)/8), n: n}, nil
}

// FromBig returns BITS_ℓ(v): the width-bit representation of v, left-padded
// with zeroes. It fails if v is negative or does not fit in width bits.
func FromBig(v *big.Int, width int) (String, error) {
	if v.Sign() < 0 {
		return String{}, ErrNegative
	}
	if width < 0 {
		return String{}, fmt.Errorf("bitstr: negative width %d", width)
	}
	if v.BitLen() > width {
		return String{}, fmt.Errorf("%w: %d bits into width %d", ErrOverflow, v.BitLen(), width)
	}
	s := String{data: make([]byte, (width+7)/8), n: width}
	// FillBytes right-aligns v in whole bytes; the string's padding sits
	// at the right end instead, so shift the bytes left by the pad width.
	// The pad's worth of top bits is zero because v fits in width bits.
	v.FillBytes(s.data)
	if pad := uint(8*len(s.data) - width); pad > 0 {
		d := s.data
		for i := 0; i < len(d)-1; i++ {
			d[i] = d[i]<<pad | d[i+1]>>(8-pad)
		}
		d[len(d)-1] <<= pad
	}
	return s, nil
}

// MustFromBig is FromBig for statically-known-safe arguments; it panics on
// error and exists only for tests and examples.
func MustFromBig(v *big.Int, width int) String {
	s, err := FromBig(v, width)
	if err != nil {
		panic(err)
	}
	return s
}

// FromBits builds a String from a slice of 0/1 values, MSB first.
func FromBits(bits []byte) (String, error) {
	s := String{data: make([]byte, (len(bits)+7)/8), n: len(bits)}
	for i, b := range bits {
		switch b {
		case 0:
		case 1:
			s.setBit(i, 1)
		default:
			return String{}, fmt.Errorf("bitstr: bit %d has non-binary value %d", i, b)
		}
	}
	return s, nil
}

// Parse builds a String from a textual form such as "0110". The empty string
// parses to the empty bitstring.
func Parse(text string) (String, error) {
	bits := make([]byte, len(text))
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '0':
			bits[i] = 0
		case '1':
			bits[i] = 1
		default:
			return String{}, fmt.Errorf("bitstr: invalid character %q at %d", text[i], i)
		}
	}
	return FromBits(bits)
}

// MustParse is Parse that panics on error; for tests and examples only.
func MustParse(text string) String {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *String) setBit(i int, b byte) {
	if b == 1 {
		s.data[i/8] |= 1 << uint(7-i%8)
	} else {
		s.data[i/8] &^= 1 << uint(7-i%8)
	}
}

// Len returns the length of the bitstring in bits (the paper's |BITS|).
func (s String) Len() int { return s.n }

// Bit returns the bit at 0-based position i (the paper's B_{i+1}).
func (s String) Bit(i int) byte {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: bit index %d out of range [0,%d)", i, s.n))
	}
	return s.data[i/8] >> uint(7-i%8) & 1
}

// Big returns VAL(BITS): the natural number whose binary representation the
// string is. The empty string has value 0.
func (s String) Big() *big.Int {
	v := new(big.Int).SetBytes(s.data)
	return v.Rsh(v, uint(8*len(s.data)-s.n))
}

// Slice returns the substring of bits [lo, hi) (0-based, half-open).
func (s String) Slice(lo, hi int) (String, error) {
	if lo < 0 || hi < lo || hi > s.n {
		return String{}, fmt.Errorf("%w: [%d,%d) of %d", ErrRange, lo, hi, s.n)
	}
	out := String{data: make([]byte, (hi-lo+7)/8), n: hi - lo}
	orBits(out.data, 0, s.data, lo, hi-lo)
	return out, nil
}

// orBits ORs the n bits of src starting at bit srcOff into dst starting at
// bit dstOff, a byte at a time. The n destination bits must be zero; src's
// bits outside the range are masked off, so dst's padding stays zero.
func orBits(dst []byte, dstOff int, src []byte, srcOff, n int) {
	if n == 0 {
		return
	}
	sq, sr := srcOff/8, uint(srcOff%8)
	dq, dr := dstOff/8, uint(dstOff%8)
	last := (n+7)/8 - 1
	tail := byte(0xff) << uint(7-(n-1)%8) // the bits of byte last in range
	if sr == 0 && dr == 0 {
		copy(dst[dq:dq+last], src[sq:sq+last])
		dst[dq+last] |= src[sq+last] & tail
		return
	}
	for j := 0; j <= last; j++ {
		// Byte j of the range, MSB-aligned.
		b := src[sq+j] << sr
		if sr > 0 && sq+j+1 < len(src) {
			b |= src[sq+j+1] >> (8 - sr)
		}
		if j == last {
			b &= tail
		}
		dst[dq+j] |= b >> dr
		if dr > 0 && dq+j+1 < len(dst) {
			dst[dq+j+1] |= b << (8 - dr)
		}
	}
}

// Prefix returns the first k bits of s.
func (s String) Prefix(k int) (String, error) { return s.Slice(0, k) }

// Concat returns s followed by t.
func (s String) Concat(t String) String {
	out := String{data: make([]byte, (s.n+t.n+7)/8), n: s.n + t.n}
	copy(out.data, s.data)
	orBits(out.data, s.n, t.data, 0, t.n)
	return out
}

// AppendBit returns s with one extra bit b (0 or 1) appended.
func (s String) AppendBit(b byte) (String, error) {
	t, err := FromBits([]byte{b})
	if err != nil {
		return String{}, err
	}
	return s.Concat(t), nil
}

// Equal reports whether s and t are the same bitstring (same length, same
// bits).
func (s String) Equal(t String) bool {
	return s.n == t.n && bytes.Equal(s.data, t.data)
}

// HasPrefix reports whether p is a prefix of s.
func (s String) HasPrefix(p String) bool {
	return p.n <= s.n && s.Compare(p) == 0
}

// Compare compares the first t.Len() bits of s with t as the naturals they
// represent; it returns -1, 0, or +1. For equal lengths that is the plain
// comparison of s and t; for a shorter t it asks which side of the prefix
// t the string s lies on, without copying s's head out. It panics if t is
// longer than s.
func (s String) Compare(t String) int {
	if t.n > s.n {
		panic(fmt.Sprintf("bitstr: comparing the first %d bits of a %d-bit string", t.n, s.n))
	}
	full := t.n / 8
	if c := bytes.Compare(s.data[:full], t.data[:full]); c != 0 || t.n%8 == 0 {
		return c
	}
	// t's padding is zero, so masking s's byte to t's bits compares the rest.
	a, b := s.data[full]&(byte(0xff)<<uint(8-t.n%8)), t.data[full]
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// MinFill returns MIN_ℓ(BITS): the smallest width-bit value having s as a
// prefix (s padded on the right with zeroes). It fails if width < s.Len().
func (s String) MinFill(width int) (*big.Int, error) {
	if width < s.n {
		return nil, fmt.Errorf("%w: width %d < length %d", ErrRange, width, s.n)
	}
	v := s.Big()
	return v.Lsh(v, uint(width-s.n)), nil
}

// MaxFill returns MAX_ℓ(BITS): the largest width-bit value having s as a
// prefix (s padded on the right with ones). It fails if width < s.Len().
func (s String) MaxFill(width int) (*big.Int, error) {
	if width < s.n {
		return nil, fmt.Errorf("%w: width %d < length %d", ErrRange, width, s.n)
	}
	// (VAL+1)·2^k − 1 sets the k fill bits without a k-bit temporary.
	one := big.NewInt(1)
	v := s.Big()
	v.Add(v, one).Lsh(v, uint(width-s.n))
	return v.Sub(v, one), nil
}

// FillTo returns s extended to width bits by appending copies of bit b: the
// bitstring form of MIN_ℓ (b=0) or MAX_ℓ (b=1).
func (s String) FillTo(width int, b byte) (String, error) {
	if b > 1 {
		return String{}, fmt.Errorf("bitstr: non-binary fill bit %d", b)
	}
	if width < s.n {
		return String{}, fmt.Errorf("%w: width %d < length %d", ErrRange, width, s.n)
	}
	out := String{data: make([]byte, (width+7)/8), n: width}
	copy(out.data, s.data)
	if b == 1 && width > s.n {
		if r := s.n % 8; r != 0 {
			out.data[s.n/8] |= 0xff >> uint(r)
		}
		for i := (s.n + 7) / 8; i < len(out.data); i++ {
			out.data[i] = 0xff
		}
		out.data[len(out.data)-1] &= 0xff << uint(8*len(out.data)-width)
	}
	return out, nil
}

// String renders the bitstring as text, e.g. "0101".
func (s String) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		b.WriteByte('0' + s.Bit(i))
	}
	return b.String()
}

// Marshal encodes the bitstring for the wire: 4-byte big-endian bit length
// followed by the packed bytes.
func (s String) Marshal() []byte {
	out := make([]byte, 4+len(s.data))
	out[0] = byte(s.n >> 24)
	out[1] = byte(s.n >> 16)
	out[2] = byte(s.n >> 8)
	out[3] = byte(s.n)
	copy(out[4:], s.data)
	return out
}

// Unmarshal decodes a bitstring produced by Marshal. It rejects malformed
// input (wrong byte count, nonzero padding bits) so that byzantine payloads
// can never yield an inconsistent String.
func Unmarshal(raw []byte) (String, error) {
	if len(raw) < 4 {
		return String{}, ErrCorrupt
	}
	n := int(raw[0])<<24 | int(raw[1])<<16 | int(raw[2])<<8 | int(raw[3])
	if n < 0 {
		return String{}, ErrCorrupt
	}
	body := raw[4:]
	if len(body) != (n+7)/8 {
		return String{}, ErrCorrupt
	}
	// Reject nonzero bits in the final partial byte so equal strings have
	// equal encodings (and so the byte compares of Equal, HasPrefix and
	// Compare see only the string's own bits).
	if pad := uint(8*len(body) - n); pad > 0 && body[len(body)-1]&(1<<pad-1) != 0 {
		return String{}, ErrCorrupt
	}
	s := String{data: make([]byte, len(body)), n: n}
	copy(s.data, body)
	return s, nil
}

// MarshalSize returns the encoded size in bytes of a bitstring of n bits.
func MarshalSize(n int) int { return 4 + (n+7)/8 }

// NatBitLen returns the paper's |BITS(v)| for v ∈ ℕ: the length of the
// minimal binary representation, with |BITS(0)| defined as 1.
func NatBitLen(v *big.Int) int {
	if v.Sign() == 0 {
		return 1
	}
	return v.BitLen()
}
