package core

import (
	"math/big"

	"convexagreement/internal/ba"
	"convexagreement/internal/transport"
)

// PiZ implements Π_ℤ (§6, Corollaries 1–2): Convex Agreement for integer
// inputs. The parties first agree on an output sign with one bit of BA;
// parties whose sign differs from the agreed one switch their magnitude to
// 0 (always valid, since an honest party on the agreed side exists), and
// Π_ℕ then agrees on the magnitude.
//
// With Π_BA instantiated by phase-king (package ba), this realizes
// Corollary 2: a deterministic CA protocol for ℤ in the plain model with
// t < n/3, O(ℓn + poly(n, κ)) bits, and O(n log n) rounds.
func PiZ(env transport.Net, tag string, v *big.Int) (*big.Int, error) {
	if v == nil {
		return nil, ErrProtocol
	}
	signIn := byte(0)
	if v.Sign() < 0 {
		signIn = 1
	}
	signOut, err := ba.Binary(env, tag+"/sign", signIn)
	if err != nil {
		return nil, err
	}
	// Π_ℕ only reads its input, so v is copied only when it must be negated.
	mag := v
	switch {
	case signOut != signIn:
		// The agreed sign is held by some honest party, so 0 lies between
		// that party's input and ours.
		mag = big.NewInt(0)
	case signIn == 1:
		mag = new(big.Int).Neg(v)
	}
	magOut, err := PiN(env, tag+"/mag", mag)
	if err != nil {
		return nil, err
	}
	if signOut == 1 {
		// Π_ℕ's output is freshly allocated, never an alias of mag.
		magOut.Neg(magOut)
	}
	return magOut, nil
}
