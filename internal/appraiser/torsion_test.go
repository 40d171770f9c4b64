package appraiser

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/sha512"
	"math/big"

	"pera/internal/rot"
)

// torsionSigner signs like rot.NewDeterministic(name, seed) but moves the
// signature's R by the order-2 point (0, −1) and recomputes S for the
// moved R: S′ = r + SHA-512(R′‖A‖M)·a mod L. crypto/ed25519, which checks
// the cofactorless equation, rejects the result; a cofactored check
// multiplies the order-2 component away and accepts it.
type torsionSigner struct {
	name string
	priv ed25519.PrivateKey
}

func newTorsionSigner(name string, seed []byte) *torsionSigner {
	h := sha256.Sum256(seed) // rot.NewDeterministic's key derivation
	return &torsionSigner{name: name, priv: ed25519.NewKeyFromSeed(h[:])}
}

func (s *torsionSigner) Name() string { return s.name }

var (
	edP    = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	edL, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
)

// leInt reads b as a little-endian integer.
func leInt(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i := range b {
		be[len(b)-1-i] = b[i]
	}
	return new(big.Int).SetBytes(be)
}

// le32 writes x (< 2^256) as 32 little-endian bytes.
func le32(x *big.Int) []byte {
	be := x.FillBytes(make([]byte, 32))
	out := make([]byte, 32)
	for i := range be {
		out[31-i] = be[i]
	}
	return out
}

func (s *torsionSigner) Sign(message []byte) []byte {
	m := append([]byte(rot.SigPrefix), message...)
	sig := ed25519.Sign(s.priv, m)
	// RFC 8032: a is the clamped low half of SHA-512(seed); r hashes the
	// high half with the message.
	h := sha512.Sum512(s.priv.Seed())
	h[0] &= 248
	h[31] = h[31]&127 | 64
	a := leInt(h[:32])
	rh := sha512.Sum512(append(append([]byte(nil), h[32:]...), m...))
	r := new(big.Int).Mod(leInt(rh[:]), edL)
	// R + (0, −1) = (−x, −y): negate y and flip the sign bit of x.
	enc := append([]byte(nil), sig[:32]...)
	xSign := enc[31] >> 7
	enc[31] &= 0x7f
	rPrime := le32(new(big.Int).Mod(new(big.Int).Sub(edP, leInt(enc)), edP))
	rPrime[31] |= (xSign ^ 1) << 7
	kh := sha512.New()
	kh.Write(rPrime)
	kh.Write(s.priv.Public().(ed25519.PublicKey))
	kh.Write(m)
	k := new(big.Int).Mod(leInt(kh.Sum(nil)), edL)
	sPrime := new(big.Int).Mod(new(big.Int).Add(r, new(big.Int).Mul(k, a)), edL)
	return append(rPrime, le32(sPrime)...)
}
