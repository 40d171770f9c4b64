package pera

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"pera/internal/evidence"
	"pera/internal/telemetry"
)

// signMemoSlots is the size of each switch's Sign-stage memo: 256
// direct-mapped slots of 96 bytes, about 25 KB per switch.
const signMemoSlots = 256

// signMemo is the §5.2 inertia axis applied to the Sign stage. A
// high-inertia flow re-presents the chain it carried one packet earlier,
// byte for byte, and RFC 8032 Ed25519 is deterministic, so re-signing it
// would reproduce the signature already made. The memo maps the SHA-256
// of the exact message evidence.Sign hands the signer to that signature,
// so a repeated chain costs one hash instead of one Ed25519 Sign and the
// evidence stays byte-identical.
//
// Each memo wraps one signer instance and lives exactly as long as it:
// SetSigner installs a new wrapper with an empty table, so a Sign that
// races the swap can only fill the old signer's table, and no signer is
// ever answered with another key's signature.
type signMemo struct {
	inner evidence.Signer
	hits  *telemetry.Counter

	mu    sync.Mutex
	slots *[signMemoSlots]signSlot // allocated on the first Sign
}

// signSlot holds one memoized signature. An all-zero key marks an empty
// slot: a message hashing to it would be a SHA-256 preimage.
type signSlot struct {
	key [sha256.Size]byte
	sig [ed25519.SignatureSize]byte
}

// Name implements evidence.Signer.
func (m *signMemo) Name() string { return m.inner.Name() }

// Sign implements evidence.Signer: a memoized message returns a copy of
// its stored signature, any other calls the inner signer. Only a
// well-formed 64-byte result is stored, so a failed remote sign (nil)
// is never served again.
func (m *signMemo) Sign(message []byte) []byte {
	key := sha256.Sum256(message)
	slot := binary.BigEndian.Uint32(key[:4]) % signMemoSlots
	m.mu.Lock()
	if m.slots != nil && m.slots[slot].key == key {
		sig := make([]byte, ed25519.SignatureSize)
		copy(sig, m.slots[slot].sig[:])
		m.mu.Unlock()
		m.hits.Inc()
		return sig
	}
	m.mu.Unlock()
	sig := m.inner.Sign(message)
	if len(sig) != ed25519.SignatureSize {
		return sig
	}
	m.mu.Lock()
	if m.slots == nil {
		m.slots = new([signMemoSlots]signSlot)
	}
	m.slots[slot].key = key
	copy(m.slots[slot].sig[:], sig)
	m.mu.Unlock()
	return sig
}
