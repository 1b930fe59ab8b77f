package sim

import (
	"encoding/hex"
	"errors"
	"sync"
	"testing"
)

// TestGCMSealerKnownAnswer opens a published AES-128-GCM vector (the Go
// standard library's crypto/cipher test set: 12-byte nonce, 16-byte
// plaintext, no associated data) laid out as the sealer frames a cell.
func TestGCMSealerKnownAnswer(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	key := unhex("7fddb57453c241d03efbed3ac44e371c")
	nonce := unhex("ee283a3fc75575e33efd4887")
	want := unhex("d5de42b461646c255c87bd2962d3b9a2")
	ctTag := unhex("2ccda4a5415cb91e135c2a0f78c9b2fdb36d1df9b9d5e596f83e8b7f52971cb3")
	s, err := NewGCMSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.OpenTo(nil, append(nonce, ctTag...))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("opened %x, want %x", got, want)
	}
}

func TestTamperDetection(t *testing.T) {
	pt := []byte("secret tuple....")
	for _, c := range []struct {
		name   string
		tamper func(ct []byte) []byte
	}{
		{"nonce bit", func(ct []byte) []byte { ct[gcmNonceSize-1] ^= 0x01; return ct }},
		{"body bit", func(ct []byte) []byte { ct[gcmNonceSize] ^= 0x80; return ct }},
		{"tag bit", func(ct []byte) []byte { ct[len(ct)-1] ^= 0x01; return ct }},
		{"cut below 28 bytes", func(ct []byte) []byte { return ct[:gcmNonceSize+gcmTagSize-1] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := NewHost(0)
			sealer, err := NewRandomGCMSealer()
			if err != nil {
				t.Fatal(err)
			}
			cop, err := NewCoprocessor(h, Config{Memory: 4, Sealer: sealer, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			id := h.MustCreateRegion("r", 1)
			if err := cop.Put(id, 0, pt); err != nil {
				t.Fatal(err)
			}
			ct := append([]byte(nil), h.Inspect(id, 0)...)
			if len(ct) != len(pt)+sealer.Overhead() {
				t.Fatalf("sealed %d bytes, want %d", len(ct), len(pt)+sealer.Overhead())
			}
			h.Tamper(id, 0, c.tamper(ct))
			if _, err := cop.Get(id, 0); !errors.Is(err, ErrTamper) {
				t.Fatalf("tampered get error = %v, want ErrTamper", err)
			}
		})
	}
}

// TestGCMNonceUnique seals from four goroutines sharing one sealer, as a
// device group shares device 0's, and checks that no nonce repeats: a
// repeated GCM nonce under one key leaks the authentication key.
func TestGCMNonceUnique(t *testing.T) {
	const workers, perWorker = 4, 10_000
	s, err := NewRandomGCMSealer()
	if err != nil {
		t.Fatal(err)
	}
	nonces := make([][][gcmNonceSize]byte, workers)
	var wg sync.WaitGroup
	for w := range nonces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pt, ct := []byte("cell"), []byte(nil)
			for range perWorker {
				ct = s.SealTo(ct[:0], pt)
				nonces[w] = append(nonces[w], [gcmNonceSize]byte(ct))
			}
		}()
	}
	wg.Wait()
	seen := make(map[[gcmNonceSize]byte]bool, workers*perWorker)
	for _, ns := range nonces {
		for _, n := range ns {
			if seen[n] {
				t.Fatalf("nonce %x sealed twice", n)
			}
			seen[n] = true
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("%d distinct nonces, want %d", len(seen), workers*perWorker)
	}

	a, err := NewRandomGCMSealer()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomGCMSealer()
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("identical plaintext")
	if string(a.Seal(pt)) == string(b.Seal(pt)) {
		t.Fatal("two random sealers at counter 1 produced equal ciphertexts")
	}
}
