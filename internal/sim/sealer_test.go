package sim

import (
	"bytes"
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

// TestGCMSealerAD pins the associated data's binding: a SealAD output opens
// under its own ad only, and SealTo is the empty-ad case of the same seal.
// SealAD appends: a prefix already in dst is kept and the sealed message
// opens from the prefix's end, as the result store's header frame relies
// on. An empty plaintext seals to the overhead alone and opens empty.
func TestGCMSealerAD(t *testing.T) {
	s, err := NewRandomGCMSealer()
	if err != nil {
		t.Fatal(err)
	}
	pt, ad := []byte("row"), []byte("context 1")
	ct := s.SealAD(nil, pt, ad)
	if got, err := s.OpenAD(nil, ct, ad); err != nil || string(got) != string(pt) {
		t.Fatalf("OpenAD under the sealing ad = %q, %v", got, err)
	}
	for _, wrong := range [][]byte{nil, []byte("context 2"), ad[:len(ad)-1]} {
		if _, err := s.OpenAD(nil, ct, wrong); !errors.Is(err, ErrTamper) {
			t.Errorf("OpenAD under ad %q = %v, want ErrTamper", wrong, err)
		}
	}
	if _, err := s.OpenTo(nil, ct); !errors.Is(err, ErrTamper) {
		t.Errorf("OpenTo of an ad-bound ciphertext = %v, want ErrTamper", err)
	}
	if got, err := s.OpenAD(nil, s.SealTo(nil, pt), nil); err != nil || string(got) != string(pt) {
		t.Fatalf("OpenAD(nil) of a SealTo output = %q, %v", got, err)
	}

	prefix := []byte("header")
	out := s.SealAD(bytes.Clone(prefix), pt, ad)
	if !bytes.HasPrefix(out, prefix) || len(out) != len(prefix)+len(pt)+s.Overhead() {
		t.Fatalf("SealAD into %q = %x, want the prefix then %d sealed bytes", prefix, out, len(pt)+s.Overhead())
	}
	if got, err := s.OpenAD(nil, out[len(prefix):], ad); err != nil || string(got) != string(pt) {
		t.Fatalf("OpenAD after the prefix = %q, %v", got, err)
	}

	empty := s.SealAD(nil, nil, ad)
	if len(empty) != s.Overhead() {
		t.Fatalf("empty plaintext sealed to %d bytes, want %d", len(empty), s.Overhead())
	}
	if got, err := s.OpenAD(nil, empty, ad); err != nil || len(got) != 0 {
		t.Fatalf("OpenAD of an empty plaintext = %q, %v", got, err)
	}
	if _, err := s.OpenAD(nil, empty, nil); !errors.Is(err, ErrTamper) {
		t.Fatalf("OpenAD of an empty plaintext under another ad = %v, want ErrTamper", err)
	}
}

// TestGCMSealerKeySizes pins the keys NewGCMSealer takes: the three AES
// sizes, and an error, not a panic, for any other length.
func TestGCMSealerKeySizes(t *testing.T) {
	for _, n := range []int{16, 24, 32} {
		s, err := NewGCMSealer(make([]byte, n))
		if err != nil {
			t.Fatalf("%d-byte key: %v", n, err)
		}
		if got, err := s.OpenTo(nil, s.Seal([]byte("cell"))); err != nil || string(got) != "cell" {
			t.Fatalf("%d-byte key: round trip = %q, %v", n, got, err)
		}
	}
	for _, n := range []int{0, 15, 17, 33} {
		if s, err := NewGCMSealer(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte key accepted: %v", n, s)
		}
	}
}

// FuzzGCMOpenAD feeds the opener what a host can write: arbitrary bytes
// under arbitrary associated data must fail with ErrTamper and never
// panic. The same plaintext and ad, sealed, must round-trip, and flipping
// any one byte of the ciphertext or the ad must fail again. One seed is a
// well-formed message under another key.
func FuzzGCMOpenAD(f *testing.F) {
	s, err := NewGCMSealer(bytes.Repeat([]byte{0x42}, 16))
	if err != nil {
		f.Fatal(err)
	}
	other, err := NewGCMSealer(bytes.Repeat([]byte{0x43}, 16))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil), []byte(nil), uint(0), byte(1))
	f.Add([]byte("secret tuple...."), []byte("context"), uint(5), byte(0x80))
	f.Add(other.SealAD(nil, []byte("row"), []byte("ad")), []byte("ad"), uint(40), byte(0xff))
	f.Fuzz(func(t *testing.T, data, ad []byte, at uint, flip byte) {
		if pt, err := s.OpenAD(nil, data, ad); !errors.Is(err, ErrTamper) {
			t.Fatalf("arbitrary %x under ad %x opened to %x, %v; want ErrTamper", data, ad, pt, err)
		}
		ct := s.SealAD(nil, data, ad)
		if got, err := s.OpenAD(nil, ct, ad); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %x = %x, %v", data, got, err)
		}
		if flip == 0 {
			flip = 1
		}
		ct, ad = bytes.Clone(ct), bytes.Clone(ad)
		if i := int(at % uint(len(ct)+len(ad))); i < len(ct) {
			ct[i] ^= flip
		} else {
			ad[i-len(ct)] ^= flip
		}
		if _, err := s.OpenAD(nil, ct, ad); !errors.Is(err, ErrTamper) {
			t.Fatalf("one byte flipped at %d: %v, want ErrTamper", at%uint(len(ct)+len(ad)), err)
		}
	})
}
