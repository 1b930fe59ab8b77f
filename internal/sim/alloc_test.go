// The race detector instruments allocations, so the allocation pin only
// holds on normal builds.
//go:build !race

package sim

import "testing"

// TestTransferAllocations pins the heap allocations of each transfer path
// with the GCM sealer. A ciphertext handed to H is retained by it, so every
// sealed cell costs one allocation, and so does a plaintext a get returns
// in a fresh buffer; everything else (ciphertext references, staging
// buffers, a reused GetBatchInto destination) must be reused.
func TestTransferAllocations(t *testing.T) {
	h := NewHost(0)
	sealer, err := NewRandomGCMSealer()
	if err != nil {
		t.Fatal(err)
	}
	cop, err := NewCoprocessor(h, Config{Sealer: sealer, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 130
	r := h.MustCreateRegion("r", n)
	pts := batchPuts(n)
	if err := cop.PutRange(r, 0, pts); err != nil {
		t.Fatal(err)
	}
	pair, dst := []int64{3, 64}, make([][]byte, 0, 2)
	same := func(_ int64, pt []byte) ([]byte, error) { return pt, nil }
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"Get", 1, func() error { _, err := cop.Get(r, 7); return err }},
		{"Put", 1, func() error { return cop.Put(r, 7, pts[7]) }},
		{"PutBatch of 2", 2, func() error { return cop.PutBatch(r, pair, pts[:2]) }},
		{"GetBatchInto of 2, reused destination", 0, func() error {
			var err error
			dst, err = cop.GetBatchInto(dst, r, pair)
			return err
		}},
		{"ScanRange of 130", 1, func() error {
			return cop.ScanRange(r, 0, n, func(int64, []byte) error { return nil })
		}},
		{"TransformRange of 130", n, func() error { return cop.TransformRange(r, 0, r, 0, n, same) }},
	} {
		var runErr error
		got := testing.AllocsPerRun(50, func() {
			if err := c.run(); err != nil && runErr == nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", c.name, runErr)
		}
		if got > c.max {
			t.Errorf("%s allocates %.1f times per call, want at most %.0f", c.name, got, c.max)
		}
		t.Logf("%s: %.1f allocations per call", c.name, got)
	}
}

// TestGCMSealerAllocations pins SealTo and OpenTo into reused buffers at
// zero allocations: the nonce is framed inside dst, so nothing escapes
// through the cipher.AEAD interface.
func TestGCMSealerAllocations(t *testing.T) {
	s, err := NewRandomGCMSealer()
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 57)
	ct := s.Seal(pt)
	ctBuf, ptBuf := make([]byte, 0, len(ct)), make([]byte, 0, len(pt))
	if got := testing.AllocsPerRun(100, func() { ctBuf = s.SealTo(ctBuf[:0], pt) }); got != 0 {
		t.Errorf("SealTo allocates %.1f times per call, want 0", got)
	}
	var openErr error
	if got := testing.AllocsPerRun(100, func() { ptBuf, openErr = s.OpenTo(ptBuf[:0], ct) }); got != 0 {
		t.Errorf("OpenTo allocates %.1f times per call, want 0", got)
	}
	if openErr != nil {
		t.Fatal(openErr)
	}
}
