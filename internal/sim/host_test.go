package sim

import (
	"bytes"
	"testing"
)

// TestHostOwnsCellBytes checks that H rewrites its cells in place without
// sharing their bytes: no slice a caller handed in or got back, and no
// other cell, changes when a cell does.
func TestHostOwnsCellBytes(t *testing.T) {
	t.Run("Inspect returns a copy", func(t *testing.T) {
		h, cop := newTestPair(t, 4)
		r := h.MustCreateRegion("r", 1)
		if err := cop.Put(r, 0, []byte("cell")); err != nil {
			t.Fatal(err)
		}
		ct := h.Inspect(r, 0)
		ct[len(ct)-1] = 'X'
		if pt, err := cop.Get(r, 0); err != nil || string(pt) != "cell" {
			t.Fatalf("after editing Inspect's bytes, Get = %q, %v; want \"cell\"", pt, err)
		}
	})
	t.Run("Store and Tamper copy", func(t *testing.T) {
		h, _ := newTestPair(t, 4)
		r := h.MustCreateRegion("r", 2)
		stored, tampered := []byte("stored"), []byte("tampered")
		h.Store(r, 0, stored)
		h.Tamper(r, 1, tampered)
		stored[0], tampered[0] = 'X', 'X'
		if got := h.Inspect(r, 0); string(got) != "stored" {
			t.Fatalf("stored cell reads %q after its caller edited the slice", got)
		}
		if got := h.Inspect(r, 1); string(got) != "tampered" {
			t.Fatalf("tampered cell reads %q after its caller edited the slice", got)
		}
	})
	t.Run("Get under PlainSealer returns a fresh plaintext", func(t *testing.T) {
		h, cop := newTestPair(t, 4)
		r := h.MustCreateRegion("r", 1)
		if err := cop.Put(r, 0, []byte("cell")); err != nil {
			t.Fatal(err)
		}
		pt, err := cop.Get(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		pt[0] = 'X'
		if again, err := cop.Get(r, 0); err != nil || string(again) != "cell" {
			t.Fatalf("after editing a Get's plaintext, Get = %q, %v; want \"cell\"", again, err)
		}
	})
	t.Run("a copied-out cell keeps its bytes", func(t *testing.T) {
		h, cop := newTestPair(t, 4)
		src, dst := h.MustCreateRegion("src", 2), h.MustCreateRegion("dst", 0)
		if err := cop.PutRange(src, 0, [][]byte{[]byte("old0"), []byte("old1")}); err != nil {
			t.Fatal(err)
		}
		if err := cop.RequestCopyOut(dst, 0, src, 0, 2); err != nil {
			t.Fatal(err)
		}
		if err := cop.PutRange(src, 0, [][]byte{[]byte("new0"), []byte("new1")}); err != nil {
			t.Fatal(err)
		}
		got, err := cop.GetRange(dst, 0, 2)
		if err != nil || string(got[0]) != "old0" || string(got[1]) != "old1" {
			t.Fatalf("copied-out cells open to %q, %v after their sources were rewritten; want old0, old1", got, err)
		}
	})
	t.Run("copy out within a region overlaps like memmove", func(t *testing.T) {
		h, cop := newTestPair(t, 4)
		r := h.MustCreateRegion("r", 4)
		if err := cop.PutRange(r, 0, batchPuts(4)); err != nil {
			t.Fatal(err)
		}
		if err := cop.RequestCopyOut(r, 1, r, 0, 3); err != nil {
			t.Fatal(err)
		}
		got, err := cop.GetRange(r, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := batchPuts(4)
		want = append(want[:1], want[:3]...)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("after copying r[0..3) to r[1..4), r = %q; want %q", got, want)
			}
		}
	})
}
