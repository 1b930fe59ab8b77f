package secop

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func loadedDevice(t *testing.T) (*Device, ExpectedStack) {
	t.Helper()
	d, err := NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	images := []CodeImage{
		{Layer: Miniboot, Name: "miniboot-v1", Code: []byte("mb")},
		{Layer: OS, Name: "cp/q-v2", Code: []byte("os")},
		{Layer: App, Name: "ppjoin-v1", Code: []byte("join code")},
	}
	exp := ExpectedStack{}
	for _, img := range images {
		if err := d.Load(img); err != nil {
			t.Fatal(err)
		}
		exp[img.Layer] = img.Digest()
	}
	return d, exp
}

func TestAttestationVerifies(t *testing.T) {
	d, exp := loadedDevice(t)
	challenge := []byte("nonce-123")
	att, err := d.Attest(challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(d.DeviceKey(), exp, att, challenge); err != nil {
		t.Fatalf("valid attestation rejected: %v", err)
	}
}

func TestAttestationRejectsWrongCode(t *testing.T) {
	d, exp := loadedDevice(t)
	// Relying party expects different app code.
	exp[App] = CodeImage{Layer: App, Name: "evil", Code: []byte("x")}.Digest()
	att, err := d.Attest([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	err = Verify(d.DeviceKey(), exp, att, []byte("c"))
	if err == nil || !strings.Contains(err.Error(), "unexpected code") {
		t.Fatalf("wrong code accepted: %v", err)
	}
}

func TestAttestationRejectsWrongDevice(t *testing.T) {
	d1, exp := loadedDevice(t)
	d2, _ := loadedDevice(t)
	att, err := d1.Attest([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if Verify(d2.DeviceKey(), exp, att, []byte("c")) == nil {
		t.Fatal("attestation accepted under wrong device key")
	}
}

func TestAttestationRejectsReplay(t *testing.T) {
	d, exp := loadedDevice(t)
	att, err := d.Attest([]byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	if Verify(d.DeviceKey(), exp, att, []byte("fresh")) == nil {
		t.Fatal("replayed attestation accepted")
	}
}

func TestAttestationRejectsTamperedChain(t *testing.T) {
	d, exp := loadedDevice(t)
	att, err := d.Attest([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	att.Chain[App].SubjectName = "renamed"
	att.Chain[App].SubjectDigest = CodeImage{Layer: App, Name: "renamed", Code: []byte("y")}.Digest()
	exp[App] = att.Chain[App].SubjectDigest
	if Verify(d.DeviceKey(), exp, att, []byte("c")) == nil {
		t.Fatal("tampered chain accepted")
	}
}

func TestBootOrderEnforced(t *testing.T) {
	d, err := NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(CodeImage{Layer: App, Name: "app", Code: []byte("x")}); err == nil {
		t.Fatal("app loaded before miniboot")
	}
	if err := d.Load(CodeImage{Layer: OS, Name: "os", Code: []byte("x")}); err == nil {
		t.Fatal("os loaded before miniboot")
	}
	if _, err := d.Attest([]byte("c")); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("attest on empty device: %v", err)
	}
}

func TestReloadInvalidatesUpperLayers(t *testing.T) {
	d, _ := loadedDevice(t)
	// Reloading the OS must drop the app layer.
	if err := d.Load(CodeImage{Layer: OS, Name: "cp/q-v3", Code: []byte("os2")}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Attest([]byte("c")); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("attest after OS reload should need app reload: %v", err)
	}
}

func TestTamperZeroizes(t *testing.T) {
	d, _ := loadedDevice(t)
	d.Tamper()
	if !d.Zeroized() {
		t.Fatal("device not zeroized")
	}
	if _, err := d.Attest([]byte("c")); !errors.Is(err, ErrZeroized) {
		t.Fatalf("attest after tamper: %v", err)
	}
	if err := d.Load(CodeImage{Layer: Miniboot, Name: "mb", Code: []byte("x")}); !errors.Is(err, ErrZeroized) {
		t.Fatalf("load after tamper: %v", err)
	}
	if _, err := d.AppSign([]byte("x")); !errors.Is(err, ErrZeroized) {
		t.Fatalf("sign after tamper: %v", err)
	}
}

func TestAppSignVerifiable(t *testing.T) {
	d, _ := loadedDevice(t)
	sig, err := d.AppSign([]byte("session params"))
	if err != nil {
		t.Fatal(err)
	}
	key, err := d.AppKey()
	if err != nil {
		t.Fatal(err)
	}
	att, _ := d.Attest([]byte("c"))
	if !att.Chain[App].SubjectKey.Equal(key) {
		t.Fatal("AppKey does not match attested key")
	}
	_ = sig
}

func TestDigestDependsOnNameAndCode(t *testing.T) {
	a := CodeImage{Layer: App, Name: "x", Code: []byte("code")}
	b := CodeImage{Layer: App, Name: "y", Code: []byte("code")}
	c := CodeImage{Layer: App, Name: "x", Code: []byte("CODE")}
	if a.Digest() == b.Digest() || a.Digest() == c.Digest() {
		t.Fatal("digest collisions across distinct images")
	}
}

func TestLayerString(t *testing.T) {
	if Miniboot.String() != "miniboot" || OS.String() != "os" || App.String() != "app" {
		t.Fatal("layer names wrong")
	}
}

// warmChain returns a device, its pinned stack and an attestation for
// challenge "c" whose chain has verified once, so verifiedChains holds it.
func warmChain(t *testing.T) (*Device, ExpectedStack, Attestation) {
	t.Helper()
	d, exp := loadedDevice(t)
	att, err := d.Attest([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(d.DeviceKey(), exp, att, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if !verifiedChains.has(chainDigest(d.DeviceKey(), att.Chain)) {
		t.Fatal("a verified chain was not remembered")
	}
	return d, exp, att
}

// cloneAttestation deep-copies att, so a test may change any byte of it.
func cloneAttestation(att Attestation) Attestation {
	out := Attestation{Challenge: bytes.Clone(att.Challenge), Signature: bytes.Clone(att.Signature)}
	for _, c := range att.Chain {
		c.SubjectKey, c.SignerKey, c.Signature = bytes.Clone(c.SubjectKey), bytes.Clone(c.SignerKey), bytes.Clone(c.Signature)
		out.Chain = append(out.Chain, c)
	}
	return out
}

// TestChainMemoKeepsPerCallChecks: a remembered chain skips only its link
// signatures. Under another pinned device key, under measurements that
// name other code, with a fresh challenge written over a captured one, or
// with a forged challenge signature, it is refused as a cold chain is.
func TestChainMemoKeepsPerCallChecks(t *testing.T) {
	d, exp, att := warmChain(t)
	other, _ := loadedDevice(t)
	if err := Verify(other.DeviceKey(), exp, att, []byte("c")); err == nil || !strings.Contains(err.Error(), "unexpected key") {
		t.Fatalf("remembered chain under another device key: %v", err)
	}
	wrong := ExpectedStack{App: CodeImage{Layer: App, Name: "evil", Code: []byte("x")}.Digest()}
	if err := Verify(d.DeviceKey(), wrong, att, []byte("c")); err == nil || !strings.Contains(err.Error(), "unexpected code") {
		t.Fatalf("remembered chain under other expected code: %v", err)
	}
	replay := cloneAttestation(att)
	replay.Challenge = []byte("fresh")
	if err := Verify(d.DeviceKey(), exp, replay, []byte("fresh")); err == nil || !strings.Contains(err.Error(), "challenge signature invalid") {
		t.Fatalf("captured attestation under a fresh challenge: %v", err)
	}
	forged := cloneAttestation(att)
	forged.Signature[0] ^= 1
	if err := Verify(d.DeviceKey(), exp, forged, []byte("c")); err == nil || !strings.Contains(err.Error(), "challenge signature invalid") {
		t.Fatalf("forged challenge signature: %v", err)
	}
	if err := Verify(d.DeviceKey(), exp, att, []byte("c")); err != nil {
		t.Fatalf("the remembered chain itself: %v", err)
	}
}

// TestChainMemoCoversEveryLinkByte: with the chain remembered, changing
// any one byte of any link — its layer, name, measurement, subject key,
// signer key or signature — is refused. The pinned stack is empty, so only
// the link signatures and the key chaining can tell.
func TestChainMemoCoversEveryLinkByte(t *testing.T) {
	d, _, att := warmChain(t)
	// Each field of a link as its bytes, and how to write them back.
	fields := []struct {
		name string
		get  func(c *Certificate) []byte
		set  func(c *Certificate, b []byte)
	}{
		{"layer", func(c *Certificate) []byte { return []byte{byte(c.SubjectLayer)} },
			func(c *Certificate, b []byte) { c.SubjectLayer = Layer(b[0]) }},
		{"name", func(c *Certificate) []byte { return []byte(c.SubjectName) },
			func(c *Certificate, b []byte) { c.SubjectName = string(b) }},
		{"measurement", func(c *Certificate) []byte { return bytes.Clone(c.SubjectDigest[:]) },
			func(c *Certificate, b []byte) { copy(c.SubjectDigest[:], b) }},
		{"subject key", func(c *Certificate) []byte { return c.SubjectKey },
			func(c *Certificate, b []byte) { c.SubjectKey = b }},
		{"signer key", func(c *Certificate) []byte { return c.SignerKey },
			func(c *Certificate, b []byte) { c.SignerKey = b }},
		{"signature", func(c *Certificate) []byte { return c.Signature },
			func(c *Certificate, b []byte) { c.Signature = b }},
	}
	flips := 0
	for l := range att.Chain {
		for _, f := range fields {
			for i := range f.get(&att.Chain[l]) {
				bad := cloneAttestation(att)
				b := f.get(&bad.Chain[l])
				b[i] ^= 1
				f.set(&bad.Chain[l], b)
				if Verify(d.DeviceKey(), ExpectedStack{}, bad, []byte("c")) == nil {
					t.Fatalf("link %d with byte %d of its %s changed accepted", l, i, f.name)
				}
				flips++
			}
		}
	}
	if err := Verify(d.DeviceKey(), ExpectedStack{}, att, []byte("c")); err != nil {
		t.Fatalf("the unchanged chain after %d refusals: %v", flips, err)
	}
}

// TestChainMemoConcurrentVerify: goroutines verifying the attestations of
// two devices at once — honest, under the wrong device key, and replayed
// under another challenge — each get the verdict a lone call gets. CI
// repeats it under -race: the set is shared by the whole process.
func TestChainMemoConcurrentVerify(t *testing.T) {
	type tcase struct {
		key       ed25519.PublicKey
		exp       ExpectedStack
		att       Attestation
		challenge string
		ok        bool
	}
	var cases []tcase
	devs := make([]*Device, 2)
	for i := range devs {
		d, exp := loadedDevice(t)
		devs[i] = d
		att, err := d.Attest([]byte("c"))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tcase{d.DeviceKey(), exp, att, "c", true}, tcase{d.DeviceKey(), exp, att, "other", false})
	}
	cases = append(cases, tcase{devs[1].DeviceKey(), cases[0].exp, cases[0].att, "c", false})
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(cases))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 * len(cases) {
				c := cases[(g+i)%len(cases)]
				if err := Verify(c.key, c.exp, c.att, []byte(c.challenge)); (err == nil) != c.ok {
					errs <- fmt.Errorf("case %d: verdict %v, want ok=%v", (g+i)%len(cases), err, c.ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChainMemoBounded: the set never holds more than chainMemoCap
// chains, and a chain dropped when it fills verifies again from cold.
func TestChainMemoBounded(t *testing.T) {
	d, exp, att := warmChain(t)
	for i := 0; i < chainMemoCap; i++ {
		verifiedChains.add([32]byte{byte(i), byte(i >> 8), 0xee})
	}
	verifiedChains.mu.RLock()
	n := len(verifiedChains.m)
	verifiedChains.mu.RUnlock()
	if n > chainMemoCap {
		t.Fatalf("set holds %d chains, cap %d", n, chainMemoCap)
	}
	digest := chainDigest(d.DeviceKey(), att.Chain)
	if verifiedChains.has(digest) {
		t.Fatal("the set filled without dropping the first chain")
	}
	if err := Verify(d.DeviceKey(), exp, att, []byte("c")); err != nil || !verifiedChains.has(digest) {
		t.Fatalf("the dropped chain from cold: %v", err)
	}
}
