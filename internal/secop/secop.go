// Package secop models the secure-coprocessor device platform of §2.2: the
// three features that let a remote party trust computation on an IBM
// 4758-class device — tamper detection/response, secure bootstrapping, and
// outbound authentication (OA). The join simulator (internal/sim) models
// the device's computational interface; this package models its trust
// story, which the service layer uses to authenticate the join code to the
// data providers before they release any data.
//
// The physical sensing grids are simulated by an explicit tamper signal;
// everything downstream of the signal (zeroization, refusal to attest) is
// implemented as on the real device.
package secop

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrZeroized is returned by every operation after tamper response fired.
var ErrZeroized = errors.New("secop: device zeroized after tamper detection")

// ErrNotLoaded is returned when attestation is requested before the code
// hierarchy is fully loaded.
var ErrNotLoaded = errors.New("secop: boot hierarchy incomplete")

// Layer identifies a level of the privilege hierarchy (§2.2.2): "a typical
// hierarchy is Miniboot, OS, and applications with Miniboot having the
// highest privilege".
type Layer int

const (
	// Miniboot is the manufacturer-installed root of trust.
	Miniboot Layer = iota
	// OS is the operating system layer.
	OS
	// App is the application layer (the join code).
	App
	numLayers
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case Miniboot:
		return "miniboot"
	case OS:
		return "os"
	case App:
		return "app"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// CodeImage is a software load for one layer.
type CodeImage struct {
	Layer Layer
	Name  string
	Code  []byte
}

// Digest is the measurement of an image.
func (c CodeImage) Digest() [32]byte {
	h := sha256.New()
	h.Write([]byte(c.Name))
	h.Write([]byte{0})
	h.Write(c.Code)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Certificate is one link of the outbound-authentication chain: the signer
// layer vouches for the subject layer's measured image and public key.
type Certificate struct {
	SubjectLayer  Layer
	SubjectName   string
	SubjectDigest [32]byte
	SubjectKey    ed25519.PublicKey
	SignerKey     ed25519.PublicKey
	Signature     []byte
}

// payload serialises the signed portion.
func (c Certificate) payload() []byte {
	out := []byte{byte(c.SubjectLayer)}
	out = append(out, byte(len(c.SubjectName)))
	out = append(out, c.SubjectName...)
	out = append(out, c.SubjectDigest[:]...)
	out = append(out, c.SubjectKey...)
	return out
}

// Device is a simulated tamper-responding secure coprocessor.
type Device struct {
	zeroized bool
	// deviceKey is the primary secret destroyed on tamper (§2.2.2: "Upon
	// detection of tamper, the memory is zeroized which destroys the
	// primary secret of the device, the private key").
	deviceKey ed25519.PrivateKey
	devicePub ed25519.PublicKey
	layers    [numLayers]*loadedLayer
}

type loadedLayer struct {
	image CodeImage
	priv  ed25519.PrivateKey
	cert  Certificate
}

// NewDevice manufactures a device: the factory installs the device key pair
// (the hardware root) and ships it with the minimum software configuration.
func NewDevice() (*Device, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secop: manufacturing device: %w", err)
	}
	return &Device{deviceKey: priv, devicePub: pub}, nil
}

// DeviceKey returns the device's public key — the value the manufacturer
// publishes and relying parties pin.
func (d *Device) DeviceKey() ed25519.PublicKey { return d.devicePub }

// Load installs a code image at its layer. Layers must be loaded in
// privilege order (Miniboot, then OS, then App); each load extends the
// trust boundary (§2.2.2) by certifying the new layer's key and
// measurement with the previous layer's key (the device key for Miniboot).
func (d *Device) Load(img CodeImage) error {
	if d.zeroized {
		return ErrZeroized
	}
	if img.Layer < 0 || img.Layer >= numLayers {
		return fmt.Errorf("secop: unknown layer %d", img.Layer)
	}
	if img.Layer > 0 && d.layers[img.Layer-1] == nil {
		return fmt.Errorf("secop: cannot load %s before %s", img.Layer, img.Layer-1)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return fmt.Errorf("secop: layer key: %w", err)
	}
	cert := Certificate{
		SubjectLayer:  img.Layer,
		SubjectName:   img.Name,
		SubjectDigest: img.Digest(),
		SubjectKey:    pub,
	}
	if img.Layer == Miniboot {
		cert.SignerKey = d.devicePub
		cert.Signature = ed25519.Sign(d.deviceKey, cert.payload())
	} else {
		parent := d.layers[img.Layer-1]
		cert.SignerKey = parent.cert.SubjectKey
		cert.Signature = ed25519.Sign(parent.priv, cert.payload())
	}
	d.layers[img.Layer] = &loadedLayer{image: img, priv: priv, cert: cert}
	// Loading a layer invalidates everything above it (reload required).
	for l := img.Layer + 1; l < numLayers; l++ {
		d.layers[l] = nil
	}
	return nil
}

// Tamper simulates the sensing grids detecting intrusion: memory is
// zeroized and the device is permanently disabled.
func (d *Device) Tamper() {
	d.zeroized = true
	for i := range d.deviceKey {
		d.deviceKey[i] = 0
	}
	for i := range d.layers {
		if d.layers[i] != nil {
			for j := range d.layers[i].priv {
				d.layers[i].priv[j] = 0
			}
			d.layers[i] = nil
		}
	}
}

// Zeroized reports whether tamper response has fired.
func (d *Device) Zeroized() bool { return d.zeroized }

// Attestation is the outbound-authentication evidence: the certificate
// chain from the device key down to the application, plus a signature over
// a caller-chosen challenge by the application layer's key.
type Attestation struct {
	Chain     []Certificate // Miniboot, OS, App
	Challenge []byte
	Signature []byte
}

// Attest produces outbound authentication for a relying party's challenge:
// proof that a particular software stack runs within this untampered
// device (§2.2.2).
func (d *Device) Attest(challenge []byte) (Attestation, error) {
	if d.zeroized {
		return Attestation{}, ErrZeroized
	}
	var chain []Certificate
	for l := Layer(0); l < numLayers; l++ {
		if d.layers[l] == nil {
			return Attestation{}, fmt.Errorf("%w: layer %s missing", ErrNotLoaded, l)
		}
		chain = append(chain, d.layers[l].cert)
	}
	app := d.layers[App]
	return Attestation{
		Chain:     chain,
		Challenge: append([]byte(nil), challenge...),
		Signature: ed25519.Sign(app.priv, challenge),
	}, nil
}

// AppSign signs arbitrary data with the application layer's key (used by
// the service layer to bind session parameters to the attested code).
func (d *Device) AppSign(data []byte) ([]byte, error) {
	if d.zeroized {
		return nil, ErrZeroized
	}
	if d.layers[App] == nil {
		return nil, ErrNotLoaded
	}
	return ed25519.Sign(d.layers[App].priv, data), nil
}

// AppKey returns the attested application layer's public key.
func (d *Device) AppKey() (ed25519.PublicKey, error) {
	if d.zeroized {
		return nil, ErrZeroized
	}
	if d.layers[App] == nil {
		return nil, ErrNotLoaded
	}
	return d.layers[App].cert.SubjectKey, nil
}

// ExpectedStack pins the measurements a relying party trusts: a map from
// layer to the digest of the known, trusted image.
type ExpectedStack map[Layer][32]byte

// Verify checks an attestation against a pinned device key and expected
// software measurements, implementing the relying party of §2.2.2: "when
// given chains of signed certificates, a relying party will be able to
// authenticate a particular software entity within a particular untampered
// platform".
//
// A chain's link signatures are checked once per process: ed25519.Verify
// is a pure function of key, message and signature, so a chain whose
// three links verified under this pinned key (verifiedChains) skips those
// three verifications when it comes again byte for byte. The layer order,
// the signer-key chaining, the expected measurements, the challenge and
// its signature are checked on every call.
func Verify(deviceKey ed25519.PublicKey, expected ExpectedStack, att Attestation, challenge []byte) error {
	if len(att.Chain) != int(numLayers) {
		return fmt.Errorf("secop: chain has %d links, want %d", len(att.Chain), numLayers)
	}
	digest := chainDigest(deviceKey, att.Chain)
	known := verifiedChains.has(digest)
	signer := deviceKey
	for l := Layer(0); l < numLayers; l++ {
		cert := att.Chain[l]
		if cert.SubjectLayer != l {
			return fmt.Errorf("secop: link %d is for layer %s", l, cert.SubjectLayer)
		}
		if !cert.SignerKey.Equal(signer) {
			return fmt.Errorf("secop: layer %s signed by unexpected key", l)
		}
		if !known && !ed25519.Verify(signer, cert.payload(), cert.Signature) {
			return fmt.Errorf("secop: layer %s certificate signature invalid", l)
		}
		if want, ok := expected[l]; ok && want != cert.SubjectDigest {
			return fmt.Errorf("secop: layer %s runs unexpected code %q", l, cert.SubjectName)
		}
		signer = cert.SubjectKey
	}
	if !known {
		verifiedChains.add(digest)
	}
	if string(att.Challenge) != string(challenge) {
		return errors.New("secop: challenge mismatch (replay?)")
	}
	appKey := att.Chain[App].SubjectKey
	if !ed25519.Verify(appKey, challenge, att.Signature) {
		return errors.New("secop: challenge signature invalid")
	}
	return nil
}

// chainDigest is SHA-256 over the pinned device key and, for every link,
// the three inputs of its signature check — signer key, signed payload,
// signature — each length-prefixed.
func chainDigest(deviceKey ed25519.PublicKey, chain []Certificate) [sha256.Size]byte {
	h := sha256.New()
	field := func(b []byte) {
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(b))))
		h.Write(b)
	}
	field(deviceKey)
	for _, c := range chain {
		field(c.SignerKey)
		field(c.payload())
		field(c.Signature)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// chainMemoCap bounds verifiedChains. A process relies on a handful of
// devices, each with one chain per boot; a set that fills is emptied and
// refills from the chains still in use.
const chainMemoCap = 256

// verifiedChains is the process-wide set of chain digests whose link
// signatures verified under the pinned key the digest names. Only Verify
// adds to it, once a chain's links have verified, so a relay cannot fill
// it with chains that do not.
var verifiedChains = chainSet{m: make(map[[sha256.Size]byte]struct{}, chainMemoCap)}

type chainSet struct {
	mu sync.RWMutex
	m  map[[sha256.Size]byte]struct{}
}

func (s *chainSet) has(d [sha256.Size]byte) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[d]
	return ok
}

func (s *chainSet) add(d [sha256.Size]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.m) >= chainMemoCap {
		clear(s.m)
	}
	s.m[d] = struct{}{}
}
