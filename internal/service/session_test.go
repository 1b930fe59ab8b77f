package service

import (
	"bytes"
	"errors"
	"testing"

	"ppj/internal/sim"
)

// relayScripts play a relay between the two ends of a session. The relay
// forwards honestly sealed rows and keeps the framing valid (it recomputes
// the unkeyed CRC chain), but it duplicates, reorders or reflects a row, or
// lowers the begin frame's declaration and drops the tail. Only the rows'
// associated data can tell, so each lie must fail to open with
// sim.ErrTamper; the honest relay completes.
var relayScripts = []struct {
	name string
	// rows relays the one chunk of four rows that follows a begin frame
	// declaring four.
	rows   func(sc *streamScript) [][]byte
	honest bool
}{
	{"honest", func(sc *streamScript) [][]byte { return sc.seal(0, 4) }, true},
	{"duplicate", func(sc *streamScript) [][]byte {
		r := sc.seal(0, 3)
		return [][]byte{r[0], r[1], r[1], r[2]}
	}, false},
	{"reorder", func(sc *streamScript) [][]byte {
		r := sc.seal(0, 4)
		return [][]byte{r[1], r[0], r[2], r[3]}
	}, false},
	{"reflect", func(sc *streamScript) [][]byte {
		r := sc.seal(1, 4)
		return append([][]byte{sc.peer.sealer.seal(sc.cell(0), sc.declared)}, r...)
	}, false},
	{"truncate under a lowered declaration", func(sc *streamScript) [][]byte {
		sc.declared = 8 // the sender sealed its eight rows under 8
		return sc.seal(0, 4)
	}, false},
}

// TestSessionRelayTampering runs the relay scripts against both directions
// of a session: a provider's upload into T and T's delivery to a recipient.
func TestSessionRelayTampering(t *testing.T) {
	for _, d := range []struct {
		name  string
		start func(*testing.T) *streamScript
	}{{"upload", startUploadScript}, {"delivery", startDeliveryScript}} {
		for _, s := range relayScripts {
			t.Run(d.name+"/"+s.name, func(t *testing.T) {
				sc := d.start(t)
				sc.begin(4)
				var ck chunker
				sc.send(frameMsg{Chunk: ck.frame(s.rows(sc))})
				if s.honest {
					if a := sc.ack(); a.Err != "" {
						t.Fatalf("honest chunk refused: %s", a.Err)
					}
					sc.send(frameMsg{End: ck.endFrame(4)})
					if err := sc.verdict(); err != nil {
						t.Fatalf("honest relay refused: %v", err)
					}
					return
				}
				if err := sc.verdict(); !errors.Is(err, sim.ErrTamper) {
					t.Fatalf("verdict = %v, want sim.ErrTamper", err)
				}
			})
		}
	}
}

// TestSessionDirectionKeys pins one key per session direction. Both
// directions' first messages carry nonce counter 1, so only distinct keys
// keep a (key, nonce) pair from being sealed twice: one plaintext under one
// nonce and one AD must seal to two ciphertexts.
func TestSessionDirectionKeys(t *testing.T) {
	shared, serverPub, clientPub := bytes.Repeat([]byte{7}, 32), []byte("server"), []byte("client")
	cliSeal, cliOpen, err := sessionSealers(shared, serverPub, clientPub, dirClient, dirServer)
	if err != nil {
		t.Fatal(err)
	}
	srvSeal, srvOpen, err := sessionSealers(shared, serverPub, clientPub, dirServer, dirClient)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("row")
	up, down := cliSeal.seal(pt, 1), srvSeal.seal(pt, 1)
	const nonceSize = 12
	if !bytes.Equal(up[:nonceSize], down[:nonceSize]) {
		t.Fatalf("first nonces %x and %x differ; the check below would be vacuous", up[:nonceSize], down[:nonceSize])
	}
	if bytes.Equal(up, down) {
		t.Fatal("both directions sealed one plaintext to one ciphertext under one nonce")
	}
	if got, err := srvOpen.open(up, 1); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("server opening the client's message = %q, %v", got, err)
	}
	if got, err := cliOpen.open(down, 1); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("client opening the server's message = %q, %v", got, err)
	}
}
