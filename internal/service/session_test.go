package service

import (
	"bytes"
	"errors"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// relayScripts play a relay between the two ends of a session. The relay
// forwards a begin frame declaring four rows and one chunk of four
// honestly sealed rows, or a begin frame declaring none, then the end
// frame, and keeps the framing valid, but it duplicates, reorders or
// reflects a row, or the sender sealed its stream under a begin frame that
// differs from the forwarded one: a lowered declaration (the tail
// dropped), a relabelled or retyped schema attribute, another contract, or
// — for a delivery — another resume geometry or a forged failure verdict.
// Only the associated data of the rows and of the end frame's tag can
// tell, so each lie must fail to open with sim.ErrTamper; the honest
// relays complete.
var relayScripts = []struct {
	name string
	// rows relays the one chunk of four rows; nil relays a stream
	// declaring none.
	rows func(sc *streamScript) [][]byte
	// sealed rewrites the begin frame the stream is sealed under; forward
	// rewrites the one forwarded. Nil leaves either as the sender wrote it.
	sealed, forward func(b beginFrame)
	honest          bool
	deliveryOnly    bool
}{
	{name: "honest", rows: sealFour, honest: true},
	{name: "honest without rows", honest: true},
	{name: "duplicate", rows: func(sc *streamScript) [][]byte {
		r := sc.seal(0, 3)
		return [][]byte{r[0], r[1], r[1], r[2]}
	}},
	{name: "reorder", rows: func(sc *streamScript) [][]byte {
		r := sc.seal(0, 4)
		return [][]byte{r[1], r[0], r[2], r[3]}
	}},
	{name: "reflect", rows: func(sc *streamScript) [][]byte {
		r := sc.seal(1, 4)
		return append([][]byte{sc.peer.sealer.seal(sc.cell(0), sc.bind)}, r...)
	}},
	{name: "truncate under a lowered declaration", rows: sealFour, sealed: func(b beginFrame) {
		switch b := b.(type) {
		case *uploadBeginMsg:
			b.DeclaredRows = 8
		case *resultBeginMsg:
			b.StreamRows = 8
		}
	}},
	{name: "relabel the schema", rows: sealFour, sealed: func(b beginFrame) {
		a := beginSchema(b).Attrs
		a[0].Name, a[1].Name = a[1].Name, a[0].Name
	}},
	{name: "retype the schema", rows: sealFour, sealed: func(b beginFrame) {
		beginSchema(b).Attrs[1].Type = relation.Float64
	}},
	{name: "change the contract ID", rows: sealFour, sealed: func(b beginFrame) {
		switch b := b.(type) {
		case *uploadBeginMsg:
			b.ContractID = "some-other-contract"
		case *resultBeginMsg:
			b.ContractID = "some-other-contract"
		}
	}},
	{name: "change the resume geometry", rows: sealFour, deliveryOnly: true, sealed: func(b beginFrame) {
		r := b.(*resultBeginMsg)
		r.StartChunk, r.TotalChunks = 1, 3
	}},
	{name: "relabel a stream without rows", forward: func(b beginFrame) {
		a := beginSchema(b).Attrs
		a[0].Name, a[1].Name = a[1].Name, a[0].Name
		if r, ok := b.(*resultBeginMsg); ok {
			r.TotalChunks = 7
		}
	}},
	{name: "forge the failure verdict", deliveryOnly: true, forward: func(b beginFrame) {
		r := b.(*resultBeginMsg)
		*r = resultBeginMsg{ContractID: r.ContractID, Err: "forged: the join failed"}
	}},
}

func sealFour(sc *streamScript) [][]byte { return sc.seal(0, 4) }

// beginSchema is the schema a begin frame carries, a fresh copy per frame.
func beginSchema(b beginFrame) *schemaWire {
	switch b := b.(type) {
	case *uploadBeginMsg:
		return &b.Schema
	case *resultBeginMsg:
		return &b.Schema
	}
	panic("unknown begin frame")
}

// TestSessionRelayTampering runs the relay scripts against both directions
// of a session: a provider's upload into T and T's delivery to a recipient.
func TestSessionRelayTampering(t *testing.T) {
	for _, d := range []struct {
		name  string
		start func(*testing.T) *streamScript
	}{{"upload", startUploadScript}, {"delivery", startDeliveryScript}} {
		for _, s := range relayScripts {
			if s.deliveryOnly && d.name != "delivery" {
				continue
			}
			t.Run(d.name+"/"+s.name, func(t *testing.T) {
				sc := d.start(t)
				declared := int64(4)
				if s.rows == nil {
					declared = 0
				}
				sent, sealed := sc.beginf(declared), sc.beginf(declared)
				if s.sealed != nil {
					s.sealed(sealed)
				}
				if s.forward != nil {
					s.forward(sent)
				}
				sc.relayBegin(sent, sealed)
				var ck chunker
				if s.rows != nil {
					sc.send(ck.frame(s.rows(sc)))
					if !s.honest {
						if err := sc.verdict(); !errors.Is(err, sim.ErrTamper) {
							t.Fatalf("verdict = %v, want sim.ErrTamper", err)
						}
						return
					}
					if a := sc.ack(); a.Err != "" {
						t.Fatalf("honest chunk refused: %s", a.Err)
					}
				}
				sc.send(sc.end(&ck, declared))
				err := sc.verdict()
				switch {
				case s.honest && err != nil:
					t.Fatalf("honest relay refused: %v", err)
				case !s.honest && !errors.Is(err, sim.ErrTamper):
					t.Fatalf("verdict = %v, want sim.ErrTamper", err)
				}
			})
		}
	}
}

// TestFetchResultConsumesChunkWhole: a chunk whose third row fails to open
// adds none of its rows to the fetch, so a resume with the same fetch
// cannot deliver the first two twice.
func TestFetchResultConsumesChunkWhole(t *testing.T) {
	sc := startDeliveryScript(t)
	sc.cell = func(i int) []byte {
		return append([]byte{1}, framingRel.Schema.MustEncode(framingRel.Rows[i])...) // a real oTuple
	}
	sc.begin(4)
	rows := sc.seal(0, 4)
	rows[2][len(rows[2])/2] ^= 1
	var ck chunker
	sc.send(ck.frame(rows))
	if err := sc.verdict(); !errors.Is(err, ErrResultFrame) || !errors.Is(err, sim.ErrTamper) {
		t.Fatalf("verdict = %v, want ErrResultFrame wrapping sim.ErrTamper", err)
	}
	if n := sc.fetch.Rows.Len(); n != 0 || sc.fetch.Chunks != 0 {
		t.Fatalf("failed chunk left %d rows in the fetch at chunk offset %d", n, sc.fetch.Chunks)
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
	bind := []byte("begin")
	up, down := cliSeal.seal(pt, bind), srvSeal.seal(pt, bind)
	const nonceSize = 12
	if !bytes.Equal(up[:nonceSize], down[:nonceSize]) {
		t.Fatalf("first nonces %x and %x differ; the check below would be vacuous", up[:nonceSize], down[:nonceSize])
	}
	if bytes.Equal(up, down) {
		t.Fatal("both directions sealed one plaintext to one ciphertext under one nonce")
	}
	if got, err := srvOpen.open(up, bind); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("server opening the client's message = %q, %v", got, err)
	}
	if got, err := cliOpen.open(down, bind); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("client opening the server's message = %q, %v", got, err)
	}
}
