package wire_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf/internal/live/wire"

	_ "github.com/ugf-sim/ugf/internal/gossip" // register the real protocol payload codecs
)

// seedBodies builds well-formed encoded envelope bodies for every
// registered protocol payload kind, by decoding hand-written payload
// bytes through the registered codecs and re-encoding full envelopes.
func seedBodies(tb testing.TB) [][]byte {
	tb.Helper()
	payloads := []struct {
		kind string
		data []byte
	}{
		{"gossips", []byte{0x05}},
		{"pull", nil},
		{"gossip", []byte{0x03}},
		{"ears", []byte{0x02, 0x02, 0x01, 0x00}},
		// Two entries of MaxInt32: the sum the decoder derives beside the
		// vector (never on the wire) must survive the re-encode round trip
		// past 32 bits.
		{"ears", []byte{0x02, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x07, 0xFF, 0xFF, 0xFF, 0xFF, 0x07}},
	}
	var bodies [][]byte
	for _, p := range payloads {
		kind, data := p.kind, p.data
		pl, err := wire.DecodePayload(kind, data)
		if err != nil {
			tb.Fatalf("seed payload %s: %v", kind, err)
		}
		env := wire.Envelope{From: 1, To: 2, SentAt: 3, ArriveAt: 4, Seq: 5, Kind: kind, Payload: pl}
		body, err := env.Encode()
		if err != nil {
			tb.Fatalf("seed envelope %s: %v", kind, err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// FuzzWireCodec feeds arbitrary bytes through the frame parser and
// envelope decoder. Invariants:
//   - no input ever panics;
//   - a fully successful decode re-encodes to a body that decodes back
//     to an identical envelope (round-trip stability);
//   - a payload-checksum failure still yields an addressable header.
func FuzzWireCodec(f *testing.F) {
	for _, body := range seedBodies(f) {
		f.Add(wire.AppendFrame(nil, body))
		f.Add(body)
		corrupted := append([]byte(nil), body...)
		if err := wire.CorruptBody(corrupted, 9); err == nil {
			f.Add(corrupted)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0xD7})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Treat the input as a framed message when the prefix parses,
		// otherwise decode it directly as a bare body. Both paths must
		// be panic-free.
		body, err := wire.ParseFrame(data)
		if err != nil {
			body = data
		}
		env, err := wire.DecodeEnvelope(body)
		if err != nil {
			if errors.Is(err, wire.ErrPayloadChecksum) {
				// Detected corruption keeps the routing header but must
				// never surface a payload value.
				if env.Payload != nil {
					t.Fatalf("payload survived checksum failure: %+v", env)
				}
			}
			return
		}
		body2, err := env.Encode()
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v (%+v)", err, env)
		}
		env2, err := wire.DecodeEnvelope(body2)
		if err != nil {
			t.Fatalf("re-encoded body failed to decode: %v", err)
		}
		if !reflect.DeepEqual(env, env2) {
			t.Fatalf("round trip drift:\n first  %+v\n second %+v", env, env2)
		}
	})
}
