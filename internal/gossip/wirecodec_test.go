package gossip

import (
	"errors"
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf/internal/live/wire"
	"github.com/ugf-sim/ugf/internal/sim"
)

// ears builds an EARS payload the way senders and the decoder do.
func ears(gLen int32, ver []int32) *earsPayload {
	pl := newEarsPayload(gLen, ver)
	return &pl
}

// TestWireCodecRoundTrip round-trips every protocol payload kind through
// its registered wire codec and through a full envelope encode/decode,
// asserting the decoded value is the exact concrete type (and value) the
// protocols' type switches match on.
func TestWireCodecRoundTrip(t *testing.T) {
	payloads := []sim.Payload{
		batchPayload{GLen: 0},
		batchPayload{GLen: 1},
		batchPayload{GLen: 1<<31 - 1},
		pullPayload{},
		singlePayload{G: 0},
		singlePayload{G: 12345},
		ears(0, []int32{}),
		ears(3, []int32{0, 2, 1}),
		ears(64, make([]int32, 256)),
		ears(1<<31-1, []int32{1<<31 - 1, 0, 7}),
		ears(1<<31-1, []int32{1<<31 - 1, 1<<31 - 1, 1<<31 - 1}), // Sum needs its 64 bits
	}
	for i, want := range payloads {
		kind := want.Kind()
		data, err := wire.EncodePayload(kind, want)
		if err != nil {
			t.Fatalf("payload %d (%s): encode: %v", i, kind, err)
		}
		got, err := wire.DecodePayload(kind, data)
		if err != nil {
			t.Fatalf("payload %d (%s): decode: %v", i, kind, err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Fatalf("payload %d (%s): decoded %T, want %T", i, kind, got, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("payload %d (%s): round trip:\n got  %#v\n want %#v", i, kind, got, want)
		}

		env := wire.Envelope{From: 1, To: 2, SentAt: 5, ArriveAt: 6, Seq: 9, Kind: kind, Payload: want}
		body, err := env.Encode()
		if err != nil {
			t.Fatalf("payload %d (%s): envelope encode: %v", i, kind, err)
		}
		dec, err := wire.DecodeEnvelope(body)
		if err != nil {
			t.Fatalf("payload %d (%s): envelope decode: %v", i, kind, err)
		}
		if !reflect.DeepEqual(dec.Payload, want) {
			t.Errorf("payload %d (%s): envelope round trip:\n got  %#v\n want %#v", i, kind, dec.Payload, want)
		}
	}
}

// TestWireCodecRejects pins the defensive paths: wrong concrete types on
// encode, malformed bytes on decode — always an error, never a panic or a
// huge allocation.
func TestWireCodecRejects(t *testing.T) {
	encodeCases := []struct {
		kind string
		pl   sim.Payload
	}{
		{"gossips", pullPayload{}},
		{"gossips", batchPayload{GLen: -1}},
		{"pull", batchPayload{}},
		{"gossip", pullPayload{}},
		{"gossip", singlePayload{G: -2}},
		{"ears", earsPayload{}}, // value, not pointer
		{"ears", ears(-1, nil)},
		{"ears", ears(1, []int32{-5})},
	}
	for _, tc := range encodeCases {
		if _, err := wire.EncodePayload(tc.kind, tc.pl); err == nil {
			t.Errorf("encode %s %#v: no error", tc.kind, tc.pl)
		}
	}

	decodeCases := []struct {
		kind string
		data []byte
	}{
		{"gossips", nil},                                        // missing GLen
		{"gossips", []byte{0x80}},                               // truncated varint
		{"gossips", []byte{0x01, 0x02}},                         // trailing bytes
		{"gossips", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}}, // > MaxInt32
		{"pull", []byte{0x00}},                                  // non-empty
		{"gossip", nil},
		{"gossip", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
		{"ears", nil},                                                    // missing GLen
		{"ears", []byte{0x01}},                                           // missing vector length
		{"ears", []byte{0x01, 0x05, 0x00}},                               // count exceeds remaining bytes
		{"ears", []byte{0x01, 0x01}},                                     // count 1, no entries
		{"ears", []byte{0x01, 0x01, 0x00, 0x00}},                         // trailing byte
		{"ears", []byte{0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}}, // entry > MaxInt32
	}
	for _, tc := range decodeCases {
		if _, err := wire.DecodePayload(tc.kind, tc.data); err == nil {
			t.Errorf("decode %s % x: no error", tc.kind, tc.data)
		}
	}
}

// TestWireCodecKindsRegistered pins that every payload kind the protocol
// registry can emit has a wire codec, so any registry protocol can run
// live.
func TestWireCodecKindsRegistered(t *testing.T) {
	want := []string{"ears", "gossip", "gossips", "pull"}
	have := make(map[string]bool)
	for _, k := range wire.RegisteredKinds() {
		have[k] = true
	}
	for _, k := range want {
		if !have[k] {
			t.Errorf("kind %q has no wire codec", k)
		}
	}
	if _, err := wire.EncodePayload("unregistered", batchPayload{}); !errors.Is(err, wire.ErrUnknownKind) {
		t.Errorf("unknown kind: got %v", err)
	}
}
