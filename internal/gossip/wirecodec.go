package gossip

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/ugf-sim/ugf/internal/live/wire"
	"github.com/ugf-sim/ugf/internal/sim"
)

// Wire codecs for the protocols' payload kinds, registered at package
// init so any program that links the protocol zoo can run it on the live
// transport (internal/live). The payload types are unexported on purpose —
// the codecs live here, next to the types, so decoding yields the exact
// concrete types the protocols' type switches match on: batchPayload and
// pullPayload and singlePayload by value, earsPayload by pointer (ears.go
// sends *earsPayload and merge asserts it back).
//
// Encodings are minimal varint forms of the knowledge-length compression
// the payloads already use in memory (gossip.go): a batch is its sender's
// log length, an EARS payload its log length plus the N-entry version
// vector. Decoders are defensive: arbitrary bytes return errors, never
// panic, and never allocate proportionally to unvalidated counts
// (FuzzWireCodec exercises them through the envelope decoder).

func init() {
	wire.RegisterPayload(wire.PayloadCodec{
		Kind:   batchPayload{}.Kind(),
		Encode: encodeBatch,
		Decode: decodeBatch,
	})
	wire.RegisterPayload(wire.PayloadCodec{
		Kind:   pullPayload{}.Kind(),
		Encode: encodePull,
		Decode: decodePull,
	})
	wire.RegisterPayload(wire.PayloadCodec{
		Kind:   singlePayload{}.Kind(),
		Encode: encodeSingle,
		Decode: decodeSingle,
	})
	wire.RegisterPayload(wire.PayloadCodec{
		Kind:   earsPayload{}.Kind(),
		Encode: encodeEars,
		Decode: decodeEars,
	})
}

func encodeBatch(dst []byte, pl sim.Payload) ([]byte, error) {
	b, ok := pl.(batchPayload)
	if !ok {
		return nil, fmt.Errorf("gossip: encode %q: payload is %T", batchPayload{}.Kind(), pl)
	}
	if b.GLen < 0 {
		return nil, fmt.Errorf("gossip: encode %q: negative GLen %d", b.Kind(), b.GLen)
	}
	return binary.AppendUvarint(dst, uint64(b.GLen)), nil
}

func decodeBatch(data []byte) (sim.Payload, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 || n != len(data) {
		return nil, fmt.Errorf("gossip: decode %q: malformed GLen", batchPayload{}.Kind())
	}
	if v > math.MaxInt32 {
		return nil, fmt.Errorf("gossip: decode %q: GLen %d out of range", batchPayload{}.Kind(), v)
	}
	return batchPayload{GLen: int32(v)}, nil
}

func encodePull(dst []byte, pl sim.Payload) ([]byte, error) {
	if _, ok := pl.(pullPayload); !ok {
		return nil, fmt.Errorf("gossip: encode %q: payload is %T", pullPayload{}.Kind(), pl)
	}
	return dst, nil
}

func decodePull(data []byte) (sim.Payload, error) {
	if len(data) != 0 {
		return nil, fmt.Errorf("gossip: decode %q: want empty payload, got %d bytes", pullPayload{}.Kind(), len(data))
	}
	return pullPayload{}, nil
}

func encodeSingle(dst []byte, pl sim.Payload) ([]byte, error) {
	s, ok := pl.(singlePayload)
	if !ok {
		return nil, fmt.Errorf("gossip: encode %q: payload is %T", singlePayload{}.Kind(), pl)
	}
	if s.G < 0 {
		return nil, fmt.Errorf("gossip: encode %q: negative gossip id %d", s.Kind(), s.G)
	}
	return binary.AppendUvarint(dst, uint64(s.G)), nil
}

func decodeSingle(data []byte) (sim.Payload, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 || n != len(data) {
		return nil, fmt.Errorf("gossip: decode %q: malformed gossip id", singlePayload{}.Kind())
	}
	if v > math.MaxInt32 {
		return nil, fmt.Errorf("gossip: decode %q: gossip id %d out of range", singlePayload{}.Kind(), v)
	}
	return singlePayload{G: sim.ProcID(v)}, nil
}

func encodeEars(dst []byte, pl sim.Payload) ([]byte, error) {
	e, ok := pl.(*earsPayload)
	if !ok {
		return nil, fmt.Errorf("gossip: encode %q: payload is %T", earsPayload{}.Kind(), pl)
	}
	if e.GLen < 0 {
		return nil, fmt.Errorf("gossip: encode %q: negative GLen %d", e.Kind(), e.GLen)
	}
	dst = binary.AppendUvarint(dst, uint64(e.GLen))
	dst = binary.AppendUvarint(dst, uint64(len(e.Ver)))
	for _, v := range e.Ver {
		if v < 0 {
			return nil, fmt.Errorf("gossip: encode %q: negative version %d", e.Kind(), v)
		}
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst, nil
}

func decodeEars(data []byte) (sim.Payload, error) {
	kind := earsPayload{}.Kind()
	glen, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("gossip: decode %q: malformed GLen", kind)
	}
	if glen > math.MaxInt32 {
		return nil, fmt.Errorf("gossip: decode %q: GLen %d out of range", kind, glen)
	}
	data = data[n:]
	cnt, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("gossip: decode %q: malformed vector length", kind)
	}
	data = data[n:]
	// Each vector entry costs at least one byte, so a count beyond the
	// remaining bytes is malformed — reject before allocating for it.
	if cnt > uint64(len(data)) {
		return nil, fmt.Errorf("gossip: decode %q: vector length %d exceeds %d payload bytes", kind, cnt, len(data))
	}
	ver := make([]int32, cnt)
	for i := range ver {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("gossip: decode %q: malformed version %d", kind, i)
		}
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("gossip: decode %q: version %d out of range", kind, v)
		}
		ver[i] = int32(v)
		data = data[n:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("gossip: decode %q: %d trailing bytes", kind, len(data))
	}
	pl := newEarsPayload(int32(glen), ver)
	return &pl, nil
}
