package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/ugf-sim/ugf/internal/xrand"
)

// Link-fault injection.
//
// A FaultPlan describes a lossy network: every message that survives the
// crash/omission/link checks of the send path rolls one deterministic coin
// that decides whether the network drops it, duplicates its delivery, or
// corrupts it in transit. The roll is a pure hash of (plan seed, sender,
// receiver, send step, sender sequence number) — no generator state is
// consumed — so every shard lane and the naive oracle reach the identical
// verdict for the identical send without sharing a stream. That is what
// lets faults ride through forked commits untouched: lanes roll
// independently and still agree bit for bit with a one-lane run.
//
// Fault semantics, fixed across engine and oracle:
//
//   - Drop: the send counts in M(O) and the send log, but never enters the
//     calendar (Stats.DroppedLink).
//   - Duplicate: the network delivers the message twice at the same step;
//     the extra copy is flagged so stats (Stats.DupDeliveries) and traces
//     distinguish it. Both copies count as Deliveries.
//   - Corrupt: the message travels the network and occupies an in-flight
//     slot for its full delay, but the receiver detects the corruption at
//     delivery and discards it without reading it (the checksum model:
//     corruption is detected loss, never a forged payload —
//     Stats.CorruptDrops). Protocols never observe a corrupted payload.

// LinkFault is the verdict of one FaultPlan roll.
type LinkFault uint8

const (
	// FaultNone delivers the message normally.
	FaultNone LinkFault = iota
	// FaultDrop loses the message in the network.
	FaultDrop
	// FaultDuplicate delivers the message twice.
	FaultDuplicate
	// FaultCorrupt delivers a detectably-corrupted message, discarded by
	// the receiver.
	FaultCorrupt
)

// seedDomainFault tags the fault plan's hash rolls in the plan-seed
// derivation chain, mirroring the engine's seedDomainProc/seedDomainAdv.
const seedDomainFault uint64 = 3

// Exported derivation domains for transport-level interposers. The live
// runtime's network interposer (internal/live) rolls its verdicts from the
// same splitmix chain the fault plan uses, each family of decisions under
// its own domain tag so live-only injections (extra delay, per-step
// omission, crash schedules) can never collide with — or perturb — the
// link-fault rolls the simulator shares. DomainLinkFault is the fault
// plan's own tag, exported so alternative runtimes can document that
// FaultPlan.Roll and their rolls hang off one derivation tree.
const (
	DomainLinkFault uint64 = seedDomainFault
	DomainLiveDelay uint64 = 5
	DomainLiveOmit  uint64 = 6
	DomainLiveCrash uint64 = 7
)

// FaultRoll is the exported fault-hash seam: the deterministic uniform
// [0, 1) variate behind FaultPlan.Roll, as a pure function of (seed,
// domain, path). Every transport — the sim engine's commit lanes, the
// naive oracle, and the live runtime's interposer — derives its verdicts
// through this one function, which is what makes a fault pattern
// reproducible across execution substrates: same seed, same domain, same
// path, same verdict, no generator state anywhere.
func FaultRoll(seed, domain uint64, path ...uint64) float64 {
	args := make([]uint64, 0, 8)
	args = append(args, domain)
	args = append(args, path...)
	u := xrand.Derive(seed, args...)
	return float64(u>>11) / (1 << 53)
}

// FaultPlan is a deterministic per-link fault model (Config.Faults).
// Probabilities are per message; they must be non-negative and sum to at
// most 1. The zero plan injects nothing.
type FaultPlan struct {
	// Seed drives the per-message rolls. Two runs with the same Config
	// (including the same plan seed) see the identical fault pattern;
	// changing only Seed here re-rolls the faults without touching any
	// protocol or adversary randomness.
	Seed uint64
	// Drop is the probability a message is lost in the network.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Corrupt is the probability a message is corrupted in transit and
	// discarded at delivery.
	Corrupt float64
}

// Validate reports whether the plan's probabilities are well-formed.
func (fp *FaultPlan) Validate() error {
	switch {
	case math.IsNaN(fp.Drop) || math.IsNaN(fp.Duplicate) || math.IsNaN(fp.Corrupt):
		// NaN slips through ordered comparisons (every one is false), so it
		// would validate, never fire, and break String round-trips.
		return fmt.Errorf("sim: FaultPlan probabilities must not be NaN (drop=%v dup=%v corrupt=%v)",
			fp.Drop, fp.Duplicate, fp.Corrupt)
	case fp.Drop < 0 || fp.Duplicate < 0 || fp.Corrupt < 0:
		return fmt.Errorf("sim: FaultPlan probabilities must be ≥ 0 (drop=%v dup=%v corrupt=%v)",
			fp.Drop, fp.Duplicate, fp.Corrupt)
	case fp.Drop+fp.Duplicate+fp.Corrupt > 1:
		return fmt.Errorf("sim: FaultPlan probabilities sum to %v > 1",
			fp.Drop+fp.Duplicate+fp.Corrupt)
	}
	return nil
}

// Active reports whether the plan can ever inject a fault. A nil or
// all-zero plan is inactive, and engines skip the per-send roll entirely.
func (fp *FaultPlan) Active() bool {
	return fp != nil && (fp.Drop > 0 || fp.Duplicate > 0 || fp.Corrupt > 0)
}

// Roll returns the plan's verdict for one send: message number seq from
// from to to, sent at step sentAt. seq is the sender's post-increment send
// count, which makes the roll unique per message even when a process sends
// the same peer twice in one step. Roll is a pure function — callers on
// concurrent shard lanes may invoke it freely.
func (fp *FaultPlan) Roll(from, to ProcID, sentAt Step, seq int64) LinkFault {
	// The variate comes from the exported FaultRoll seam so the live
	// runtime's interposer, rolling the same (seed, domain, path), reaches
	// the identical verdict for the identical send.
	x := FaultRoll(fp.Seed, seedDomainFault,
		uint64(from), uint64(to), uint64(sentAt), uint64(seq))
	switch {
	case x < fp.Drop:
		return FaultDrop
	case x < fp.Drop+fp.Duplicate:
		return FaultDuplicate
	case x < fp.Drop+fp.Duplicate+fp.Corrupt:
		return FaultCorrupt
	}
	return FaultNone
}

// String renders the plan in the form ParseFaultPlan accepts.
func (fp *FaultPlan) String() string {
	return fmt.Sprintf("drop=%v,dup=%v,corrupt=%v,seed=%d",
		fp.Drop, fp.Duplicate, fp.Corrupt, fp.Seed)
}

// ParseFaultPlan parses a comma-separated fault spec such as
// "drop=0.1,dup=0.05,corrupt=0.01,seed=7". Every key is optional; unknown
// keys and malformed values are errors. An empty spec yields a nil plan
// (no faults).
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	fp := &FaultPlan{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("sim: fault spec %q: want key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed":
			u, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("sim: fault spec seed %q: %v", val, err)
			}
			fp.Seed = u
		case "drop", "dup", "corrupt":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("sim: fault spec %s %q: %v", key, val, err)
			}
			switch key {
			case "drop":
				fp.Drop = f
			case "dup":
				fp.Duplicate = f
			case "corrupt":
				fp.Corrupt = f
			}
		default:
			return nil, fmt.Errorf("sim: fault spec: unknown key %q", key)
		}
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	return fp, nil
}

// Packed calendar refs (engine.payloadVal/releaseRef) reserve two high
// bits as per-copy fault markers: the duplicate bit flags the extra copy
// of a duplicated delivery, the corrupt bit a message discarded at
// delivery. Table indexes top out at maxShardLanes+1, far below bit 32,
// so the markers never collide with the (table, slot) packing. Every ref
// consumer masks them off before resolving.
const (
	refCorruptBit int64 = 1 << 61
	refDupBit     int64 = 1 << 62
	refFaultMask  int64 = refCorruptBit | refDupBit
)

// linkKey packs a directed link (from, to) into the linkDown set's key.
func linkKey(from, to ProcID) int64 {
	return int64(from)<<32 | int64(to)
}
