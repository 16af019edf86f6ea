package sim

import "fmt"

// TraceKind classifies trace events.
type TraceKind uint8

// Trace event kinds emitted by the engine.
const (
	TraceSend      TraceKind = iota // Proc sent a message to Other
	TraceArrive                     // a message from Other arrived at Proc
	TraceLocalStep                  // Proc executed a local step
	TraceCrash                      // the adversary crashed Proc
	TraceSleep                      // Proc fell asleep
	TraceWake                       // Proc resumed after sleeping
	TraceAdversary                  // the adversary rewrote Proc's delta/delay (Note says which)
	TraceEnd                        // the run ended (Note: "quiescence", "stalled", "horizon" or "cancelled")
	TraceRecover                    // the adversary recovered crashed Proc (Note: "retain" or "amnesia")
	TraceDrop                       // a message from Other to Proc was dropped (Note says why)

	// traceKindCount is the number of trace kinds; keep it last.
	traceKindCount
)

// NumTraceKinds is the number of distinct TraceKind values.
const NumTraceKinds = int(traceKindCount)

var traceKindNames = [...]string{
	TraceSend:      "send",
	TraceArrive:    "arrive",
	TraceLocalStep: "step",
	TraceCrash:     "crash",
	TraceSleep:     "sleep",
	TraceWake:      "wake",
	TraceAdversary: "adversary",
	TraceEnd:       "end",
	TraceRecover:   "recover",
	TraceDrop:      "drop",
}

func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseTraceKind resolves a kind name ("send", "arrive", "step", "crash",
// "sleep", "wake", "adversary", "end", "recover", "drop") to its
// TraceKind. It is the inverse of TraceKind.String, for CLI filter flags.
func ParseTraceKind(name string) (TraceKind, bool) {
	for k, n := range traceKindNames {
		if n == name {
			return TraceKind(k), true
		}
	}
	return 0, false
}

// IsMessage reports whether the kind describes message traffic
// (TraceSend, TraceArrive, TraceDrop).
func (k TraceKind) IsMessage() bool {
	return k == TraceSend || k == TraceArrive || k == TraceDrop
}

// IsLifecycle reports whether the kind describes a process lifecycle
// transition (TraceSleep, TraceWake, TraceCrash, TraceRecover).
func (k TraceKind) IsLifecycle() bool {
	return k == TraceSleep || k == TraceWake || k == TraceCrash || k == TraceRecover
}

// IsAdversarial reports whether the kind is an adversary intervention
// (TraceCrash, TraceRecover, TraceAdversary).
func (k TraceKind) IsAdversarial() bool {
	return k == TraceCrash || k == TraceRecover || k == TraceAdversary
}

// KindMask is a bit set of TraceKinds, used by trace filters.
type KindMask uint16

// AllKinds is the mask accepting every trace kind.
const AllKinds = KindMask(1)<<traceKindCount - 1

// MaskOf builds a mask from the given kinds.
func MaskOf(kinds ...TraceKind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether the mask contains k.
func (m KindMask) Has(k TraceKind) bool { return m&(1<<k) != 0 }

// String renders the mask as a comma-separated kind list.
func (m KindMask) String() string {
	if m == AllKinds {
		return "all"
	}
	s := ""
	for k := TraceKind(0); k < traceKindCount; k++ {
		if m.Has(k) {
			if s != "" {
				s += ","
			}
			s += k.String()
		}
	}
	return s
}

// TraceEvent is one observable engine event. Payload is set only for
// TraceSend and TraceArrive; Other is the peer process when meaningful
// and -1 otherwise.
type TraceEvent struct {
	Kind    TraceKind
	Step    Step
	Proc    ProcID
	Other   ProcID
	Payload Payload
	Note    string
}

func (ev TraceEvent) String() string {
	switch ev.Kind {
	case TraceSend, TraceArrive, TraceDrop:
		kind := "?"
		if ev.Payload != nil {
			kind = ev.Payload.Kind()
		}
		return fmt.Sprintf("t=%d %s %d<->%d %s", ev.Step, ev.Kind, ev.Proc, ev.Other, kind)
	case TraceAdversary, TraceEnd, TraceRecover:
		return fmt.Sprintf("t=%d %s p=%d %s", ev.Step, ev.Kind, ev.Proc, ev.Note)
	default:
		return fmt.Sprintf("t=%d %s p=%d", ev.Step, ev.Kind, ev.Proc)
	}
}

// TraceSink receives engine events. Implementations must be fast; the
// engine calls Event synchronously from the stepping loop — only ever from
// the goroutine that called Run, whatever Config.Workers is, so a sink
// needs no locking of its own. A nil sink in Config disables tracing
// entirely (zero overhead).
type TraceSink interface {
	Event(ev TraceEvent)
}

// Recorder is a TraceSink that appends every event to memory. It is meant
// for tests and for inspecting small runs programmatically; recording a
// large run allocates proportionally to its event count. For anything
// beyond a few million events, stream to disk instead with the JSONL sink
// of the sim/trace package (re-exported by the ugf facade), optionally
// behind a Filter.
type Recorder struct {
	Events []TraceEvent

	// counts is maintained by Event so Count is O(1), not O(events).
	counts [traceKindCount]int
}

// Event implements TraceSink.
func (r *Recorder) Event(ev TraceEvent) {
	r.Events = append(r.Events, ev)
	if int(ev.Kind) < len(r.counts) {
		r.counts[ev.Kind]++
	}
}

// Count returns the number of events of the given kind.
func (r *Recorder) Count(kind TraceKind) int {
	if int(kind) >= len(r.counts) {
		return 0
	}
	return r.counts[kind]
}

// FuncSink adapts a function to the TraceSink interface.
type FuncSink func(ev TraceEvent)

// Event implements TraceSink.
func (f FuncSink) Event(ev TraceEvent) { f(ev) }
