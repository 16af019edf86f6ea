// Package sim implements the discrete-step, partially synchronous,
// crash-prone message-passing system of Section II of "The Universal Gossip
// Fighter" (IPPS 2022).
//
// # Execution model
//
// Time proceeds in global steps t = 1, 2, 3, …  Every process ρ has a local
// step time δ_ρ and a delivery time d_ρ, both measured in global steps and
// both rewritable online by an adversary. Process ρ takes a local step at
// the boundaries anchor_ρ + k·δ_ρ (k ≥ 1); the anchor starts at 0 and is
// reset whenever the adversary rewrites δ_ρ. At a local step the process
// first delivers every message that has arrived since its previous local
// step, then runs its protocol handler, which may emit sends; a message
// sent at step t by ρ arrives at step t + d_ρ (d_ρ read at send time).
//
// Crashed processes take no local steps and deliver nothing; messages they
// already sent still arrive. An adversary observes the system at the start
// of every step at which anything can happen and may crash up to F
// processes and rewrite any δ_ρ or d_ρ (Definition II.5).
//
// # Sleeping and quiescence
//
// A process that has nothing left to do reports itself asleep
// (Definition IV.2): it stops sending until a delivered message makes its
// protocol resume. A run ends at quiescence — every correct process asleep,
// no undelivered message bound for a correct process — or at the configured
// horizon, whichever comes first.
//
// # Determinism
//
// A run is a pure function of (Config, Seed). Every process, the adversary
// and the engine own independent deterministic random streams derived from
// the seed, so a run forked over shard lanes (Config.Workers > 1)
// produces outcomes and traces bit-identical to a one-lane run.
package sim

import "fmt"

// ProcID identifies a process; valid values are 0 … N-1. Because every
// process starts with exactly one unique gossip, ProcID doubles as the
// identifier of the gossip that process originated.
type ProcID int

// Step counts global steps. Step 0 is "before the execution starts";
// the first global step is 1.
type Step int64

// Payload is the protocol-defined content of a message.
//
// Payload values may be delivered to several recipients and are shared, not
// copied: implementations and receivers must treat a payload as immutable
// after it has been handed to Outbox.Send.
type Payload interface {
	// Kind returns a short stable label for the payload type, used in
	// traces and debugging output (for example "push" or "pull-req").
	Kind() string
}

// Message is a payload in transit between two processes.
type Message struct {
	From      ProcID
	To        ProcID
	SentAt    Step // global step at which the sender's local step emitted it
	DeliverAt Step // global step at which it arrives at the receiver
	Payload   Payload
}

// SendRecord is the adversary-visible record of one send event. It
// deliberately omits the payload: the adversaries of the paper react to
// who talks to whom and when, not to message contents.
type SendRecord struct {
	From      ProcID
	To        ProcID
	SentAt    Step
	DeliverAt Step
}

func (m Message) String() string {
	kind := "?"
	if m.Payload != nil {
		kind = m.Payload.Kind()
	}
	return fmt.Sprintf("%d->%d %s sent@%d arrive@%d", m.From, m.To, kind, m.SentAt, m.DeliverAt)
}
