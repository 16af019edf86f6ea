// Package cliflags defines the flags ugfsim and ugfbench share, so the
// two CLIs spell common knobs the same way and validate them with the
// same code.
//
// Multi-word flags are hyphenated (-trace-kinds, -stall-window). Flags
// whose types genuinely differ between the CLIs (-trace is a bool in
// ugfsim, an output directory in ugfbench) stay per-CLI.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/ugf-sim/ugf/internal/sim"
)

// Common holds the flag values shared by both CLIs. Register binds them;
// the zero value of every field is the flag's default.
type Common struct {
	Stats        bool   // -stats: print aggregated engine statistics
	TraceKinds   string // -trace-kinds: comma-separated trace kind filter
	Faults       string // -faults: link-fault plan overlay
	TopologySpec string // -topology: communication-graph topology
	StallWindow  int64  // -stall-window: events without progress before declaring a stall
	MaxEvents    int64  // -max-events: hard event cutoff per run
	Shards       int    // -shards: commit shards inside each run
}

// Register installs the shared flags on fs.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Stats, "stats", false, "print aggregated engine statistics")
	fs.StringVar(&c.Faults, "faults", "", "overlay a link-fault plan on every run, e.g. drop=0.1,dup=0.05,seed=7 (empty: no faults)")
	fs.StringVar(&c.TopologySpec, "topology", "", "communication-graph topology: complete|ring|k-regular,k=K|expander,k=K,seed=S|radio,k=K,seed=S (empty: complete)")
	fs.IntVar(&c.Shards, "shards", 0, "shard lanes each run may fork a step over (0 or 1: every step runs on the run's own goroutine; outcomes and traces identical)")
	fs.StringVar(&c.TraceKinds, "trace-kinds", "", "comma-separated trace kinds to keep when tracing (default: all): send,arrive,step,crash,sleep,wake,adversary,end,recover,drop")
	fs.Int64Var(&c.StallWindow, "stall-window", 0, "overlay a stall window: declare a stall after this many events without progress (0: off)")
	fs.Int64Var(&c.MaxEvents, "max-events", 0, "overlay a hard per-run event cutoff (0: none); pair with -stall-window on sparse topologies")
}

// Validate checks the shared values' ranges and cross-flag constraints.
// traceActive says whether the CLI's own -trace flag was set, for the
// "-trace-kinds requires -trace" rule.
func (c *Common) Validate(traceActive bool) error {
	if c.StallWindow < 0 {
		return fmt.Errorf("stall-window = %d, need ≥ 0", c.StallWindow)
	}
	if c.MaxEvents < 0 {
		return fmt.Errorf("max-events = %d, need ≥ 0", c.MaxEvents)
	}
	if c.Shards < 0 {
		return fmt.Errorf("shards = %d, need ≥ 0", c.Shards)
	}
	if c.TraceKinds != "" && !traceActive {
		return fmt.Errorf("-trace-kinds requires -trace")
	}
	// Overlay parses -faults and -topology: a bad value fails here, before
	// any run is planned.
	return c.Overlay(&sim.Config{})
}

// Overlay applies the shared run overlays to cfg, the one place both CLIs
// turn these flags into a configuration: -faults, -topology,
// -stall-window and -max-events fill the fields cfg leaves unset (an
// experiment that sweeps one of them keeps its own values), and -shards,
// when set, fixes every run's commit shards (sim.Config.Workers).
func (c *Common) Overlay(cfg *sim.Config) error {
	if cfg.Faults == nil {
		plan, err := sim.ParseFaultPlan(c.Faults)
		if err != nil {
			return err
		}
		cfg.Faults = plan
	}
	if cfg.Topology == nil {
		topo, err := sim.ParseTopology(c.TopologySpec)
		if err != nil {
			return err
		}
		cfg.Topology = topo
	}
	if cfg.StallWindow == 0 {
		cfg.StallWindow = c.StallWindow
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = c.MaxEvents
	}
	if c.Shards > 0 {
		cfg.Workers = c.Shards
	}
	return nil
}

// ConflictError reports a flag combination a CLI rejects, naming both
// sides so callers and tests can assert on the structure instead of the
// prose.
type ConflictError struct {
	Flag string // the rejected flag, without its dash
	Mode string // the mode it conflicts with, e.g. "-live"
	Why  string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("-%s conflicts with %s: %s", e.Flag, e.Mode, e.Why)
}

// liveSimOnly lists the flags that configure simulator machinery with no
// live-runtime counterpart. They are rejected rather than ignored: a
// command line that asks for commit shards or parallel runs and gets a
// serial live execution would silently measure the wrong thing.
var liveSimOnly = map[string]string{
	"shards":  "the live runtime has no sharded commit phase; its nodes are always concurrent",
	"workers": "live repetitions run serially, one networked system at a time",
}

// ValidateLiveMode rejects simulator-only flags that were explicitly set
// on the parsed fs alongside the live-transport mode. Call it after
// fs.Parse, only when -live was set; defaults are fine, only flags the
// command line actually named conflict.
func ValidateLiveMode(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if why, ok := liveSimOnly[f.Name]; ok && err == nil {
			err = &ConflictError{Flag: f.Name, Mode: "-live", Why: why}
		}
	})
	return err
}

// KindMask parses the -trace-kinds value into a kind mask; empty input
// means all kinds (mask 0).
func (c *Common) KindMask() (sim.KindMask, error) {
	return ParseKindMask(c.TraceKinds)
}

// ParseKindMask converts a comma-separated trace-kind list into a kind
// mask; empty input means all kinds (mask 0).
func ParseKindMask(s string) (sim.KindMask, error) {
	var mask sim.KindMask
	if s == "" {
		return mask, nil
	}
	for _, name := range strings.Split(s, ",") {
		k, ok := sim.ParseTraceKind(strings.TrimSpace(name))
		if !ok {
			return 0, fmt.Errorf("unknown trace kind %q (have send, arrive, step, crash, sleep, wake, adversary, end, recover, drop)", name)
		}
		mask |= sim.MaskOf(k)
	}
	return mask, nil
}

// PrintStats renders the body of the -stats block both CLIs print under
// their own header line: a run's engine statistics, or an experiment's
// aggregated over its runs.
func PrintStats(w io.Writer, s *sim.Stats) {
	fmt.Fprintf(w, "  scheduler: %d events, %d heap pushes, %d pops, %d active steps\n",
		s.Events, s.HeapPushes, s.HeapPops, s.ActiveSteps)
	fmt.Fprintf(w, "  messages:  %d sent, %d delivered, %d dropped at crashed procs, %d omitted%s\n",
		s.Sends, s.Deliveries, s.DroppedCrashed, s.OmittedSends, kindBreakdown(s.MessagesByKind))
	if s.DroppedLink != 0 || s.DupDeliveries != 0 || s.CorruptDrops != 0 {
		fmt.Fprintf(w, "  faults:    %d dropped on links, %d duplicate deliveries, %d corrupt discards\n",
			s.DroppedLink, s.DupDeliveries, s.CorruptDrops)
	}
	if s.BlockedSends != 0 || s.TopologyRewrites != 0 {
		fmt.Fprintf(w, "  topology:  %d sends blocked off-graph, %d edge rewrites\n",
			s.BlockedSends, s.TopologyRewrites)
	}
	fmt.Fprintf(w, "  pressure:  max %d in flight, max %d pending in mailboxes\n",
		s.MaxInFlight, s.MaxPending)
	fmt.Fprintf(w, "  lifecycle: %d local steps, %d sleeps, %d wakes, %d crashes, %d recoveries\n",
		s.LocalSteps, s.Sleeps, s.Wakes, s.Crashes, s.Recoveries)
	fmt.Fprintf(w, "  adversary: %d delta / %d delay / %d omission / %d link rewrites\n",
		s.DeltaRewrites, s.DelayRewrites, s.OmitRewrites, s.LinkRewrites)
	fmt.Fprintf(w, "  wall time: init %v, run %v, finalize %v\n",
		s.Wall.Init.Round(time.Microsecond), s.Wall.Run.Round(time.Microsecond),
		s.Wall.Finalize.Round(time.Microsecond))
	if len(s.Wall.ShardCommit) > 0 {
		fmt.Fprintf(w, "  shards:    %d commit lane(s) %s, merge %v, imbalance ×%.2f\n",
			len(s.Wall.ShardCommit), shardWalls(s.Wall.ShardCommit),
			s.Wall.ShardMerge.Round(time.Microsecond), s.Wall.ShardImbalance)
	}
}

// shardWalls renders the per-shard commit walls as "[1.2ms 1.3ms …]".
func shardWalls(ws []time.Duration) string {
	parts := make([]string, len(ws))
	for i, d := range ws {
		parts[i] = d.Round(time.Microsecond).String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// kindBreakdown renders MessagesByKind as " (data×12, pull×7)", or "".
func kindBreakdown(kinds []sim.KindCount) string {
	if len(kinds) == 0 {
		return ""
	}
	parts := make([]string, len(kinds))
	for i, kc := range kinds {
		parts[i] = fmt.Sprintf("%s×%d", kc.Kind, kc.Count)
	}
	return " (" + strings.Join(parts, ", ") + ")"
}
