package main

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"time"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// liveCase is one live cluster run. The step group takes many steps with
// few frames each, so the two-phase barrier dominates; the frame group
// moves thousands of frames in at most ten steps, so codec and transport
// dominate.
type liveCase struct {
	protocol string
	faults   bool // drop=0.3,dup=0.05,corrupt=0.02 plus a stall window
}

var (
	liveStepCases  = []liveCase{{"round-robin", false}, {"ears", true}, {"push", false}}
	liveFrameCases = []liveCase{{"sears", false}, {"broadcast", false}, {"push-pull", false}}
)

func (c liveCase) config(n int, seed uint64) (sim.Config, error) {
	p, ok := gossip.ByName(c.protocol)
	if !ok {
		return sim.Config{}, fmt.Errorf("unknown protocol %q", c.protocol)
	}
	cfg := sim.Config{N: n, Protocol: p, Seed: seed}
	if c.faults {
		cfg.Faults = &sim.FaultPlan{Seed: xrand.Derive(seed, 1), Drop: 0.3, Duplicate: 0.05, Corrupt: 0.02}
		cfg.StallWindow = 1 << 16
	}
	return cfg, nil
}

// runLive is live.Run under a deadline. A run that is still going when it
// expires has its transport closed, which unblocks every pending send, and
// is reported as an error; its goroutines then wind down on their own.
func runLive(cfg live.Config, deadline time.Duration) (sim.Outcome, error) {
	done := make(chan sim.Outcome, 1) // filled before the call returns
	err := withDeadline(deadline, fmt.Sprintf("live.Run (%s, N=%d)", cfg.Protocol.Name(), cfg.N), func() error {
		o, err := live.Run(cfg)
		done <- o
		return err
	})
	if errors.Is(err, errDeadline) {
		if cfg.Transport != nil {
			cfg.Transport.Close()
		}
		return sim.Outcome{}, err
	}
	return <-done, err
}

// fdsNeeded is what the TCP transport can hold open at once in one run:
// a listener per node and both ends of every directed link, twice over so
// that the previous run's sockets may still be closing.
func fdsNeeded(n int) uint64 { return uint64(4*n*(n-1) + 2*n + 64) }

// checkFDs fails before a TCP run can wedge on EMFILE: it raises the soft
// descriptor limit to the hard one if that is what it takes.
func checkFDs(n int) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("getrlimit: %w", err)
	}
	need := fdsNeeded(n)
	if lim.Cur >= need {
		return nil
	}
	if lim.Max >= need {
		lim.Cur = lim.Max
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil {
			return nil
		}
	}
	return fmt.Errorf("the TCP leg at N=%d needs %d file descriptors, ulimit -n allows %d (hard %d)", n, need, lim.Cur, lim.Max)
}

// liveStats is what one pass leaves for the per-layer metrics.
type liveStats struct {
	steps, sends       int64         // of the step group and of the frame group
	stepWall, sendWall time.Duration // wall of each group
	simWall            time.Duration // the oracle's sim.Run on the same configs
}

// wrapLive lets the traced run decorate a live config; done is called when
// the run has ended. The untraced run passes nil.
type wrapLive func(cfg live.Config, tcp bool) (live.Config, func())

// livePass runs both groups once on one transport (loopback TCP with a
// fresh TCPTransport per run, or the default channel transport), and holds
// every outcome to the simulator's on the same config.
func (b *bench) livePass(r int, sz sizes, tcp, measured bool, wrap wrapLive) (st liveStats) {
	kind := "chan"
	if tcp {
		kind = "tcp"
	}
	var hashes []string
	group := func(g uint64, cases []liveCase) (steps, sends int64, wall time.Duration) {
		if sz.liveCases > 0 {
			cases = cases[:sz.liveCases]
		}
		for i, c := range cases {
			what := fmt.Sprintf("live %s pass %d %s", kind, r, c.protocol)
			b.ops(2)
			simCfg, err := c.config(sz.liveN, xrand.Derive(b.seed, legLive, uint64(r), g, uint64(i)))
			if err != nil {
				b.failf("%s: %v", what, err)
				continue
			}
			cfg, err := live.FromSimConfig(simCfg)
			if err != nil {
				b.failf("%s: %v", what, err)
				continue
			}
			t0 := time.Now()
			if tcp {
				if cfg.Transport, err = live.NewTCPTransport(sz.liveN); err != nil {
					b.failf("%s: %v", what, err)
					continue
				}
			}
			done := func() {}
			if wrap != nil {
				cfg, done = wrap(cfg, tcp)
			}
			o, err := runLive(cfg, liveDeadline)
			wall += time.Since(t0)
			done()
			if err != nil {
				b.failf("%s: %v", what, err)
				continue
			}
			b.checkOutcome(what, o)
			steps += o.Stats.ActiveSteps
			sends += o.Stats.Sends
			hashes = append(hashes, spec.OutcomeHash(o))

			t0 = time.Now()
			want, err := sim.Run(simCfg)
			st.simWall += time.Since(t0)
			if err != nil {
				b.failf("%s: oracle: %v", what, err)
			} else if diffs := simtest.DiffOutcomes(o, want); len(diffs) != 0 {
				b.failf("%s: diverges from sim: %s", what, strings.Join(diffs, "; "))
			}
		}
		return
	}
	var frameSteps, stepSends int64
	st.steps, stepSends, st.stepWall = group(0, liveStepCases)
	frameSteps, st.sends, st.sendWall = group(1, liveFrameCases)
	if measured && st.steps > 0 && st.sends > 0 {
		b.record("live_steps_per_s_"+kind, float64(st.steps)/st.stepWall.Seconds())
		b.record("live_msgs_per_s_"+kind, float64(st.sends)/st.sendWall.Seconds())
	}
	if r == 0 {
		b.pin("live."+kind, hashes, map[string]int64{"runs": int64(len(hashes)),
			"steps": st.steps + frameSteps, "sends": st.sends + stepSends})
	}
	return st
}
