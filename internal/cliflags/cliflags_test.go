package cliflags

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

func newSet(t *testing.T) (*Common, *flag.FlagSet) {
	t.Helper()
	var c Common
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	return &c, fs
}

// TestCanonicalSpellingsOnly: the hyphenated spellings bind their fields,
// and the run-together spellings retired with the deprecated aliases are
// unknown flags.
func TestCanonicalSpellingsOnly(t *testing.T) {
	c, fs := newSet(t)
	if err := fs.Parse([]string{"-stall-window", "100", "-trace-kinds", "send"}); err != nil {
		t.Fatal(err)
	}
	if c.StallWindow != 100 || c.TraceKinds != "send" {
		t.Errorf("canonical spellings not bound: %+v", c)
	}
	for _, args := range [][]string{{"-stallwindow", "200"}, {"-tracekinds", "crash"}} {
		_, fs := newSet(t)
		if err := fs.Parse(args); err == nil {
			t.Errorf("retired spelling %s still parses", args[0])
		}
	}
}

func TestValidate(t *testing.T) {
	c, fs := newSet(t)
	if err := fs.Parse([]string{"-stall-window", "-1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(false); err == nil {
		t.Error("negative stall window accepted")
	}

	c2, fs2 := newSet(t)
	if err := fs2.Parse([]string{"-trace-kinds", "send"}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Validate(false); err == nil {
		t.Error("-trace-kinds without -trace accepted")
	}
	if err := c2.Validate(true); err != nil {
		t.Errorf("-trace-kinds with -trace rejected: %v", err)
	}
}

func TestParseKindMask(t *testing.T) {
	if m, err := ParseKindMask(""); err != nil || m != 0 {
		t.Errorf("empty mask: %v, %v", m, err)
	}
	if _, err := ParseKindMask("send, crash"); err != nil {
		t.Errorf("valid kinds rejected: %v", err)
	}
	if _, err := ParseKindMask("zap"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestValidateLiveMode(t *testing.T) {
	parse := func(args ...string) *flag.FlagSet {
		t.Helper()
		c, fs := newSet(t)
		_ = c
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}

	if err := ValidateLiveMode(parse()); err != nil {
		t.Errorf("no flags set: %v", err)
	}
	// Sim-only values at their defaults are fine; only explicit flags
	// conflict.
	if err := ValidateLiveMode(parse("-stats")); err != nil {
		t.Errorf("unrelated flag rejected: %v", err)
	}

	err := ValidateLiveMode(parse("-shards", "2"))
	if err == nil {
		t.Fatal("-shards accepted in live mode")
	}
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("error %T is not a *ConflictError", err)
	}
	if conflict.Flag != "shards" || conflict.Mode != "-live" || conflict.Why == "" {
		t.Errorf("conflict fields: %+v", conflict)
	}
	if !strings.Contains(err.Error(), "-shards") || !strings.Contains(err.Error(), "-live") {
		t.Errorf("error text %q names neither flag nor mode", err)
	}
}
