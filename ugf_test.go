package ugf_test

import (
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf"
)

func TestFacadeRun(t *testing.T) {
	o, err := ugf.Run(ugf.Config{
		N: 30, F: 9,
		Protocol:  ugf.PushPull{},
		Adversary: ugf.UGF{FixedK: 1, FixedL: 1},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.N != 30 || o.Adversary != "ugf" {
		t.Fatalf("unexpected outcome: %+v", o)
	}
	if o.Strategy == "" {
		t.Error("UGF outcome missing strategy label")
	}
}

func TestProtocolRegistryRoundTrip(t *testing.T) {
	names := ugf.ProtocolNames()
	if len(names) < 7 {
		t.Fatalf("only %d protocols registered: %v", len(names), names)
	}
	for _, name := range names {
		p, ok := ugf.ProtocolByName(name)
		if !ok {
			t.Fatalf("%q not found", name)
		}
		if p.Name() != name {
			t.Errorf("%q maps to %q", name, p.Name())
		}
	}
	if _, ok := ugf.ProtocolByName("bogus"); ok {
		t.Error("bogus protocol found")
	}
}

func TestAdversaryRegistry(t *testing.T) {
	for _, name := range ugf.AdversaryNames() {
		adv, ok := ugf.AdversaryByName(name)
		if !ok {
			t.Fatalf("%q not found", name)
		}
		if name == "none" {
			if adv != nil {
				t.Error("\"none\" must map to nil")
			}
			continue
		}
		if adv == nil {
			t.Fatalf("%q is nil", name)
		}
		// Every named adversary must drive a run end to end.
		o, err := ugf.Run(ugf.Config{
			N: 20, F: 6, Protocol: ugf.EARS{}, Adversary: adv, Seed: 3,
			MaxEvents: 10_000_000,
		})
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if o.HorizonHit {
			t.Errorf("%q: run cut off", name)
		}
	}
	if _, ok := ugf.AdversaryByName("bogus"); ok {
		t.Error("bogus adversary found")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	cfg := ugf.Config{
		N: 25, F: 7, Protocol: ugf.SEARS{}, Adversary: ugf.UGF{}, Seed: 99,
	}
	a, err := ugf.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ugf.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.StripWall(), b.StripWall()) {
		t.Fatal("facade run not deterministic")
	}
}

func TestNewOutbox(t *testing.T) {
	ob := ugf.NewOutbox(0, 4)
	ob.Send(2, fakePayload{})
	if ob.Len() != 1 {
		t.Fatalf("Len = %d", ob.Len())
	}
	msgs := ob.Drain()
	if len(msgs) != 1 || msgs[0].To != 2 || msgs[0].From != 0 {
		t.Fatalf("Drain = %v", msgs)
	}
}

type fakePayload struct{}

func (fakePayload) Kind() string { return "fake" }
