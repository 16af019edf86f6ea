package sim

import (
	"reflect"
	"testing"
)

func TestSchedulerDueOrderAndStaleness(t *testing.T) {
	var s scheduler
	s.init(6)

	// Schedule everyone at step 3, out of process order.
	for _, p := range []ProcID{4, 1, 5, 0, 3, 2} {
		s.scheduleProc(p, 3)
	}
	// Reschedule 3 to step 7 (its step-3 entry goes stale) and unschedule 5.
	s.scheduleProc(3, 7)
	s.unscheduleProc(5)

	if at, ok := s.next(); !ok || at != 3 {
		t.Fatalf("next = (%d, %v), want (3, true)", at, ok)
	}
	due := s.collectDue(3, nil)
	if want := []ProcID{0, 1, 2, 4}; !reflect.DeepEqual(due, want) {
		t.Fatalf("due at 3 = %v, want %v (ascending, stale and unscheduled dropped)", due, want)
	}
	for _, p := range due {
		if s.scheduledAt(p) != noSchedule {
			t.Errorf("process %d still scheduled after collectDue", p)
		}
	}

	if at, ok := s.next(); !ok || at != 7 {
		t.Fatalf("next = (%d, %v), want (7, true)", at, ok)
	}
	if due := s.collectDue(7, nil); !reflect.DeepEqual(due, []ProcID{3}) {
		t.Fatalf("due at 7 = %v, want [3]", due)
	}
	if _, ok := s.next(); ok {
		t.Fatal("scheduler not empty after draining")
	}
}

func TestSchedulerRescheduleBackAndForthDeduplicates(t *testing.T) {
	var s scheduler
	s.init(1)
	// Two live heap entries for (5, 0) after bouncing the schedule; the
	// due set must still contain process 0 exactly once.
	s.scheduleProc(0, 5)
	s.scheduleProc(0, 9)
	s.scheduleProc(0, 5)
	if due := s.collectDue(5, nil); !reflect.DeepEqual(due, []ProcID{0}) {
		t.Fatalf("due = %v, want [0] exactly once", due)
	}
	// The stale entry at 9 must not resurface the process.
	if due := s.collectDue(9, nil); len(due) != 0 {
		t.Fatalf("stale entry resurfaced: %v", due)
	}
}

func TestSchedulerDropsDeadBuckets(t *testing.T) {
	var s scheduler
	s.init(3)
	// Everything at step 4 is rescheduled or removed before step 4: the
	// scheduler must not surface 4 as an event time — an adversary would
	// otherwise observe a step at which provably nothing can happen.
	s.scheduleProc(0, 4)
	s.scheduleProc(1, 4)
	s.scheduleProc(0, 9)
	s.unscheduleProc(1)
	if at, ok := s.next(); !ok || at != 9 {
		t.Fatalf("next = (%d, %v), want (9, true) — dead bucket at 4 surfaced", at, ok)
	}
	// A delivery mark keeps its step alive even when the boundary bucket
	// at the same step is dead.
	s.scheduleProc(2, 5)
	s.unscheduleProc(2)
	s.scheduleDelivery(5)
	if at, ok := s.next(); !ok || at != 5 {
		t.Fatalf("next = (%d, %v), want (5, true) — delivery at 5 pending", at, ok)
	}
	if due := s.collectDue(5, nil); len(due) != 0 {
		t.Fatalf("due at 5 = %v, want none", due)
	}
	if at, ok := s.next(); !ok || at != 9 {
		t.Fatalf("next = (%d, %v), want (9, true)", at, ok)
	}
}

func TestSchedulerDueSetSorted(t *testing.T) {
	var s scheduler
	s.init(8)
	// Appends arrive out of order across "commit batches"; the due set
	// must still come out in ascending process order.
	for _, p := range []ProcID{6, 2, 7, 0, 5, 3} {
		s.scheduleProc(p, 11)
	}
	due := s.collectDue(11, nil)
	if want := []ProcID{0, 2, 3, 5, 6, 7}; !reflect.DeepEqual(due, want) {
		t.Fatalf("due = %v, want %v", due, want)
	}
}

func TestCalendarRecyclesBuckets(t *testing.T) {
	var c calendar
	c.init()
	msg := func(to int32) []imessage { return []imessage{{from: 0, to: to, ref: 7}} }

	if !c.addRun(10, msg(1)) {
		t.Fatal("first add must create the bucket")
	}
	if c.addRun(10, msg(2)) {
		t.Fatal("second add to same step must not re-create the bucket")
	}
	b := c.take(10)
	if len(b.msgs) != 2 || b.msgs[0].to != 1 || b.msgs[1].to != 2 {
		t.Fatalf("bucket = %v", b.msgs)
	}
	if c.take(10) != nil {
		t.Fatal("taken bucket still present")
	}
	c.release(b)

	// The next bucket must reuse the released storage.
	if !c.addRun(20, msg(3)) {
		t.Fatal("add after release must create a bucket")
	}
	b2 := c.take(20)
	if b2 != b {
		t.Error("released bucket was not recycled")
	}
	if b2.msgs[0].to != 3 {
		t.Fatalf("recycled bucket content = %v", b2.msgs)
	}
	c.release(b2)
}
