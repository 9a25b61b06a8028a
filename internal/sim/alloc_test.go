package sim

import (
	"testing"
)

// TestLenCountsOnlyLiveEvents is the regression test for the Engine.Len
// lie: cancelled entries used to be reported as queue length, so the
// run supervisor's stall guard and capacity heuristics read corpses as
// pending work.
func TestLenCountsOnlyLiveEvents(t *testing.T) {
	eng := NewEngine()
	events := make([]*Event, 1000)
	for i := range events {
		events[i] = eng.Schedule(Time(i+1), func() {})
	}
	if eng.Len() != 1000 {
		t.Fatalf("Len = %d after scheduling 1000, want 1000", eng.Len())
	}
	for _, ev := range events {
		ev.Cancel()
	}
	if eng.Len() != 0 {
		t.Fatalf("Len = %d after cancelling all 1000, want 0", eng.Len())
	}
	// Double-cancel must not drive the live count negative.
	events[0].Cancel()
	if eng.Len() != 0 {
		t.Fatalf("Len = %d after double cancel, want 0", eng.Len())
	}
	eng.Run(MaxTime)
	if eng.Processed() != 0 {
		t.Fatalf("Processed = %d, cancelled events ran", eng.Processed())
	}
}

// TestCapReportsRawHeapSize pins the Len/Cap split: Len is live events,
// Cap is the heap's actual footprint including corpses awaiting
// collection.
func TestCapReportsRawHeapSize(t *testing.T) {
	eng := NewEngine()
	var evs []*Event
	for i := 0; i < 30; i++ {
		evs = append(evs, eng.Schedule(Time(i+1), func() {}))
	}
	for i := 0; i < 10; i++ {
		evs[i].Cancel()
	}
	// Below compactMin nothing is collected eagerly.
	if got := eng.Len(); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	if got := eng.Cap(); got != 30 {
		t.Fatalf("Cap = %d, want 30 (corpses still in heap)", got)
	}
}

// TestHeapCompaction verifies the corpse-majority trigger: once
// cancelled entries exceed half the heap (above the compactMin floor),
// the heap shrinks without dropping or reordering live events.
func TestHeapCompaction(t *testing.T) {
	eng := NewEngine()
	var live []*Event
	var corpses []*Event
	for i := 0; i < 200; i++ {
		ev := eng.Schedule(Time(1000+i), func() {})
		if i%2 == 0 {
			corpses = append(corpses, ev)
		} else {
			live = append(live, ev)
		}
	}
	for _, ev := range corpses {
		ev.Cancel()
	}
	// Exactly half cancelled: not yet a corpse majority, no compaction.
	if eng.Cap() != 200 {
		t.Fatalf("Cap = %d before trigger, want 200", eng.Cap())
	}
	// One more cancellation tips corpses over half the heap.
	live[0].Cancel()
	if eng.Cap() != 99 {
		t.Fatalf("Cap = %d after compaction, want 99 live entries", eng.Cap())
	}
	if eng.Len() != 99 {
		t.Fatalf("Len = %d after compaction, want 99", eng.Len())
	}
	eng.Run(MaxTime)
	if eng.Processed() != 99 {
		t.Fatalf("Processed = %d, want all 99 live events to fire", eng.Processed())
	}
	live = live[1:]
	for _, ev := range live {
		if ev.Pending() {
			t.Fatal("live event still pending after run")
		}
	}
}

// TestTimerChurnBoundsHeap pins that a timer rearmed far more often
// than it fires does not grow the heap: 100k rearms to a later deadline
// keep the timer's single entry.
func TestTimerChurnBoundsHeap(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	for i := 0; i < 100000; i++ {
		at := Time(i)
		eng.Schedule(at, func() { tm.Reset(1 << 40) })
	}
	eng.Run(Time(99999)) // run the rearm load, leave the final deadline pending
	if eng.Len() != 1 {
		t.Fatalf("Len = %d after churn, want 1 (the armed timer)", eng.Len())
	}
	if eng.Cap() > compactMin {
		t.Fatalf("Cap = %d after 100k rearms; compaction failed to bound the heap", eng.Cap())
	}
}

// TestTimerStaleHandleAfterFire proves the generation guard: once a
// timer's event has fired and its Event struct was recycled into an
// unrelated event, Stop/Reset/Pending on the timer must not touch the
// new owner's event.
func TestTimerStaleHandleAfterFire(t *testing.T) {
	eng := NewEngine()
	timerFired := 0
	tm := NewTimer(eng, func() { timerFired++ })
	tm.Reset(10)
	eng.Run(20) // timer fires; its Event returns to the pool
	if timerFired != 1 {
		t.Fatalf("timer fired %d times, want 1", timerFired)
	}
	if tm.Pending() {
		t.Fatal("fired timer reports pending")
	}
	// The pool reuses the timer's old Event struct for this victim.
	victimRan := false
	eng.Schedule(50, func() { victimRan = true })
	tm.Stop() // must NOT cancel the victim through the stale handle
	eng.Run(100)
	if !victimRan {
		t.Fatal("Timer.Stop on a stale handle cancelled an unrelated event")
	}
}

// TestScheduleSteadyStateZeroAlloc is the allocation budget for the
// event hot path: once the pool is primed, Schedule + fire must not
// allocate. A future PR that reintroduces a per-event allocation fails
// here instead of silently regressing CoreScale runs.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Prime the pool.
	for i := 0; i < 64; i++ {
		eng.After(1, fn)
	}
	eng.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(1, fn)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}

// TestTimerChurnZeroAlloc budgets the rearm path: Reset on a pooled
// engine must be allocation-free — this is the per-ACK RTO pattern.
func TestTimerChurnZeroAlloc(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	for i := 0; i < 64; i++ {
		tm.Reset(1000)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(1000)
	})
	if allocs != 0 {
		t.Fatalf("timer rearm allocates %.1f objects, want 0", allocs)
	}
	tm.Stop()
	// Cancel/collect churn must likewise stay off the allocator.
	allocs = testing.AllocsPerRun(1000, func() {
		ev := eng.After(1000, func() {})
		ev.Cancel()
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %.1f objects, want 0", allocs)
	}
}

// TestPoolRecyclingPreservesOrder stresses interleaved schedule, fire,
// cancel, and compaction, checking that execution order stays sorted by
// (time, FIFO) exactly as an unpooled engine would run it.
func TestPoolRecyclingPreservesOrder(t *testing.T) {
	eng := NewEngine()
	rng := NewRNG(99)
	type rec struct {
		at  Time
		seq int
	}
	var fired []rec
	n := 0
	for round := 0; round < 50; round++ {
		var cancel []*Event
		for i := 0; i < 100; i++ {
			at := eng.Now() + Time(rng.Int63n(1000))
			seq := n
			n++
			ev := eng.Schedule(at, func() { fired = append(fired, rec{at, seq}) })
			if rng.Int63n(3) == 0 {
				cancel = append(cancel, ev)
			}
		}
		for _, ev := range cancel {
			ev.Cancel()
		}
		eng.Run(eng.Now() + 500)
	}
	eng.Run(MaxTime)
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("order violated at %d: (%v,%d) before (%v,%d)", i, a.at, a.seq, b.at, b.seq)
		}
	}
}

// TestTimerRearmLaterNoHeapOp budgets the deferred re-arm: moving an
// armed timer to a later deadline allocates nothing and leaves the heap
// as it was — no push, no corpse — however often it repeats.
func TestTimerRearmLaterNoHeapOp(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	for i := 0; i < 64; i++ {
		eng.After(Time(i), func() {})
	}
	tm.Reset(1000)
	l, c := eng.Len(), eng.Cap()
	d := Time(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		d++
		tm.Reset(d)
	})
	if allocs != 0 {
		t.Fatalf("re-arm to a later deadline allocates %.1f objects, want 0", allocs)
	}
	if eng.Len() != l || eng.Cap() != c {
		t.Fatalf("Len/Cap = %d/%d after later re-arms, want %d/%d", eng.Len(), eng.Cap(), l, c)
	}
	if got, _ := tm.Deadline(); got != d {
		t.Fatalf("Deadline = %v, want %v", got, d)
	}
}
