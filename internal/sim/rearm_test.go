package sim

import "testing"

// rearmer is the timer surface the order test drives: Timer, and the
// eager reference below.
type rearmer interface {
	Reset(d Time)
	Stop()
	Deadline() (Time, bool)
}

// eagerTimer is the reference re-arm: every Reset cancels the pending
// event and schedules a new one, so each re-arm pays a heap push and
// leaves a corpse. A deferred re-arm must fire in exactly its order.
type eagerTimer struct {
	eng *Engine
	fn  func()
	ev  *Event
	gen uint64
}

func (t *eagerTimer) armed() bool { return t.ev != nil && t.ev.gen == t.gen && t.ev.Pending() }

func (t *eagerTimer) Reset(d Time) {
	if t.armed() {
		t.ev.Cancel()
	}
	t.ev = t.eng.After(d, t.fn)
	t.gen = t.ev.gen
}

func (t *eagerTimer) Stop() {
	if t.armed() {
		t.ev.Cancel()
	}
}

func (t *eagerTimer) Deadline() (Time, bool) {
	if !t.armed() {
		return 0, false
	}
	return t.ev.At(), true
}

// firing is one executed event: who fired, and the clock it saw.
type firing struct {
	id int
	at Time
}

// runState is what one Run slice leaves behind.
type runState struct {
	now       Time
	processed uint64
	len       int
}

// rearmScript is one seeded run of the order test's workload.
type rearmScript struct {
	fired  []firing
	states []runState

	// horizons are the Run horizons used; straddles counts those that
	// fell between a deferred entry's heap key and its reserved key.
	horizons  []Time
	straddles int
}

// runRearmScript drives dozens of timers through every kind of re-arm
// (later, earlier, equal, zero, stop, from inside the callback), mixed
// with plain Schedule/Cancel at colliding timestamps, and records the
// firing sequence. eager selects the reference timer. With horizons nil
// the run chooses its own Run horizons, aiming some between a deferred
// entry's old and new keys, and records them; a reference run replays
// them so both engines are sliced at the same instants.
func runRearmScript(seed uint64, eager bool, horizons []Time) rearmScript {
	const (
		nTimers = 40
		steps   = 300
	)
	var out rearmScript
	eng := NewEngine()
	rng := NewRNG(seed)
	pick := NewRNG(seed ^ 0x9e3779b97f4a7c15) // horizon choice only

	timers := make([]rearmer, nTimers)
	for i := range timers {
		id := i
		fn := func() {
			out.fired = append(out.fired, firing{id, eng.Now()})
			if rng.Int63n(3) == 0 {
				timers[id].Reset(Time(rng.Int63n(40)))
			}
		}
		if eager {
			timers[i] = &eagerTimer{eng: eng, fn: fn}
		} else {
			timers[i] = NewTimer(eng, fn)
		}
	}

	type handle struct {
		ev  *Event
		gen uint64
	}
	var plain []handle
	nextPlain := 1000
	op := func() {
		now := eng.Now()
		tm := timers[rng.Int63n(nTimers)]
		dl, ok := tm.Deadline()
		switch rng.Int63n(9) {
		case 0, 1: // later
			if ok {
				tm.Reset(dl - now + Time(rng.Int63n(20)))
			} else {
				tm.Reset(Time(rng.Int63n(50)))
			}
		case 2: // earlier
			if ok && dl > now {
				tm.Reset(Time(rng.Int63n(int64(dl - now))))
			}
		case 3: // equal
			if ok {
				tm.Reset(dl - now)
			}
		case 4:
			tm.Reset(0)
		case 5:
			tm.Stop()
		case 6, 7: // plain event at a timestamp timers also use
			id := nextPlain
			nextPlain++
			ev := eng.Schedule(now+Time(rng.Int63n(50)), func() {
				out.fired = append(out.fired, firing{id, eng.Now()})
			})
			plain = append(plain, handle{ev, ev.gen})
		case 8:
			if len(plain) > 0 {
				h := plain[rng.Int63n(int64(len(plain)))]
				if h.ev.gen == h.gen {
					h.ev.Cancel()
				}
			}
		}
	}

	driving := true
	var churn func()
	churn = func() {
		for n := rng.Int63n(4); n >= 0; n-- {
			op()
		}
		if driving {
			eng.After(Time(rng.Int63n(15)), churn)
		}
	}
	eng.After(0, churn)

	for step := 0; step < steps; step++ {
		var h Time
		if horizons != nil {
			h = horizons[step]
		} else {
			h = eng.Now() + Time(pick.Int63n(30))
			for j, from := 0, int(pick.Int63n(nTimers)); j < nTimers; j++ {
				tm, ok := timers[(from+j)%nTimers].(*Timer)
				if ok && tm.armed() && tm.ev.deferred && tm.ev.deferAt > tm.ev.at {
					h = tm.ev.at + Time(pick.Int63n(int64(tm.ev.deferAt-tm.ev.at)))
					out.straddles++
					break
				}
			}
			out.horizons = append(out.horizons, h)
		}
		eng.Run(h)
		out.states = append(out.states, runState{eng.Now(), eng.Processed(), eng.Len()})
		for n := rng.Int63n(3); n > 0; n-- {
			op() // between slices, from outside any event
		}
	}
	driving = false
	eng.Run(MaxTime)
	out.states = append(out.states, runState{eng.Now(), eng.Processed(), eng.Len()})
	return out
}

// TestDeferredRearmMatchesEagerOrder is the order guarantee of the
// deferred re-arm: across seeded random workloads, every event fires at
// the same point of the total order, at the same clock, with the same
// Processed and Len after every Run slice, as with eager
// cancel-and-schedule re-arms.
func TestDeferredRearmMatchesEagerOrder(t *testing.T) {
	straddles := 0
	for seed := uint64(1); seed <= 24; seed++ {
		got := runRearmScript(seed, false, nil)
		want := runRearmScript(seed, true, got.horizons)
		straddles += got.straddles
		if len(got.fired) != len(want.fired) {
			t.Errorf("seed %d: %d firings, eager reference %d", seed, len(got.fired), len(want.fired))
		}
		for i := 0; i < len(got.fired) && i < len(want.fired); i++ {
			if got.fired[i] != want.fired[i] {
				t.Fatalf("seed %d: firing %d is %+v, eager reference %+v", seed, i, got.fired[i], want.fired[i])
			}
		}
		for i := range got.states {
			if got.states[i] != want.states[i] {
				t.Fatalf("seed %d: after Run slice %d state %+v, eager reference %+v", seed, i, got.states[i], want.states[i])
			}
		}
	}
	if straddles < 100 {
		t.Fatalf("only %d Run horizons fell between a deferred entry's keys; the workload no longer exercises re-filing", straddles)
	}
}

func TestDeferredRearmDeadline(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	eng.Run(5)
	tm.Reset(10)
	tm.Reset(40)
	if !tm.ev.deferred {
		t.Fatal("re-arm to a later deadline did not defer")
	}
	if d, ok := tm.Deadline(); !ok || d != 45 {
		t.Fatalf("Deadline = %v %v after deferral, want 45 true", d, ok)
	}
	// Earlier than the deferred deadline but not than the heap key:
	// still deferred, and Deadline follows.
	tm.Reset(20)
	if d, _ := tm.Deadline(); d != 25 || !tm.ev.deferred {
		t.Fatalf("Deadline = %v (deferred %v), want 25 deferred", d, tm.ev.deferred)
	}
	// Earlier than the heap key: a fresh event.
	tm.Reset(1)
	if d, _ := tm.Deadline(); d != 6 || tm.ev.deferred {
		t.Fatalf("Deadline = %v (deferred %v), want 6 on a fresh event", d, tm.ev.deferred)
	}
}

func TestDeferredRearmStopNeverFires(t *testing.T) {
	eng := NewEngine()
	fires := 0
	tm := NewTimer(eng, func() { fires++ })
	tm.Reset(10)
	tm.Reset(50)
	tm.Stop()
	if tm.Pending() || eng.Len() != 0 {
		t.Fatalf("Pending = %v, Len = %d after Stop of a deferred timer", tm.Pending(), eng.Len())
	}
	eng.Run(MaxTime)
	if fires != 0 || eng.Processed() != 0 {
		t.Fatalf("stopped deferred timer fired %d times (Processed %d)", fires, eng.Processed())
	}
}

func TestDeferredRearmKeepsLenAndCap(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	eng.Schedule(30, func() {})
	tm.Reset(10)
	l, c := eng.Len(), eng.Cap()
	tm.Reset(20)
	tm.Reset(20)
	if eng.Len() != l || eng.Cap() != c {
		t.Fatalf("Len/Cap = %d/%d after deferrals, want %d/%d", eng.Len(), eng.Cap(), l, c)
	}
	// Re-filing at the top neither runs nor counts anything.
	eng.Run(15)
	if eng.Processed() != 0 || eng.Now() != 15 || eng.Len() != l {
		t.Fatalf("after re-file: Processed %d, Now %v, Len %d; want 0, 15, %d", eng.Processed(), eng.Now(), eng.Len(), l)
	}
}

// TestDeferredRearmStaleHandle extends the generation guard to deferred
// entries: a timer that fired after a deferral, and whose Event was then
// recycled into an unrelated event, must neither cancel nor re-key that
// event through its stale handle.
func TestDeferredRearmStaleHandle(t *testing.T) {
	eng := NewEngine()
	var timerAt []Time
	tm := NewTimer(eng, func() { timerAt = append(timerAt, eng.Now()) })
	tm.Reset(10)
	tm.Reset(20) // deferred
	eng.Run(25)
	if len(timerAt) != 1 || timerAt[0] != 20 {
		t.Fatalf("timer fired at %v, want [20]", timerAt)
	}
	var victimAt Time = -1
	victim := eng.Schedule(50, func() { victimAt = eng.Now() })
	if victim != tm.ev {
		t.Fatal("pool did not recycle the timer's event; the test needs it to")
	}
	tm.Reset(40) // later than the victim's key: must not defer the victim
	tm.Stop()
	if !victim.Pending() || victim.deferred {
		t.Fatal("stale Timer handle re-keyed or cancelled an unrelated event")
	}
	eng.Run(MaxTime)
	if victimAt != 50 || len(timerAt) != 1 {
		t.Fatalf("victim ran at %v (want 50); timer fired %v (want only [20])", victimAt, timerAt)
	}
}
