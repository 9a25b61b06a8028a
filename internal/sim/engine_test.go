package sim

import (
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := Duration(1500 * time.Millisecond); got != 1500*Millisecond {
		t.Fatalf("Duration = %v, want %v", got, 1500*Millisecond)
	}
	if got := (2 * Second).Std(); got != 2*time.Second {
		t.Fatalf("Std = %v, want 2s", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds = %v, want 0.25", got)
	}
	if got := (3 * Minute).String(); got != "3m0s" {
		t.Fatalf("String = %q, want 3m0s", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(30, func() { order = append(order, 3) })
	eng.Schedule(10, func() { order = append(order, 1) })
	eng.Schedule(20, func() { order = append(order, 2) })
	eng.Run(100)
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEqualTimestampsRunFIFO(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(5, func() { order = append(order, i) })
	}
	eng.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-timestamp events ran out of order: %v", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	eng := NewEngine()
	var seen Time
	eng.Schedule(42, func() { seen = eng.Now() })
	eng.Run(100)
	if seen != 42 {
		t.Fatalf("Now inside event = %v, want 42", seen)
	}
}

func TestHorizonStopsExecution(t *testing.T) {
	eng := NewEngine()
	ran := 0
	eng.Schedule(10, func() { ran++ })
	eng.Schedule(50, func() { ran++ })
	end := eng.Run(20)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if end != 20 || eng.Now() != 20 {
		t.Fatalf("end = %v now = %v, want 20", end, eng.Now())
	}
	// Continuing the run executes the remaining event.
	eng.Run(100)
	if ran != 2 {
		t.Fatalf("after second Run, ran = %d, want 2", ran)
	}
}

func TestEventAtHorizonRuns(t *testing.T) {
	eng := NewEngine()
	ran := false
	eng.Schedule(20, func() { ran = true })
	eng.Run(20)
	if !ran {
		t.Fatal("event scheduled exactly at horizon did not run")
	}
}

func TestQueueDrainAdvancesToHorizon(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(5, func() {})
	end := eng.Run(1000)
	if end != 1000 {
		t.Fatalf("Run returned %v, want horizon 1000", end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.Schedule(10, func() {})
	})
	eng.Run(100)
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(10, func() {
		eng.After(-5, func() {
			if eng.Now() != 10 {
				t.Errorf("negative-delay event ran at %v, want 10", eng.Now())
			}
		})
	})
	eng.Run(100)
}

func TestCancel(t *testing.T) {
	eng := NewEngine()
	ran := false
	ev := eng.Schedule(10, func() { ran = true })
	if !ev.Pending() {
		t.Fatal("freshly scheduled event not pending")
	}
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
	eng.Run(100)
	if ran {
		t.Fatal("cancelled event ran")
	}
	ev.Cancel() // double-cancel must be a no-op
}

func TestCancelNilEventSafe(t *testing.T) {
	var ev *Event
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("nil event reported pending")
	}
}

func TestStop(t *testing.T) {
	eng := NewEngine()
	ran := 0
	eng.Schedule(10, func() { ran++; eng.Stop() })
	eng.Schedule(20, func() { ran++ })
	eng.Run(100)
	if ran != 1 {
		t.Fatalf("ran = %d after Stop, want 1", ran)
	}
	// A subsequent Run resumes.
	eng.Run(100)
	if ran != 2 {
		t.Fatalf("ran = %d after resume, want 2", ran)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	var chain func()
	chain = func() {
		fired = append(fired, eng.Now())
		if len(fired) < 5 {
			eng.After(10, chain)
		}
	}
	eng.Schedule(0, chain)
	eng.Run(1000)
	if len(fired) != 5 {
		t.Fatalf("chain fired %d times, want 5", len(fired))
	}
	for i, at := range fired {
		if at != Time(i*10) {
			t.Fatalf("chain[%d] at %v, want %v", i, at, Time(i*10))
		}
	}
}

func TestProcessedCount(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 7; i++ {
		eng.Schedule(Time(i), func() {})
	}
	ev := eng.Schedule(100, func() {})
	ev.Cancel()
	eng.Run(MaxTime)
	if eng.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7 (cancelled events don't count)", eng.Processed())
	}
}

func TestTimerResetAndStop(t *testing.T) {
	eng := NewEngine()
	fires := 0
	tm := NewTimer(eng, func() { fires++ })
	if tm.Pending() {
		t.Fatal("new timer pending")
	}
	tm.Reset(10)
	tm.Reset(50) // supersedes the first arm
	if d, ok := tm.Deadline(); !ok || d != 50 {
		t.Fatalf("Deadline = %v %v, want 50 true", d, ok)
	}
	eng.Run(30)
	if fires != 0 {
		t.Fatal("timer fired before rearmed deadline")
	}
	eng.Run(100)
	if fires != 1 {
		t.Fatalf("fires = %d, want 1", fires)
	}
	tm.Reset(10)
	tm.Stop()
	eng.Run(200)
	if fires != 1 {
		t.Fatalf("stopped timer fired; fires = %d", fires)
	}
	if _, ok := tm.Deadline(); ok {
		t.Fatal("stopped timer reports a deadline")
	}
}

func TestManyEventsHeapStress(t *testing.T) {
	eng := NewEngine()
	rng := NewRNG(1)
	const n = 10000
	var last Time = -1
	outOfOrder := false
	for i := 0; i < n; i++ {
		at := Time(rng.Int63n(1 << 30))
		eng.Schedule(at, func() {
			if eng.Now() < last {
				outOfOrder = true
			}
			last = eng.Now()
		})
	}
	eng.Run(MaxTime)
	if outOfOrder {
		t.Fatal("events executed out of timestamp order")
	}
	if eng.Processed() != n {
		t.Fatalf("Processed = %d, want %d", eng.Processed(), n)
	}
}

func TestTimerChurnStress(t *testing.T) {
	// TCP rearms its RTO on nearly every ACK: a timer that is Reset
	// thousands of times must fire exactly once, at the final deadline,
	// and the heap must drain.
	eng := NewEngine()
	fires := 0
	var firedAt Time
	tm := NewTimer(eng, func() { fires++; firedAt = eng.Now() })
	for i := 0; i < 5000; i++ {
		at := Time(i)
		eng.Schedule(at, func() { tm.Reset(100) })
	}
	eng.Run(MaxTime)
	if fires != 1 {
		t.Fatalf("fires = %d, want 1", fires)
	}
	if firedAt != 4999+100 {
		t.Fatalf("fired at %v, want %v", firedAt, Time(5099))
	}
	if eng.Len() != 0 {
		t.Fatalf("heap retains %d entries after drain", eng.Len())
	}
}

func TestRunResumesAfterHorizonRepeatedly(t *testing.T) {
	// Slicing one simulation into many Run(horizon) windows must be
	// equivalent to a single long run.
	mk := func() (*Engine, *[]Time) {
		eng := NewEngine()
		var fired []Time
		for i := 1; i <= 50; i++ {
			at := Time(i * 7)
			eng.Schedule(at, func() { fired = append(fired, eng.Now()) })
		}
		return eng, &fired
	}
	engA, firedA := mk()
	engA.Run(1000)
	engB, firedB := mk()
	for h := Time(10); h <= 1000; h += 10 {
		engB.Run(h)
	}
	if len(*firedA) != len(*firedB) {
		t.Fatalf("sliced run fired %d events, single run %d", len(*firedB), len(*firedA))
	}
	for i := range *firedA {
		if (*firedA)[i] != (*firedB)[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, (*firedA)[i], (*firedB)[i])
		}
	}
}

func TestSetInterruptCadence(t *testing.T) {
	eng := NewEngine()
	for i := 1; i <= 100; i++ {
		eng.Schedule(Time(i), func() {})
	}
	calls := 0
	eng.SetInterrupt(10, func() { calls++ })
	eng.Run(1000)
	if calls != 10 {
		t.Fatalf("interrupt fired %d times over 100 events at every=10, want 10", calls)
	}
}

func TestSetInterruptCanStopRun(t *testing.T) {
	eng := NewEngine()
	executed := 0
	var reschedule func()
	reschedule = func() {
		executed++
		eng.After(1, reschedule) // self-sustaining load: would run forever
	}
	eng.After(1, reschedule)
	eng.SetInterrupt(25, func() {
		if eng.Processed() >= 50 {
			eng.Stop()
		}
	})
	end := eng.Run(MaxTime)
	if executed != 50 {
		t.Fatalf("executed %d events, want the watchdog to stop at 50", executed)
	}
	if !eng.Stopped() {
		t.Fatal("Stopped() = false after watchdog stop")
	}
	if end != eng.Now() {
		t.Fatalf("Run returned %v, Now() = %v", end, eng.Now())
	}
}

func TestSetInterruptRemoval(t *testing.T) {
	eng := NewEngine()
	for i := 1; i <= 20; i++ {
		eng.Schedule(Time(i), func() {})
	}
	calls := 0
	eng.SetInterrupt(1, func() { calls++ })
	eng.SetInterrupt(0, nil)
	eng.Run(1000)
	if calls != 0 {
		t.Fatalf("removed interrupt still fired %d times", calls)
	}
}
