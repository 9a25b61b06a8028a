// Package sim provides the discrete-event simulation engine that drives
// every experiment in this repository: a virtual clock, an event queue,
// cancellable timers, and a deterministic pseudo-random number generator.
//
// The engine is single-threaded by design. An experiment run schedules
// closures at virtual timestamps; Run executes them in timestamp order
// (FIFO among equal timestamps) until the horizon is reached, the event
// queue drains, or the run is stopped. Determinism is a hard requirement:
// two runs with the same configuration and seed produce bit-identical
// results, which makes every reported number in EXPERIMENTS.md
// reproducible.
//
// The event hot path is allocation-free in steady state: fired and
// cancelled events return to an engine-owned free list and Schedule
// reuses them. Timer churn costs no heap operation in the common case:
// re-arming a timer to a later deadline (TCP re-arms its RTO on every
// ACK) only records the new key on the pending entry, which Run re-files
// when it reaches the top. Stops and re-arms to an earlier deadline
// cancel lazily, and the binary heap compacts itself when those corpses
// outnumber live entries. At CoreScale (hundreds of millions of packet,
// timer, and sample events per run) this is the difference between
// running at memory speed and running at garbage-collector speed.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
//
// Virtual nanoseconds are stored in an int64, which covers runs of about
// 292 years — far beyond the paper's 3-hour experiments.
type Time int64

// Common durations, mirroring the time package so call sites read
// naturally (5*sim.Second) without importing time for arithmetic.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// MaxTime is the largest representable virtual time. It is used as the
// horizon for runs that should only terminate by convergence or event
// exhaustion.
const MaxTime = Time(math.MaxInt64)

// Duration converts a standard library duration to virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Std converts a virtual time to a standard library duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// Seconds reports the time as floating-point seconds. Intended for
// metric computation and reporting, not for scheduling arithmetic.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with the standard library's duration rules.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled closure. The zero Event is not valid; events are
// created by Engine.Schedule and friends.
//
// Events may be cancelled while pending. Cancellation is lazy: the heap
// entry stays in place and is discarded when popped. The engine compacts
// the heap when lazily-cancelled corpses outnumber live entries, so
// churn cannot grow the heap without bound.
//
// A Timer re-armed to a deadline at or after its entry's heap key
// defers instead of cancelling: the entry stays where it is and records
// its new key (deferAt, deferSeq). Because the new key is never smaller
// than the old, the entry reaches the top no later than it should, and
// Run then re-files it under the recorded key before anything else can
// be ordered against it.
//
// An *Event handle is valid until the event fires or its cancellation is
// collected: the engine then recycles the Event for a future Schedule.
// Cancel and Pending on a stale handle are safe no-ops until the moment
// of reuse, but a holder that may outlive its event must use Timer,
// which detects recycling through a generation counter.
type Event struct {
	at  Time
	seq uint64 // tie-break so equal timestamps run FIFO
	fn  func()
	eng *Engine
	gen uint64 // incremented on recycle; Timer's staleness check

	// deferAt/deferSeq are the key a deferred re-arm reserved; the heap
	// still files the entry under (at, seq) until Run re-files it.
	deferAt  Time
	deferSeq uint64

	cancelled bool
	popped    bool
	deferred  bool
}

// At reports the virtual time the event fires at.
func (e *Event) At() Time {
	if e.deferred {
		return e.deferAt
	}
	return e.at
}

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired or was already cancelled is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.cancelled || e.popped {
		return
	}
	e.cancelled = true
	e.eng.live--
	e.eng.maybeCompact()
}

// Pending reports whether the event is still scheduled to fire.
func (e *Event) Pending() bool {
	return e != nil && !e.cancelled && !e.popped
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct one with NewEngine.
type Engine struct {
	now     Time
	queue   []*Event // binary min-heap ordered by (at, seq)
	nextSeq uint64
	stopped bool

	// live counts heap entries that are still scheduled to fire; the
	// difference to len(queue) is lazily-cancelled corpses.
	live int

	// free is the event free list: fired and collected events are
	// recycled here so steady-state scheduling never allocates.
	free []*Event

	// processed counts events executed so far; useful for progress
	// reporting and for sanity limits in tests.
	processed uint64

	// interruptEvery/interruptFn implement the supervisor hook: Run
	// calls interruptFn after every interruptEvery-th processed event.
	interruptEvery uint64
	interruptFn    func()

	// auditFn, when set, receives engine invariant violations (a
	// non-monotone clock, an event scheduled in the past) as structured
	// reports instead of — or, for causality-protecting panics, in
	// addition to — a bare panic. Installed by the run supervisor; the
	// engine stays free of upward dependencies.
	auditFn func(check, detail string)
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{queue: make([]*Event, 0, 1024)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Len reports the number of live (pending, not cancelled) events. The
// run supervisor's stall guard and capacity heuristics rely on this
// being an exact count, not an estimate inflated by lazily-cancelled
// corpses.
func (e *Engine) Len() int { return e.live }

// Cap reports the raw heap size, including lazily-cancelled entries
// awaiting collection — the engine's actual memory footprint indicator.
func (e *Engine) Cap() int { return len(e.queue) }

// acquire returns a recycled event from the free list, or a new one.
func (e *Engine) acquire() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{eng: e}
}

// release recycles an event that fired or whose cancellation was
// collected. The closure reference is dropped immediately so the pool
// never extends closure lifetimes; the generation bump invalidates any
// Timer still holding the handle.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.gen++
	ev.popped = true
	ev.deferred = false
	e.free = append(e.free, ev)
}

// Schedule runs fn at virtual time at. Scheduling in the past panics:
// it always indicates a logic error in the caller, and silently clamping
// would corrupt causality.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if at < e.now {
		if e.auditFn != nil {
			// Under a strict auditor this panics with the structured
			// violation; under warn it records, and the panic below
			// still protects causality.
			e.auditFn("sim/schedule-in-past", fmt.Sprintf("event at %v before now %v", at, e.now))
		}
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.acquire()
	ev.at = at
	ev.seq = e.nextSeq
	ev.fn = fn
	ev.cancelled = false
	ev.popped = false
	e.nextSeq++
	e.live++
	e.heapPush(ev)
	return ev
}

// After runs fn after delay d. A non-positive delay schedules for the
// current instant (the event still goes through the queue, after any
// events already scheduled for now).
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called during the current or most
// recent Run.
func (e *Engine) Stopped() bool { return e.stopped }

// SetInterrupt installs a supervisor hook: Run invokes fn after every
// every-th processed event. The hook exists for watchdogs — checking a
// wall-clock budget or detecting a stalled virtual clock — which then
// end the run gracefully via Stop instead of aborting the process. A
// zero interval or nil fn removes the hook.
//
// The hook must not schedule or cancel events; it observes and stops.
// Because it runs on the event-loop thread at deterministic points, a
// hook that inspects only virtual state cannot perturb determinism;
// one that inspects wall-clock time trades determinism for liveness
// only in the runs it actually stops.
func (e *Engine) SetInterrupt(every uint64, fn func()) {
	if every == 0 || fn == nil {
		e.interruptEvery, e.interruptFn = 0, nil
		return
	}
	e.interruptEvery, e.interruptFn = every, fn
}

// SetAudit installs the engine's invariant reporter: fn receives a
// check name ("sim/...") and a detail string whenever an engine
// invariant fails. Like the interrupt hook, the reporter observes only
// virtual state at deterministic points, so it cannot perturb
// determinism. A nil fn removes the hook.
func (e *Engine) SetAudit(fn func(check, detail string)) { e.auditFn = fn }

// Run executes events in timestamp order until the queue is empty, the
// next event lies beyond horizon, or Stop is called. It returns the
// virtual time at which execution stopped: the horizon if it was
// reached, otherwise the time of the last executed event.
//
// Events scheduled exactly at the horizon are executed.
func (e *Engine) Run(horizon Time) Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.cancelled {
			// Collect a corpse that bubbled to the top.
			e.heapPopTop()
			e.release(next)
			continue
		}
		if next.deferred {
			// A re-armed timer reached the top under its old key: file
			// it under the key its re-arm reserved. Nothing runs, so the
			// clock, Processed and the interrupt cadence stay untouched.
			next.at, next.seq = next.deferAt, next.deferSeq
			next.deferred = false
			e.siftDown(0)
			continue
		}
		if next.at > horizon {
			e.now = horizon
			return e.now
		}
		e.heapPopTop()
		at, fn := next.at, next.fn
		e.live--
		// Recycle before executing: fn may Schedule and reuse the slot,
		// and a Timer watching this event observes the generation bump
		// exactly as it previously observed the popped flag.
		e.release(next)
		if e.auditFn != nil && at < e.now {
			e.auditFn("sim/clock-monotone", fmt.Sprintf("popped event at %v behind clock %v", at, e.now))
		}
		e.now = at
		e.processed++
		fn()
		if e.interruptEvery > 0 && e.processed%e.interruptEvery == 0 {
			e.interruptFn()
		}
	}
	if !e.stopped && e.now < horizon && horizon != MaxTime {
		// Queue drained before the horizon: advance the clock so
		// measurement windows that end at the horizon stay well defined.
		e.now = horizon
	}
	return e.now
}

// compactMin is the heap size below which compaction is never worth the
// rebuild; tiny heaps drain their corpses through ordinary pops.
const compactMin = 64

// maybeCompact rebuilds the heap without its lazily-cancelled corpses
// once they outnumber live entries. Stopped timers and timers re-armed
// to an earlier deadline (TCP pulls the RTO in after a backoff, the
// pacing timer moves with the send schedule) leave corpses whose
// deadline may lie far in the future, surviving every pop of the run.
// Re-arms to a later deadline defer in place and leave none. Compaction
// preserves the (at, seq) order exactly and keeps deferred entries
// under their old key, so execution order — and therefore determinism —
// is unaffected.
func (e *Engine) maybeCompact() {
	if len(e.queue) < compactMin || len(e.queue)-e.live <= len(e.queue)/2 {
		return
	}
	q := e.queue
	kept := q[:0]
	for _, ev := range q {
		if ev.cancelled {
			e.release(ev)
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	e.queue = kept
	// Re-establish the heap invariant bottom-up (standard O(n) build).
	for i := len(kept)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// eventLess orders the heap by timestamp, sequence-number tie-broken so
// equal timestamps run FIFO.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *Event) {
	e.queue = append(e.queue, ev)
	i := len(e.queue) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e.queue[i], e.queue[parent]) {
			break
		}
		e.queue[i], e.queue[parent] = e.queue[parent], e.queue[i]
		i = parent
	}
}

// heapPopTop removes the root entry (callers read e.queue[0] first).
func (e *Engine) heapPopTop() {
	last := len(e.queue) - 1
	e.queue[0] = e.queue[last]
	e.queue[last] = nil
	e.queue = e.queue[:last]
	if last > 0 {
		e.siftDown(0)
	}
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && eventLess(q[right], q[left]) {
			min = right
		}
		if !eventLess(q[min], q[i]) {
			return
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

// Timer is a rearm-friendly wrapper over Schedule for the common TCP
// pattern "reset the retransmission timer on every ACK". Reset moves the
// pending expiry; Stop cancels it. Both are allocation-free in steady
// state: the engine recycles the underlying events, and the timer's
// single stored callback means no closure is ever created per (re)arm.
type Timer struct {
	eng *Engine
	fn  func()
	ev  *Event
	gen uint64 // generation of ev at arm time; detects recycling
}

// NewTimer creates a stopped timer that will invoke fn when it expires.
func NewTimer(eng *Engine, fn func()) *Timer {
	return &Timer{eng: eng, fn: fn}
}

// armed reports whether the timer's event handle is still its own live
// arm: present, not recycled into a different event, and pending.
func (t *Timer) armed() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.Pending()
}

// Reset (re)arms the timer to fire after d. A non-positive d fires at
// the current instant, after any events already scheduled for now.
//
// Moving an armed timer to a deadline at or after its heap key costs no
// heap operation: the entry records the new deadline and the sequence
// number an eager cancel-and-schedule would have taken, so it fires at
// exactly the same point in the event order. An earlier deadline, or a
// timer that is not armed (stopped, fired, or firing now), schedules a
// fresh event.
func (t *Timer) Reset(d Time) {
	eng := t.eng
	at := eng.now + max(d, 0)
	if t.armed() {
		ev := t.ev
		if at >= ev.at {
			ev.deferAt, ev.deferSeq, ev.deferred = at, eng.nextSeq, true
			eng.nextSeq++
			return
		}
		ev.Cancel()
	}
	t.ev = eng.Schedule(at, t.fn)
	t.gen = t.ev.gen
}

// Stop cancels the pending expiry, if any.
func (t *Timer) Stop() {
	if t.armed() {
		t.ev.Cancel()
	}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.armed() }

// Deadline returns the expiry time of an armed timer and true, or zero
// and false for a stopped timer.
func (t *Timer) Deadline() (Time, bool) {
	if !t.armed() {
		return 0, false
	}
	return t.ev.At(), true
}
