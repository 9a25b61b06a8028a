package sim

import "testing"

// BenchmarkSchedule measures the pooled schedule+fire cycle — the
// engine's per-event cost with a primed free list.
func BenchmarkSchedule(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.After(1, fn)
	}
	eng.Run(MaxTime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, fn)
		if i%64 == 63 {
			eng.Run(MaxTime)
		}
	}
	eng.Run(MaxTime)
}

// BenchmarkTimerChurn measures the rearm-heavy RTO pattern on one
// timer: each Reset moves the pending arm to a deadline no earlier than
// its heap key, so it defers in place — no heap push, no corpse.
func BenchmarkTimerChurn(b *testing.B) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	tm.Reset(1 << 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(1 << 40)
	}
}

// BenchmarkScheduleCancel measures schedule-then-cancel churn, the
// pacing-timer pattern under bursty ACK arrival.
func BenchmarkScheduleCancel(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.After(1, fn)
	}
	eng.Run(MaxTime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1000, fn).Cancel()
	}
}

// BenchmarkTimerRearmDeep measures deferred re-arms in a deep heap: 4096
// live timers (the order of core_reno's peak heap) are re-armed to a
// later deadline round-robin, interleaved with plain schedule/fire. The
// timeout outlasts a timer's re-arm period, so timers seldom fire, but
// their old heap keys keep coming due and Run re-files them — the
// per-ACK RTO pattern of a many-flow run.
func BenchmarkTimerRearmDeep(b *testing.B) {
	const n = 4096
	eng := NewEngine()
	fn := func() {}
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = NewTimer(eng, fn)
		timers[i].Reset(Time(100 + i%100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timers[i%n].Reset(100)
		eng.After(Time(i%7), fn)
		if i%64 == 63 {
			eng.Run(eng.Now() + 1)
		}
	}
}
