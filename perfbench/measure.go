package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// heapSampleEvery is how often the peak live heap is sampled during a
// run, from runtime/metrics, which does not stop the world.
const heapSampleEvery = 2 * time.Millisecond

// cost is what one run consumed.
type cost struct {
	wall, cpu time.Duration
	allocs    uint64
	peakHeap  uint64
}

// measured runs fn after a full GC, so the previous run's garbage is
// neither counted in its heap peak nor collected on its clock.
func measured(fn func()) cost {
	runtime.GC()
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var highest uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(live)
			if v := live[0].Value.Uint64(); v > highest {
				highest = v
			}
			select {
			case <-stop:
				peak <- highest
				return
			case <-tick.C:
			}
		}
	}()
	c0 := processCPU()
	t0 := time.Now()
	fn()
	var c cost
	c.wall = time.Since(t0)
	c.cpu = processCPU() - c0
	close(stop)
	c.peakHeap = <-peak
	metrics.Read(allocs)
	c.allocs = allocs[0].Value.Uint64() - a0
	return c
}

// repeatTimed runs fn setupReps times and returns each call's wall
// seconds; set-up steps take microseconds, so one timing says little.
func repeatTimed(fn func() error) ([]float64, error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// processCPU is this process's user+system CPU time, GC included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the p75 latency and how many samples lie beyond it. The
// percentile is fixed, not the highest one with ten samples beyond it:
// a faster program completes more runs in the same time and must not
// be judged on a higher percentile than its parent. Every workload but
// core_reno completes at least 40 runs, so at least ten lie beyond.
func tail(xs []float64) (value float64, beyond int) {
	return quantile(xs, 0.75), len(xs) / 4
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
