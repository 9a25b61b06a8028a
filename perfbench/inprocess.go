package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"ccatscale/internal/core"
	"ccatscale/internal/units"
)

const (
	// setupReps is how often each simulation's set-up steps are timed;
	// setup_s and core.compile_s are medians over all of them.
	setupReps = 21
	// minSims is the floor on simulations when they outlast --seconds.
	minSims = 3
)

// runInProcess measures an in-process workload with tracing off: a
// sequence of simulations with seeds from simSeed, run until the budget
// has passed. Each simulation is set up, run and checked; the first is
// run twice and must give the same results digest both times.
func runInProcess(e *env, r *result) error {
	var m endToEnd
	start := time.Now()
	for k := 0; k < minSims || time.Since(start) < e.budget; k++ {
		seed := simSeed(e.seed, k)
		doc, err := scenarioDoc(e.workload, seed)
		if err != nil {
			return err
		}
		c, times, err := measureSetup(doc)
		if err != nil {
			return err
		}
		m.setup = append(m.setup, times...)
		cfg := c.cfg
		var want string
		if k == 0 {
			// Untimed: the heap grows to a run's size, and the digest the
			// timed run must reproduce is taken.
			ref, err := core.Run(cfg)
			if !r.op(checkRun(cfg, ref, err)) {
				continue
			}
			want = digestOf(ref)
		}

		var res core.RunResult
		var runErr error
		var wall, latency time.Duration
		cost := measured(func() {
			t0 := time.Now()
			res, runErr = core.Run(cfg)
			wall = time.Since(t0)
			analyze(res)
			latency = time.Since(t0)
		})
		err = checkRun(cfg, res, runErr)
		if err == nil && want != "" && digestOf(res) != want {
			err = fmt.Errorf("seed %d: results digest %s differs from the first run's %s", seed, digestOf(res), want)
		}
		if !r.op(err) {
			continue
		}
		fmt.Fprintf(e.out, "digest %s seed=%d %s\n", e.workload, seed, digestOf(res))
		m.walls = append(m.walls, wall.Seconds())
		m.latencies = append(m.latencies, latency.Seconds())
		m.cpus = append(m.cpus, cost.cpu.Seconds())
		m.allocs = append(m.allocs, float64(cost.allocs))
		m.heaps = append(m.heaps, float64(cost.peakHeap)/(1<<20))
		m.events = append(m.events, float64(res.Events))
	}
	if len(m.walls) == 0 {
		return nil
	}
	total := 0.0
	for _, l := range m.latencies {
		total += l
	}
	m.jobsPerS = float64(len(m.latencies)) / total
	n := fmt.Sprintf("median of %d simulations", len(m.walls))
	m.setupNote = fmt.Sprintf("median of %d parse+compile+build+estimate", len(m.setup))
	m.wallNote, m.perRunNote = n, n
	m.cpuNote = "user+sys, GC included; " + n
	m.jobsNote = "simulations completed per second, one at a time"
	m.latencyNote = "run plus analysis; " + n
	m.add(r)
	return nil
}

// measureSetup times what precedes a simulation: scenario parse,
// compile, Setting.Build and EstimateConfig.
func measureSetup(doc []byte) (compiled, []float64, error) {
	var c compiled
	times, err := repeatTimed(func() error {
		var err error
		if c, err = compile(doc); err == nil {
			core.EstimateConfig(c.cfg)
		}
		return err
	})
	return c, times, err
}

// analyze is the analysis a user runs on a result: the Mathis fit, JFI
// and per-CCA shares.
func analyze(res core.RunResult) {
	core.MathisAnalyze("", len(res.Flows), res)
	res.JFI()
	res.ShareByCCA()
}

// checkRun rejects a run that failed or whose results break physics:
// audit violations, utilization outside [0,1], JFI outside [0,1], or
// flows through a link delivering more bytes in the window than the
// link carried in the whole run. (Window goodput may exceed the line
// rate a little: data buffered out of order before the window is
// delivered inside it.)
func checkRun(cfg core.RunConfig, res core.RunResult, err error) error {
	if err != nil {
		return fmt.Errorf("run failed: %w", err)
	}
	if res.AuditViolations > 0 {
		return fmt.Errorf("%d audit violations", res.AuditViolations)
	}
	if res.Events == 0 || len(res.Flows) != len(cfg.Flows) {
		return fmt.Errorf("run simulated nothing (%d events, %d flows)", res.Events, len(res.Flows))
	}
	if j := res.JFI(); !(j >= 0 && j <= 1+1e-12) {
		return fmt.Errorf("JFI %v outside [0,1]", j)
	}
	delivered := func(onLink func(f int) bool) units.ByteCount {
		var b units.ByteCount
		for f, fr := range res.Flows {
			if onLink(f) {
				b += units.ByteCount(float64(fr.Goodput) * res.Window.Seconds() / 8)
			}
		}
		return b
	}
	if cfg.Topology == nil {
		u := res.Utilization
		carried := units.ByteCount(u * float64(cfg.Rate) * (cfg.Warmup + res.Window).Seconds() / 8)
		if !(u >= 0 && u <= 1) {
			return fmt.Errorf("utilization %v outside [0,1]", u)
		}
		if d := delivered(func(int) bool { return true }); d > carried {
			return fmt.Errorf("flows delivered %d bytes in the window, the link carried %d in the run", d, carried)
		}
		return nil
	}
	for i, l := range res.Links {
		if !(l.Utilization >= 0 && l.Utilization <= 1) {
			return fmt.Errorf("link %s utilization %v outside [0,1]", l.Name, l.Utilization)
		}
		d := delivered(func(f int) bool { return slices.Contains(cfg.Topology.Paths[f], i) })
		if d > l.TxBytes {
			return fmt.Errorf("flows over link %s delivered %d bytes in the window, the link carried %d in the run", l.Name, d, l.TxBytes)
		}
	}
	return nil
}

// digestOf fingerprints what a run simulated: events, drops, CE marks
// and the sorted per-flow goodputs. A change that only speeds the
// program up leaves every digest unchanged.
func digestOf(res core.RunResult) string {
	g := res.SortedGoodputs()
	h := sha256.New()
	var b [8]byte
	for _, x := range append([]float64{float64(res.Events), float64(res.TotalDrops), float64(res.CEMarks)}, g...) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("events=%d drops=%d ce_marks=%d goodput_mbps_median=%.3f sha256=%x",
		res.Events, res.TotalDrops, res.CEMarks, median(g)/float64(units.MbitPerSec), h.Sum(nil)[:8])
}
