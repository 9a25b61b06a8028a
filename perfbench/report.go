package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one named, unit-carrying measurement.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// result collects one benchmark run's metrics and outcome counts and
// prints them: one line per metric for people, then the JSON line.
type result struct {
	out       io.Writer
	metrics   []metric
	attempted int
	failed    int
	problems  []string
}

func (r *result) add(name, unit string, value float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, note: note})
}

// op records one attempted operation; a non-nil err counts it failed.
func (r *result) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
		return false
	}
	return true
}

// endToEnd is one run's end-to-end samples. add reports them under the
// same names and units on every workload; the notes say how each was
// measured on this one.
type endToEnd struct {
	setup, walls, cpus, heaps, allocs, events, latencies []float64
	jobsPerS                                             float64

	setupNote, wallNote, cpuNote, perRunNote, jobsNote, latencyNote string
}

func (m endToEnd) add(r *result) {
	r.add("setup_s", "s", median(m.setup), m.setupNote)
	r.add("wall_s", "s", median(m.walls), m.wallNote)
	r.add("cpu_s", "s", median(m.cpus), m.cpuNote)
	r.add("peak_heap_mb", "MiB", median(m.heaps), "peak sampled /gc/heap/live:bytes; "+m.perRunNote)
	r.add("allocs_per_run", "count", median(m.allocs), m.perRunNote)
	r.add("events_per_run", "count", median(m.events), m.perRunNote)
	r.add("jobs_per_s", "jobs/s", m.jobsPerS, m.jobsNote)
	r.add("job_p50_s", "s", median(m.latencies), m.latencyNote)
	v, beyond := tail(m.latencies)
	r.add("job_tail_s", "s", v, fmt.Sprintf("p75 of %d samples, %d beyond", len(m.latencies), beyond))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) write() error {
	w := r.out
	for _, p := range r.problems {
		fmt.Fprintf(w, "check FAILED: %s\n", p)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %-14.6g %-8s %d of %d operations failed\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-28s %-14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a number", m.name)
		}
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
