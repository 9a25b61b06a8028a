package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"ccatscale/internal/cca"
	"ccatscale/internal/core"
	"ccatscale/internal/schema"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// tinyConfigs cover both fabrics, every CCA the workloads use (BBR and
// BBRv2 carry the RecoveryController marker), loss, ECN and CoDel.
func tinyConfigs(t *testing.T) map[string]core.RunConfig {
	t.Helper()
	dumbbell := core.RunConfig{
		Rate:   20 * units.MbitPerSec,
		Buffer: 128 * 1024,
		Flows: []core.FlowSpec{
			{CCA: "reno", RTT: 20 * sim.Millisecond},
			{CCA: "bbr", RTT: 20 * sim.Millisecond},
			{CCA: "cubic", RTT: 100 * sim.Millisecond},
			{CCA: "bbr", RTT: 100 * sim.Millisecond},
		},
		Warmup: sim.Second, Duration: 2 * sim.Second, Stagger: 200 * sim.Millisecond, Seed: 7,
	}
	codel := dumbbell
	codel.AQM, codel.ECN, codel.Seed = "codel", true, 8

	var scn schema.Scenario
	if err := json.Unmarshal(parkinglotDoc, &scn); err != nil {
		t.Fatal(err)
	}
	for i := range scn.Flows {
		scn.Flows[i].Count = 2
	}
	scn.Seed, scn.WarmupS, scn.DurationS = 9, 0.5, 1
	topo, err := jobConfig(scn.JobSpec)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]core.RunConfig{"dumbbell": dumbbell, "dumbbell-codel-ecn": codel, "parkinglot": topo}
}

func TestMirrorMatchesCoreRun(t *testing.T) {
	for name, cfg := range tinyConfigs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := runMirror(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkFidelity(m, res); err != nil {
				t.Fatal(err)
			}
			if res.TotalDrops == 0 && res.CEMarks == 0 {
				t.Errorf("config exercises neither loss nor marking")
			}
			for span := 0; span < numSpans; span++ {
				if m.calls[span] == 0 {
					t.Errorf("span %d never entered", span)
				}
			}
			if err := checkRun(cfg, res, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestFidelityGuardRejectsDivergence(t *testing.T) {
	cfg := tinyConfigs(t)["dumbbell"]
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := runMirror(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*mirrorResult){
		"events":  func(m *mirrorResult) { m.events++ },
		"goodput": func(m *mirrorResult) { m.goodput[1]++ },
		"drops":   func(m *mirrorResult) { m.flowDrops[0]++ },
	} {
		bad := m
		bad.goodput = append([]units.Bandwidth(nil), m.goodput...)
		bad.flowDrops = append([]uint64(nil), m.flowDrops...)
		mutate(&bad)
		if checkFidelity(bad, res) == nil {
			t.Errorf("%s: divergence not caught", name)
		}
	}
	// A different seed is a different simulation.
	cfg.Seed++
	if other, err := runMirror(cfg); err != nil || checkFidelity(other, res) == nil {
		t.Errorf("another seed's run passed the guard (err %v)", err)
	}
}

func TestWrapCCAKeepsRecoveryMarker(t *testing.T) {
	for name, want := range map[string]bool{"reno": false, "cubic": false, "bbr": true, "bbr2": true} {
		factory, _ := cca.ByName(name)
		c := factory(units.MSS, sim.NewRNG(1))
		_, inner := c.(cca.RecoveryController)
		_, wrapped := wrapCCA(c, &tracer{}).(cca.RecoveryController)
		if inner != want || wrapped != want {
			t.Errorf("%s: RecoveryController inner %v wrapped %v, want %v", name, inner, wrapped, want)
		}
	}
}

func TestScenarioDocsFollowTheSeed(t *testing.T) {
	for _, w := range workloads[:3] {
		a, err := scenarioDoc(w, simSeed(3, 1))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := scenarioDoc(w, simSeed(3, 1))
		c, _ := scenarioDoc(w, simSeed(3, 2))
		if !bytes.Equal(a, b) || bytes.Equal(a, c) {
			t.Errorf("%s: documents do not follow the seed", w)
		}
		if _, err := compile(a); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

// TestMetricNamesMatchBenchmark checks that the metrics a run prints
// are exactly those BENCHMARK.json declares, with the same units.
func TestMetricNamesMatchBenchmark(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for i, w := range bench.Workload {
		if i >= len(workloads) || workloads[i] != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %v here", i, w.Name, workloads)
		}
	}

	sample := []float64{1, 2, 3}
	e2e := &result{out: io.Discard}
	endToEnd{setup: sample, walls: sample, cpus: sample, heaps: sample, allocs: sample,
		events: sample, latencies: sample, jobsPerS: 1}.add(e2e)

	m := mirrorResult{events: 10}
	p := probe{compile: sample, analysis: sample, eventsRatio: sample, wallRatio: sample, heapRatio: sample,
		off: []cost{{wall: time.Second}}, traced: []cost{{wall: time.Second}}, strict: []cost{{wall: time.Second}},
		mirrors: []mirrorResult{m}}
	layers := &result{out: io.Discard}
	p.addLayers(layers)
	addServeLayers(layers, []jobSample{{wallMs: 1}}, 1, 0)

	for _, c := range []struct {
		kind string
		want []struct{ Name, Unit string }
		got  []metric
	}{{"end_to_end", bench.EndToEnd, e2e.metrics}, {"per_layer", bench.PerLayer, layers.metrics}} {
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for _, m := range c.got {
			if _, dup := got[m.name]; dup {
				t.Errorf("%s: %s printed twice", c.kind, m.name)
			}
			got[m.name] = m.unit
			if u, ok := want[m.name]; !ok || u != m.unit {
				t.Errorf("%s: printed %s [%s], BENCHMARK.json has [%s] (declared: %v)", c.kind, m.name, m.unit, u, ok)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: %s declared but not printed", c.kind, name)
			}
		}
	}
}
