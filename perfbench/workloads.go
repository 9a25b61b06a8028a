package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"ccatscale/internal/core"
	"ccatscale/internal/schema"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// Why each workload exists, and which layers it loads, is in README.md.
var workloads = []string{"core_reno", "edge_bbr", "parkinglot_ecn", "serve"}

//go:embed parkinglot_ecn.json
var parkinglotDoc []byte

// simSeed is the seed of a run's k-th simulation. A run measures many
// simulations because one simulation's cost depends strongly on its
// seed; the median over many is steady.
func simSeed(seed uint64, k int) uint64 { return seed<<20 | uint64(k) }

// scenarioDoc returns the scenario document of one simulation of an
// in-process workload: the inputs generated from the benchmark seed.
// The program receives only this document.
func scenarioDoc(workload string, seed uint64) ([]byte, error) {
	var scn schema.Scenario
	switch workload {
	case "core_reno":
		// §4's Mathis regime at CoreScale/10: 1 Gbps, 1.5×BDP(200 ms)
		// drop-tail buffer, NewReno at each of the paper's three RTTs.
		s := core.CoreScaleScaled(10)
		scn.JobSpec = schema.JobSpec{
			Name:        workload,
			RateMbps:    float64(s.Rate) / float64(units.MbitPerSec),
			BufferBytes: int64(s.Buffer),
			Flows:       groups([]string{"reno"}, 100),
			WarmupS:     3,
			DurationS:   7,
			StaggerS:    2,
		}
	case "edge_bbr":
		// Fig 8-style inter-CCA contention at EdgeScale. Short runs of
		// many flows: a run's cost through the receiver's out-of-order
		// path varies several-fold between seeds, and more so the longer
		// a run lasts and the wider each flow's window.
		s := core.EdgeScale()
		scn.JobSpec = schema.JobSpec{
			Name:        workload,
			RateMbps:    float64(s.Rate) / float64(units.MbitPerSec),
			BufferBytes: int64(s.Buffer),
			Flows:       groups([]string{"bbr", "cubic"}, 16),
			WarmupS:     1,
			DurationS:   4,
			StaggerS:    1,
		}
	case "parkinglot_ecn":
		if err := json.Unmarshal(parkinglotDoc, &scn); err != nil {
			return nil, fmt.Errorf("parkinglot_ecn.json: %w", err)
		}
	default:
		return nil, fmt.Errorf("no scenario document for workload %q", workload)
	}
	scn.SchemaVersion = schema.Version
	scn.Seed = seed
	return json.Marshal(&scn)
}

// serveJob is the job the serve workload's clients submit: a Fig 8-style
// edge run with tens of flows, about 0.2 s of simulation wall time.
func serveJob(name string, seed uint64) schema.JobSpec {
	s := core.EdgeScale()
	return schema.JobSpec{
		Name:        name,
		Seed:        seed,
		RateMbps:    float64(s.Rate) / float64(units.MbitPerSec),
		BufferBytes: int64(s.Buffer),
		Flows:       groups([]string{"bbr", "cubic"}, 8),
		WarmupS:     1,
		DurationS:   3,
		StaggerS:    1,
	}
}

// groups places n flows of each CCA at each of the paper's three RTTs.
func groups(ccas []string, n int) []schema.FlowGroup {
	var out []schema.FlowGroup
	for _, rtt := range core.RTTs {
		for _, c := range ccas {
			out = append(out, schema.FlowGroup{CCA: c, RTTMs: float64(rtt) / float64(sim.Millisecond), Count: n})
		}
	}
	return out
}

// compiled is one parsed and compiled scenario, ready to run.
type compiled struct {
	scn *schema.Scenario
	cfg core.RunConfig
}

// compile runs the program's scenario path: parse, compile, build.
func compile(doc []byte) (compiled, error) {
	scn, err := schema.ParseScenario(doc)
	if err != nil {
		return compiled{}, err
	}
	b, err := core.NewScenarioBuilder(scn)
	if err != nil {
		return compiled{}, err
	}
	return compiled{scn: scn, cfg: b.RunConfig()}, nil
}
