// Command perfbench is ccatscale's benchmark. One invocation measures
// one workload for a fixed time and prints every metric by name and
// unit, the host identity, a results digest, and the outcome of every
// output check; its last line is one JSON object with the run's
// verdict and metrics.
//
// With -trace 0 it reports the end-to-end metrics, measured untraced.
// With -trace 1 it reports the per-layer metrics from a separate traced
// run: spans recorded around the calls between the simulator's layers
// (see mirror.go), plus the layers' own counters and ccserve's job
// phases. README.md maps each workload to the layers it loads.
//
// Run it from the repository root through perfbench/run.sh, which
// builds this command and ccserve from the checkout first.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"ccatscale/internal/core"
	"ccatscale/internal/report"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// env is one invocation's settings.
type env struct {
	workload string
	seed     uint64
	budget   time.Duration
	ccserve  string // path to a ccserve binary built from this checkout
	work     string // scratch directory for ccserve stores
	out      io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: core_reno, edge_bbr, parkinglot_ecn or serve")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		secs     = fs.Int("seconds", 10, "measurement time")
		traced   = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		ccserve  = fs.String("ccserve", "", "ccserve binary built from this checkout")
		work     = fs.String("work", "", "scratch directory, removed at exit")
		rev      = fs.String("rev", "unknown", "VCS revision of the checkout")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *secs < 1 || (*traced != 0 && *traced != 1) ||
		*ccserve == "" || *work == "" {
		fmt.Fprintf(stderr, "perfbench: need -workload %v, -seconds ≥ 1, -trace 0|1, -ccserve and -work\n", workloads)
		return 2
	}
	e := &env{workload: *workload, seed: *seed, budget: time.Duration(*secs) * time.Second,
		ccserve: *ccserve, work: *work, out: stdout}
	defer os.RemoveAll(e.work)

	fmt.Fprintf(stdout, "host %s\n", hostIdentity(*rev))
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%d trace=%d\n", e.workload, e.seed, *secs, *traced)
	r := &result{out: stdout}
	var err error
	switch {
	case e.workload == "serve" && *traced == 0:
		err = runServe(e, r)
	case e.workload == "serve":
		err = traceServe(e, r)
	case *traced == 0:
		err = runInProcess(e, r)
	default:
		err = traceInProcess(e, r)
	}
	if err == nil {
		err = r.write()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	return 0
}

// runServe measures ccserve end to end: median boot-to-ready over fresh
// boots, then a closed loop of clients for the run's budget. Some served
// results are re-run in process and must match what was served; those
// reference runs also give the per-run event, allocation and heap
// figures of the served job.
func runServe(e *env, r *result) error {
	// ccserve fsyncs while it boots; flush what the build left dirty
	// first, so boots do not wait on someone else's writeback.
	syscall.Sync()
	// Boots are timed before and after the loop, so that one slow spell
	// of a shared host does not set the median.
	var boots []float64
	boot := func(i int) (*ccserve, error) {
		dir, err := serveDir(e, i)
		if err != nil {
			return nil, err
		}
		s, d, err := bootCCServe(e.ccserve, dir)
		if err != nil {
			return nil, err
		}
		boots = append(boots, d.Seconds())
		return s, nil
	}
	bootAndStop := func(from, to int) error {
		for i := from; i < to; i++ {
			s, err := boot(i)
			if err != nil {
				return err
			}
			if err := s.stop(); err != nil {
				return fmt.Errorf("ccserve boot %d: %w", i, err)
			}
		}
		return nil
	}
	if err := bootAndStop(0, serveBoots/2); err != nil {
		return err
	}
	s, err := boot(serveBoots / 2)
	if err != nil {
		return err
	}
	cpu0, err := s.cpu()
	if err != nil {
		s.stop()
		return err
	}
	jobs, _, elapsed := s.closedLoop(e.seed, e.budget, r)
	err = s.idle()
	cpu1, cpuErr := s.cpu()
	if stopErr := s.stop(); err == nil {
		err = stopErr
	}
	if err == nil {
		err = cpuErr
	}
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no job completed")
	}
	if err := bootAndStop(serveBoots/2+1, serveBoots); err != nil {
		return err
	}

	m := endToEnd{
		setup:       boots,
		cpus:        []float64{(cpu1 - cpu0).Seconds() / float64(len(jobs))},
		jobsPerS:    float64(len(jobs)) / elapsed.Seconds(),
		setupNote:   fmt.Sprintf("median of %d boots to a ready /healthz", len(boots)),
		wallNote:    fmt.Sprintf("median JobStatus.WallMs of %d jobs", len(jobs)),
		cpuNote:     "ccserve and its workers, per job",
		jobsNote:    fmt.Sprintf("closed loop, %d clients", serveClients),
		latencyNote: "submit to terminal state",
	}
	for _, js := range jobs {
		m.walls = append(m.walls, js.wallMs/1000)
		m.latencies = append(m.latencies, js.latency.Seconds())
	}
	for _, js := range jobs[:min(serveRefs, len(jobs))] {
		res, c, err := verifyServed(s.out, js)
		if !r.op(err) {
			continue
		}
		m.heaps = append(m.heaps, float64(c.peakHeap)/(1<<20))
		m.allocs = append(m.allocs, float64(c.allocs))
		m.events = append(m.events, float64(res.Events))
		fmt.Fprintf(e.out, "digest serve seed=%d %s\n", js.spec.Seed, digestOf(res))
	}
	if len(m.events) == 0 {
		return nil
	}
	m.perRunNote = fmt.Sprintf("in-process re-run of %d served jobs", len(m.events))
	m.add(r)
	return nil
}

// verifyServed re-runs a served job in process and checks that the
// result ccserve committed to its store reports the same per-flow
// delivered segments and drops.
func verifyServed(dir string, js jobSample) (core.RunResult, cost, error) {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return core.RunResult{}, cost{}, err
	}
	payload, err := st.Get(js.key)
	if err != nil {
		return core.RunResult{}, cost{}, fmt.Errorf("served result %s: %w", js.key, err)
	}
	tab, err := report.ReadJSON(bytes.NewReader(payload))
	if err != nil {
		return core.RunResult{}, cost{}, fmt.Errorf("served result %s: %w", js.key, err)
	}
	cfg, err := jobConfig(js.spec)
	if err != nil {
		return core.RunResult{}, cost{}, err
	}
	var res core.RunResult
	c := measured(func() { res, err = core.Run(cfg) })
	if err := checkRun(cfg, res, err); err != nil {
		return res, c, err
	}
	if len(tab.Rows) != len(res.Flows) {
		return res, c, fmt.Errorf("served result %s has %d rows for %d flows", js.key, len(tab.Rows), len(res.Flows))
	}
	for i, f := range res.Flows {
		row := tab.Rows[i]
		if len(row) < 6 || row[4] != fmt.Sprint(f.SegmentsDelivered) || row[5] != fmt.Sprint(f.Drops) {
			return res, c, fmt.Errorf("served result %s flow %d: %v, in-process delivered %d drops %d",
				js.key, i, row, f.SegmentsDelivered, f.Drops)
		}
	}
	return res, c, nil
}

// jobConfig compiles a job spec the way ccserve does.
func jobConfig(spec schema.JobSpec) (core.RunConfig, error) {
	s, flows, err := core.CompileSpec(spec)
	if err != nil {
		return core.RunConfig{}, err
	}
	return s.Build(flows, core.WithSeed(core.Seed(spec.Seed))), nil
}

// traceInProcess measures an in-process workload layer by layer:
// traced rounds over its simulations, then its first simulation served
// once by ccserve.
func traceInProcess(e *env, r *result) error {
	var first schema.JobSpec
	p, err := probeLayers(func(k int) (core.RunConfig, []float64, error) {
		doc, err := scenarioDoc(e.workload, simSeed(e.seed, k))
		if err != nil {
			return core.RunConfig{}, nil, err
		}
		c, err := compile(doc)
		if err != nil {
			return core.RunConfig{}, nil, err
		}
		if k == 0 {
			first = c.scn.JobSpec
		}
		times, err := repeatTimed(func() error {
			b, err := core.NewScenarioBuilder(c.scn)
			if err == nil {
				b.RunConfig()
			}
			return err
		})
		return c.cfg, times, err
	}, e.budget, r)
	if err != nil {
		return err
	}
	p.addLayers(r)

	dir, err := serveDir(e, 0)
	if err != nil {
		return err
	}
	s, _, err := bootCCServe(e.ccserve, dir)
	if err != nil {
		return err
	}
	js, err := s.runJob(first)
	spawns, spawnErr := s.spawns()
	if stopErr := s.stop(); spawnErr == nil {
		spawnErr = stopErr
	}
	if spawnErr != nil {
		return spawnErr
	}
	hits := 0
	if js.cached {
		hits = 1
	}
	if !r.op(err) {
		return nil
	}
	addServeLayers(r, []jobSample{js}, spawns, hits)
	return nil
}

// traceServe measures ccserve's job phases over a closed loop, then
// breaks the served jobs down by layer in process. The estimator's
// wall time is judged against the served WallMs.
func traceServe(e *env, r *result) error {
	dir, err := serveDir(e, 0)
	if err != nil {
		return err
	}
	s, _, err := bootCCServe(e.ccserve, dir)
	if err != nil {
		return err
	}
	jobs, hits, _ := s.closedLoop(e.seed, e.budget, r)
	err = s.idle()
	spawns, spawnErr := s.spawns()
	if stopErr := s.stop(); err == nil {
		err = stopErr
	}
	if err == nil {
		err = spawnErr
	}
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no job completed")
	}
	addServeLayers(r, jobs, spawns, hits)

	p, err := probeLayers(func(k int) (core.RunConfig, []float64, error) {
		spec := jobs[k%len(jobs)].spec
		var cfg core.RunConfig
		times, err := repeatTimed(func() error {
			var err error
			cfg, err = jobConfig(spec)
			return err
		})
		return cfg, times, err
	}, e.budget/4, r)
	if err != nil {
		return err
	}
	var served []float64
	for _, js := range jobs {
		cfg, err := jobConfig(js.spec)
		if err != nil {
			return err
		}
		served = append(served, core.EstimateConfig(cfg).Wall.Seconds()/(js.wallMs/1000))
	}
	p.wallRatio = served
	p.addLayers(r)
	return nil
}
