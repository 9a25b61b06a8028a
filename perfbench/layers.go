package main

import (
	"fmt"
	"time"

	"ccatscale/internal/core"
)

// probe is what the traced rounds measured. Each round takes the next
// simulation's config and runs it untraced with audit off, through the
// traced mirror, and untraced under strict audit.
type probe struct {
	compile, analysis   []float64
	off, traced, strict []cost
	mirrors             []mirrorResult
	// The estimator's predictions over measured events, wall and heap,
	// per round; wall and heap are those of the config's own audit
	// policy.
	eventsRatio, wallRatio, heapRatio []float64
}

// probeLayers runs traced rounds until budget has passed (at least one
// round). next returns the k-th simulation's config and how long each
// of several compiles of it took. Every traced run must pass the
// fidelity guard against its audit-off run, and every strict run must
// give that run's results.
func probeLayers(next func(k int) (core.RunConfig, []float64, error), budget time.Duration, r *result) (probe, error) {
	var p probe
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < budget; k++ {
		cfg, compileTimes, err := next(k)
		if err != nil {
			return p, err
		}
		p.compile = append(p.compile, compileTimes...)
		off, strict := cfg, cfg
		off.Audit, strict.Audit = "off", "strict"

		var ref, sres core.RunResult
		cOff := measured(func() { ref, err = core.Run(off) })
		if !r.op(checkRun(off, ref, err)) {
			continue
		}
		var m mirrorResult
		cTraced := measured(func() { m, err = runMirror(off) })
		if err == nil {
			err = checkFidelity(m, ref)
		}
		if !r.op(err) {
			continue
		}
		cStrict := measured(func() { sres, err = core.Run(strict) })
		err = checkRun(strict, sres, err)
		if err == nil && digestOf(sres) != digestOf(ref) {
			err = fmt.Errorf("strict audit changed the results: %s vs %s", digestOf(sres), digestOf(ref))
		}
		if !r.op(err) {
			continue
		}
		p.off, p.traced, p.strict = append(p.off, cOff), append(p.traced, cTraced), append(p.strict, cStrict)
		p.mirrors = append(p.mirrors, m)

		times, _ := repeatTimed(func() error { analyze(ref); return nil })
		p.analysis = append(p.analysis, times...)
		asRun := cOff
		if cfg.Audit == "strict" {
			asRun = cStrict
		}
		fp := core.EstimateConfig(cfg)
		p.eventsRatio = append(p.eventsRatio, float64(fp.Processed)/float64(m.events))
		p.wallRatio = append(p.wallRatio, fp.Wall.Seconds()/asRun.wall.Seconds())
		p.heapRatio = append(p.heapRatio, float64(fp.HeapBytes)/float64(asRun.peakHeap))
	}
	if len(p.mirrors) == 0 {
		return p, fmt.Errorf("no traced round passed its checks")
	}
	return p, nil
}

func walls(cs []cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.wall.Seconds()
	}
	return out
}

// addLayers emits the sim, netem, tcp, cca, core, audit, budget and
// bench metrics of a probe: each the median over its rounds.
func (p probe) addLayers(r *result) {
	med := func(f func(mirrorResult) float64) float64 {
		xs := make([]float64, len(p.mirrors))
		for i, m := range p.mirrors {
			xs[i] = f(m)
		}
		return median(xs)
	}
	self := func(span int) float64 { return med(func(m mirrorResult) float64 { return m.self[span].Seconds() }) }
	calls := func(span int) float64 { return med(func(m mirrorResult) float64 { return float64(m.calls[span]) }) }
	count := func(f func(mirrorResult) uint64) float64 {
		return med(func(m mirrorResult) float64 { return float64(f(m)) })
	}

	r.add("sim.self_s", "s", med(func(m mirrorResult) float64 { return m.simSelf.Seconds() }), "includes port, propagation and timer events")
	r.add("sim.ns_per_event", "ns", med(func(m mirrorResult) float64 { return m.simSelf.Seconds() / float64(m.events) * 1e9 }), "sim self time per event")
	r.add("sim.peak_heap_cap", "count", med(func(m mirrorResult) float64 { return float64(m.peakCap) }), "max Engine.Cap")
	r.add("netem.send_data.calls", "count", calls(spanSendData), "")
	r.add("netem.send_data.self_s", "s", self(spanSendData), "")
	r.add("netem.send_ack.calls", "count", calls(spanSendAck), "")
	r.add("netem.send_ack.self_s", "s", self(spanSendAck), "")
	r.add("netem.drops", "count", count(func(m mirrorResult) uint64 { return m.drops }), "whole run")
	r.add("netem.peak_queue_pkts", "count", count(func(m mirrorResult) uint64 { return m.peakQueuePkts }), "max over links")
	r.add("netem.ce_marks", "count", count(func(m mirrorResult) uint64 { return m.ceMarks }), "")
	r.add("netem.utilization", "ratio", med(func(m mirrorResult) float64 { return m.utilization }), "primary bottleneck")
	r.add("tcp.on_data.calls", "count", calls(spanOnData), "")
	r.add("tcp.on_data.self_s", "s", self(spanOnData), "")
	r.add("tcp.on_ack.calls", "count", calls(spanOnAck), "")
	r.add("tcp.on_ack.self_s", "s", self(spanOnAck), "")
	r.add("tcp.ooo_segments", "count", count(func(m mirrorResult) uint64 { return m.oooSegments }), "")
	r.add("tcp.acks_sent", "count", count(func(m mirrorResult) uint64 { return m.acksSent }), "")
	r.add("tcp.retransmits", "count", count(func(m mirrorResult) uint64 { return m.retransmits }), "")
	r.add("cca.on_ack.calls", "count", calls(spanCCAOnAck), "")
	r.add("cca.on_ack.self_s", "s", self(spanCCAOnAck), "")
	r.add("cca.halvings", "count", count(func(m mirrorResult) uint64 { return m.halvings }), "fast recoveries + RTOs")
	r.add("cca.ecn_responses", "count", count(func(m mirrorResult) uint64 { return m.ecnResponses }), "")
	r.add("core.compile_s", "s", median(p.compile), "CompileSpec + Build")
	r.add("core.analysis_s", "s", median(p.analysis), "MathisAnalyze + JFI + ShareByCCA")
	r.add("audit.overhead_s", "s", median(walls(p.strict))-median(walls(p.off)), "strict minus audit-off core.Run wall")
	r.add("bench.trace_overhead_frac", "ratio", median(walls(p.traced))/median(walls(p.off))-1, "traced over untraced wall, minus 1")
	r.add("budget.events_ratio", "ratio", median(p.eventsRatio), "EstimateConfig over measured")
	r.add("budget.wall_ratio", "ratio", median(p.wallRatio), "EstimateConfig over measured")
	r.add("budget.heap_ratio", "ratio", median(p.heapRatio), "EstimateConfig over measured peak live heap")
	fmt.Fprintf(r.out, "traced %d simulations, each matching core.Run (audit off) in events, per-flow delivered bytes and drops; layer metrics are medians over them\n",
		len(p.mirrors))
}

// addServeLayers emits what a set of served jobs measured at the
// ccserve and store layers.
func addServeLayers(r *result, jobs []jobSample, spawns int64, cacheHits int) {
	var submit, run, over []float64
	for _, j := range jobs {
		submit = append(submit, j.submit.Seconds())
		run = append(run, j.wallMs/1000)
		over = append(over, j.latency.Seconds()-j.wallMs/1000)
	}
	n := fmt.Sprintf("median of %d jobs", len(jobs))
	r.add("ccserve.submit_s", "s", median(submit), n)
	r.add("ccserve.run_s", "s", median(run), "JobStatus.WallMs")
	r.add("ccserve.overhead_s", "s", median(over), "latency minus WallMs: queue, spawn, lease, commit")
	r.add("ccserve.spawns_per_job", "ratio", float64(spawns)/float64(len(jobs)), "fleet_spawns")
	r.add("store.cache_hits", "count", float64(cacheHits), "must be 0")
}
