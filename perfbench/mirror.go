package main

import (
	"fmt"
	"time"

	"ccatscale/internal/cca"
	"ccatscale/internal/core"
	"ccatscale/internal/netem"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/tcp"
	"ccatscale/internal/trace"
	"ccatscale/internal/units"
)

// The traced mirror rebuilds core.RunCtx's wiring for an audit-off,
// impairment-free, unbudgeted, uninstrumented run from the same public
// constructors, and wraps every call that crosses a layer boundary in a
// span. It lives here, outside the program, so the program carries no
// tracing code; the fidelity guard (checkFidelity) proves after every
// traced run that the mirror simulated exactly what core.Run simulates.

// Span layers: each wrapped boundary call is one of these.
const (
	spanSendData = iota // Fabric.SendData, called by the sender's output
	spanSendAck         // Fabric.SendAck, called by the receiver
	spanOnData          // the fabric's receiver sink → Receiver.OnData
	spanOnAck           // the fabric's sender sink → Sender.OnAck
	spanCCAOnAck        // cca.CCA.OnAck, called by the sender
	numSpans
)

// tracer keeps the open spans on a stack. When a span closes, its
// duration minus the time its children covered is its self time, and its
// whole duration is charged to its parent as child time. Time that no
// wrapped span covers is the engine's own (sim) self time.
type tracer struct {
	starts    []time.Time
	children  []time.Duration
	rootChild time.Duration
	self      [numSpans]time.Duration
	calls     [numSpans]uint64
}

func (t *tracer) enter() {
	t.starts = append(t.starts, time.Now())
	t.children = append(t.children, 0)
}

func (t *tracer) exit(kind int) {
	top := len(t.starts) - 1
	d := time.Since(t.starts[top])
	t.self[kind] += d - t.children[top]
	t.calls[kind]++
	t.starts, t.children = t.starts[:top], t.children[:top]
	if top > 0 {
		t.children[top-1] += d
	} else {
		t.rootChild += d
	}
}

// timedCCA times OnAck and forwards every other method untouched.
type timedCCA struct {
	cca.CCA
	tr *tracer
}

func (c *timedCCA) OnAck(ev cca.AckEvent) {
	c.tr.enter()
	c.CCA.OnAck(ev)
	c.tr.exit(spanCCAOnAck)
}

// timedRecoveryCCA re-exposes the cca.RecoveryController marker, which
// the sender checks to decide between the CCA's own recovery and PRR.
type timedRecoveryCCA struct{ *timedCCA }

func (timedRecoveryCCA) ControlsRecovery() {}

func wrapCCA(c cca.CCA, tr *tracer) cca.CCA {
	w := &timedCCA{CCA: c, tr: tr}
	if _, ok := c.(cca.RecoveryController); ok {
		return timedRecoveryCCA{w}
	}
	return w
}

// mirrorResult is what one traced run observed: the fidelity fields
// compared against core.Run, span totals, and layer counters.
type mirrorResult struct {
	events     uint64
	window     sim.Time
	goodput    []units.Bandwidth // per flow, over the measurement window
	flowDrops  []uint64          // per flow, over the measurement window
	totalDrops uint64            // over the measurement window

	wall    time.Duration // Engine.Run, traced
	simSelf time.Duration // Engine.Run minus every top-level span
	self    [numSpans]time.Duration
	calls   [numSpans]uint64
	peakCap int

	drops, ceMarks, peakQueuePkts      uint64
	utilization                        float64
	oooSegments, acksSent, retransmits uint64
	halvings, ecnResponses             uint64
}

// interruptEvery matches core's supervisor cadence; the hook only reads
// Engine.Cap, so it cannot perturb the run.
const interruptEvery = 1 << 13

// runMirror executes cfg through the traced mirror. cfg must be a
// configuration the mirror supports: no audit, impairments, budget,
// telemetry, series, convergence rule, or fault injection.
func runMirror(cfg core.RunConfig) (mirrorResult, error) {
	switch {
	case cfg.Audit != "" && cfg.Audit != "off",
		cfg.RandomLoss > 0, cfg.Jitter > 0, cfg.BurstLoss != nil, cfg.Outage != nil,
		cfg.Budget != nil, cfg.Collector != nil, cfg.SeriesInterval > 0, cfg.Converge > 0,
		cfg.FaultPanicAt > 0, cfg.AuditDrillAt > 0, cfg.WallLimit > 0, cfg.StallEvents > 0:
		return mirrorResult{}, fmt.Errorf("mirror: config uses a feature the traced mirror does not wire")
	}
	// core.RunConfig.withDefaults, for the fields the mirror reads.
	mss := cfg.MSS
	if mss <= 0 {
		mss = units.MSS
	}
	delAck := cfg.DelAckDelay
	if delAck == 0 {
		delAck = tcp.DelayedAckTimeout
	}
	if delAck < 0 {
		delAck = 0
	}
	gro := cfg.GROWindow
	if gro == 0 {
		gro = tcp.GROWindow
	}
	if gro < 0 {
		gro = 0
	}

	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	qlog := trace.NewQueueLog(cfg.MaxDropTimestamps)
	qlog.SetWindowStart(cfg.Warmup)
	rtts := make([]sim.Time, len(cfg.Flows))
	for i, f := range cfg.Flows {
		rtts[i] = f.RTT
	}

	// RNG draws happen in core's order: the topology's split, one split
	// per flow's CCA, then one stagger draw per flow.
	ecn := cfg.ECN
	var fab netem.Fabric
	if cfg.Topology != nil {
		for _, l := range cfg.Topology.Links {
			if l.ECN {
				ecn = true
				break
			}
		}
		fab = netem.NewTopology(eng, rng.Split(), netem.TopologyConfig{
			Spec: *cfg.Topology, RTT: rtts, OnDrop: qlog.OnDrop,
		})
	} else {
		discipline := netem.DropTail
		if cfg.AQM == "codel" {
			discipline = netem.CoDel
		}
		fab = netem.NewDumbbell(eng, netem.DumbbellConfig{
			Rate: cfg.Rate, Buffer: cfg.Buffer, RTT: rtts, OnDrop: qlog.OnDrop,
			Discipline: discipline, ECN: cfg.ECN, ECNMarkBytes: cfg.ECNMarkBytes,
		})
	}

	tr := &tracer{}
	sendData := func(p packet.Packet) {
		tr.enter()
		fab.SendData(p)
		tr.exit(spanSendData)
	}
	sendAck := func(p packet.Packet) {
		tr.enter()
		fab.SendAck(p)
		tr.exit(spanSendAck)
	}
	senders := make([]*tcp.Sender, len(cfg.Flows))
	receivers := make([]*tcp.Receiver, len(cfg.Flows))
	for i, f := range cfg.Flows {
		factory, ok := cca.ByName(f.CCA)
		if !ok {
			return mirrorResult{}, fmt.Errorf("mirror: flow %d has unknown CCA %q", i, f.CCA)
		}
		senders[i] = tcp.NewSender(eng, int32(i), tcp.Config{
			MSS:    mss,
			CCA:    wrapCCA(factory(mss, rng.Split()), tr),
			Output: sendData,
			ECN:    ecn,
		})
		receivers[i] = tcp.NewReceiver(eng, int32(i), tcp.ReceiverConfig{
			DelAckDelay: delAck,
			GROWindow:   gro,
		}, sendAck)
	}
	fab.SetEndpoints(
		func(p packet.Packet) {
			tr.enter()
			receivers[p.Flow].OnData(p)
			tr.exit(spanOnData)
		},
		func(p packet.Packet) {
			tr.enter()
			senders[p.Flow].OnAck(p)
			tr.exit(spanOnAck)
		},
	)
	for _, s := range senders {
		s.Start(rng.Dur(cfg.Stagger))
	}

	warmDelivered := make([]units.ByteCount, len(cfg.Flows))
	warmDrops := make([]uint64, len(cfg.Flows))
	eng.Schedule(cfg.Warmup, func() {
		for i := range cfg.Flows {
			warmDelivered[i] = receivers[i].Stats().Delivered
			warmDrops[i] = qlog.Flow(int32(i))
		}
	})

	var res mirrorResult
	eng.SetInterrupt(interruptEvery, func() {
		if c := eng.Cap(); c > res.peakCap {
			res.peakCap = c
		}
	})
	start := time.Now()
	stopAt := eng.Run(cfg.Warmup + cfg.Duration)
	res.wall = time.Since(start)
	res.simSelf = res.wall - tr.rootChild
	res.self, res.calls = tr.self, tr.calls
	res.peakCap = max(res.peakCap, eng.Cap())

	res.events = eng.Processed()
	res.window = stopAt - cfg.Warmup
	if res.window <= 0 {
		return mirrorResult{}, fmt.Errorf("mirror: run ended before warm-up completed")
	}
	for i := range cfg.Flows {
		delivered := receivers[i].Stats().Delivered - warmDelivered[i]
		res.goodput = append(res.goodput, units.Throughput(delivered, res.window))
		d := qlog.Flow(int32(i)) - warmDrops[i]
		res.flowDrops = append(res.flowDrops, d)
		res.totalDrops += d

		rs, ss := receivers[i].Stats(), senders[i].Stats()
		res.oooSegments += rs.OutOfOrderSegments
		res.acksSent += rs.AcksSent
		res.retransmits += ss.Retransmissions
		res.halvings += ss.FastRecoveries + ss.RTOs
		res.ecnResponses += ss.ECNResponses
	}
	res.drops = qlog.Total()
	res.utilization = fab.Port().Utilization()
	for _, l := range fab.LinkStats() {
		res.ceMarks += l.CEMarks
		res.peakQueuePkts = max(res.peakQueuePkts, uint64(l.QueueMaxLen))
	}
	return res, nil
}

// checkFidelity compares a traced run with an untraced core.Run of the
// same config: identical event count, per-flow delivered bytes (as
// window goodput) and drops, or the per-layer numbers would describe a
// different simulation than the one timed.
func checkFidelity(m mirrorResult, res core.RunResult) error {
	if m.events != res.Events {
		return fmt.Errorf("fidelity: traced mirror processed %d events, core.Run %d", m.events, res.Events)
	}
	if m.window != res.Window || len(m.goodput) != len(res.Flows) {
		return fmt.Errorf("fidelity: window or flow count differs (%v/%d vs %v/%d)",
			m.window, len(m.goodput), res.Window, len(res.Flows))
	}
	for i, f := range res.Flows {
		if m.goodput[i] != f.Goodput || m.flowDrops[i] != f.Drops {
			return fmt.Errorf("fidelity: flow %d: mirror goodput %v drops %d, core.Run goodput %v drops %d",
				i, m.goodput[i], m.flowDrops[i], f.Goodput, f.Drops)
		}
	}
	if m.totalDrops != res.TotalDrops {
		return fmt.Errorf("fidelity: mirror drops %d, core.Run %d", m.totalDrops, res.TotalDrops)
	}
	return nil
}
