package budget

import (
	"fmt"
	"time"

	"ccatscale/internal/sim"
)

// Calibration constants of the footprint model. They are fitted against
// the PR 3 performance baseline (BENCH_pr3.json: BenchmarkEngineThroughput
// processed 384,935 events in 72.3 ms → ≈5.3M events/s) and a cmd/fprint
// reference run (4 NewReno flows at 50 Mbps for 10 virtual seconds:
// 141,024 events over ≈41k full-size data packets → ≈3.4 events per data
// packet, covering the packet's bottleneck enqueue/serialize/deliver hops
// plus the coalesced ACK path and timer churn). The constants are
// deliberately conservative (rounded toward over-prediction) because the
// estimator gates admission: over-predicting wastes a retry at a lower
// fidelity tier, under-predicting OOMs the sweep.
const (
	// EventsPerDataPacket converts predicted data packets into processed
	// simulator events.
	EventsPerDataPacket = 4.0
	// EventsPerFlowSecond covers per-flow housekeeping (RTO rearms,
	// delayed-ACK and pacing timers) not proportional to packet count.
	EventsPerFlowSecond = 64.0
	// WallEventsPerSecond converts processed events into wall-clock time
	// (BENCH_pr3: ≈5.3M events/s on the reference machine; 4M leaves
	// margin for slower hosts and cache-unfriendly giant runs).
	WallEventsPerSecond = 4.0e6
	// DropRetentionGuess predicts the fraction of data packets whose
	// drop timestamps a run with unbounded MaxDropTimestamps retains.
	// The paper's regimes run drop-tail buffers near 100% utilization;
	// 2% is above every loss rate the reproduction measures.
	DropRetentionGuess = 0.02
	// EventStructBytes is the in-memory cost of one engine event
	// (struct + heap slot + free-list slot).
	EventStructBytes = 96
	// PerFlowFixedBytes covers one sender+receiver pair's fixed state:
	// the minimum 256-slot send-window ring, RTT estimator, CCA state,
	// SACK scoreboard.
	PerFlowFixedBytes = 48 << 10
	// PerInflightSegmentBytes is the send-window cost of one in-flight
	// segment beyond the fixed rings (segState + sentAt + scoreboard).
	PerInflightSegmentBytes = 64
	// SeriesPointBytes is the retained cost of one throughput-series
	// sample cell; DropTimestampBytes of one drop timestamp.
	SeriesPointBytes   = 24
	DropTimestampBytes = 8
	// BaseHeapBytes is the fixed process overhead (runtime, harness,
	// tables) charged to every run.
	BaseHeapBytes = 32 << 20
)

// Input is the configuration signature the footprint model predicts
// from: flow count × capacity × horizon, plus the instrumentation knobs
// that drive trace retention. internal/core adapts a RunConfig into one
// of these (it knows defaults the model should not duplicate).
type Input struct {
	// Flows is the number of concurrent flows.
	Flows int
	// RateBps is the bottleneck bandwidth in bits/sec.
	RateBps int64
	// BufferBytes is the bottleneck queue capacity.
	BufferBytes int64
	// BDPBytes is rate × the largest base RTT (in-flight ceiling).
	BDPBytes int64
	// FrameBytes is the wire size of one full data segment (MSS +
	// header overhead).
	FrameBytes int64
	// SegmentBytes is the MSS (window accounting granularity).
	SegmentBytes int64
	// QueueSlots is the bottleneck ring preallocation (slots); zero lets
	// the model derive it from BufferBytes/FrameBytes.
	QueueSlots int64
	// QueueSlotBytes is the in-memory size of one queued packet.
	QueueSlotBytes int64
	// Horizon is the run's virtual end time (warm-up + duration).
	Horizon sim.Time
	// SeriesInterval and SeriesWidth describe the throughput series
	// (0 interval = no series).
	SeriesInterval sim.Time
	// SeriesWidth is the number of tracked series (distinct CCAs).
	SeriesWidth int
	// MaxDropTimestamps bounds retained drop timestamps (0 = unbounded,
	// the model predicts retention from the drop-rate guess).
	MaxDropTimestamps int64
}

// Footprint is the model's predicted cost of one run.
type Footprint struct {
	// HeapBytes is the predicted peak heap contribution.
	HeapBytes int64
	// Events is the predicted peak event-object footprint.
	Events int64
	// Processed is the predicted cumulative processed-event count.
	Processed int64
	// TracePoints is the predicted retained trace-point count.
	TracePoints int64
	// Wall is the predicted wall-clock time.
	Wall time.Duration
}

// Estimate predicts a configuration's resource footprint. The model is
// a deliberate order-of-magnitude tool: admission control needs to
// separate a 400 MB CoreScale run from a 4 GB mis-scaled one, not to
// predict allocator behavior byte-exactly.
func Estimate(in Input) Footprint {
	horizonSec := in.Horizon.Seconds()
	if horizonSec < 0 {
		horizonSec = 0
	}
	frame := in.FrameBytes
	if frame <= 0 {
		frame = 1518
	}
	seg := in.SegmentBytes
	if seg <= 0 {
		seg = frame
	}
	slotBytes := in.QueueSlotBytes
	if slotBytes <= 0 {
		slotBytes = 160
	}

	// Offered load: the bottleneck runs near saturation in every regime
	// the paper studies, so data packets ≈ line rate over the horizon.
	dataPackets := float64(in.RateBps) / 8 / float64(frame) * horizonSec

	// Processed events.
	processed := dataPackets*EventsPerDataPacket +
		float64(in.Flows)*horizonSec*EventsPerFlowSecond
	var seriesTicks float64
	if in.SeriesInterval > 0 {
		seriesTicks = horizonSec / in.SeriesInterval.Seconds()
		processed += seriesTicks
	}

	// Peak event-object footprint: a handful of live timers per flow,
	// doubled for the corpses compaction tolerates, plus the engine's
	// initial arena. Re-arms to a later deadline defer in place, so only
	// stopped and pulled-in timers leave corpses and the doubling errs
	// high — the safe side for an admission gate.
	events := int64(in.Flows)*16 + 2048

	// Trace retention.
	tracePoints := int64(seriesTicks) * int64(max(in.SeriesWidth, 1))
	if in.SeriesInterval <= 0 {
		tracePoints = 0
	}
	dropTs := float64(in.MaxDropTimestamps)
	if in.MaxDropTimestamps <= 0 {
		dropTs = dataPackets * DropRetentionGuess
	}
	tracePoints += int64(dropTs)

	// Queue ring: preallocated for a buffer full of full-size frames.
	slots := in.QueueSlots
	if slots <= 0 {
		slots = in.BufferBytes/frame + 1
	}
	// In-flight window state: the segments that can be outstanding
	// across all flows together (buffer + BDP), independent of how many
	// flows share them — plus each flow's fixed minimum.
	inflightSegs := (in.BufferBytes + in.BDPBytes) / seg

	heap := int64(BaseHeapBytes) +
		slots*slotBytes +
		events*EventStructBytes +
		int64(in.Flows)*PerFlowFixedBytes +
		inflightSegs*PerInflightSegmentBytes +
		tracePoints*SeriesPointBytes +
		int64(dropTs)*DropTimestampBytes

	return Footprint{
		HeapBytes:   heap,
		Events:      events,
		Processed:   int64(processed),
		TracePoints: tracePoints,
		Wall:        time.Duration(processed / WallEventsPerSecond * float64(time.Second)),
	}
}

// Check compares the predicted footprint against a budget and returns
// the first breach as an admission-stage BudgetError, or nil when the
// configuration fits. horizon is the run's virtual end time, checked
// against the budget's Horizon cap.
func (f Footprint) Check(b *Budget, horizon sim.Time) *BudgetError {
	if b.Unlimited() {
		return nil
	}
	reject := func(kind Kind, limit, observed int64, detail string) *BudgetError {
		return &BudgetError{Kind: kind, Stage: StageAdmission, Limit: limit,
			Observed: observed, Detail: detail}
	}
	if b.HeapBytes > 0 && f.HeapBytes > b.HeapBytes {
		return reject(KindHeapBytes, b.HeapBytes, f.HeapBytes,
			"estimated peak heap from flows × capacity × horizon")
	}
	if b.Events > 0 && f.Events > b.Events {
		return reject(KindEvents, b.Events, f.Events,
			"estimated peak event-object footprint")
	}
	if b.TracePoints > 0 && f.TracePoints > b.TracePoints {
		return reject(KindTracePoints, b.TracePoints, f.TracePoints,
			"estimated retained series samples + drop timestamps")
	}
	if b.Wall > 0 && f.Wall > b.Wall {
		return reject(KindWallClock, int64(b.Wall), int64(f.Wall),
			fmt.Sprintf("estimated %d processed events at %.0f events/s",
				f.Processed, float64(WallEventsPerSecond)))
	}
	if b.Horizon > 0 && horizon > b.Horizon {
		return reject(KindHorizon, int64(b.Horizon), int64(horizon),
			"virtual end time (warm-up + duration)")
	}
	return nil
}
