package sim

// Observer receives machine-level events — checkpoints, deferrals, barrier
// releases, error detections, recoveries — as they are committed. Timeline
// capture (Config.RecordTimeline) is itself an observer; external metering
// or tracing (internal/telemetry) attaches through Config.Observers instead
// of inline branches in the engines.
//
// Delivery contract: every observer sees the same stream, in emission
// order. Timestamps are nondecreasing — each event is stamped at or after
// the machine point it was committed — with one documented exception:
// EvDefer is stamped with the deferred boundary's wall-clock time, which
// can trail a barrier release that overshot the boundary.
//
// Observers must not mutate machine state: the simulation's determinism
// invariant (bit-identical results for identical configs, with observation
// attached or not) is maintained by keeping observation strictly one-way.
// A mutating observer is a bug, and the regression tests are written to
// catch it: TestMutatingObserverCaught is the standing mutation, and
// TestTelemetryPreservesDeterminism runs the production observers (the
// telemetry Collector and Tracer) attached and detached.
type Observer interface {
	OnEvent(e Event)
}

// timelineRecorder is the built-in observer behind Config.RecordTimeline.
// With a zero cap it retains every event for Result.Timeline; with a
// positive cap (Config.TimelineCap) it is a ring buffer retaining the most
// recent cap events, so long runs cannot exhaust memory.
type timelineRecorder struct {
	cap     int
	events  []Event
	next    int // ring write index once len(events) == cap
	dropped int64
}

func (t *timelineRecorder) OnEvent(e Event) {
	if t.cap <= 0 || len(t.events) < t.cap {
		t.events = append(t.events, e)
		return
	}
	t.events[t.next] = e
	t.next = (t.next + 1) % t.cap
	t.dropped++
}

// snapshot returns the retained events in emission order.
func (t *timelineRecorder) snapshot() []Event {
	if t.dropped == 0 {
		return t.events
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}
