// Package obsrv is the live observability plane: a run registry recording
// every driver job (in memory, with an append-only JSONL journal keyed by
// the deterministic memo keys), a per-run flight recorder ringing the most
// recent simulator events, and an embeddable HTTP observatory serving
// /metrics, /healthz, /runs, per-run JSON and SSE event streams, and
// /debug/pprof. It is the first concrete slice of the ROADMAP's `acrd`
// service: everything here observes the bench driver through the
// bench.Lifecycle seam and the sim.Observer contract — nothing feeds back
// into simulated results, so observation on or off is bit-identical by
// construction (the PR 3 invariant, enforced by the sim telemetry
// determinism tests and TestRegistryObservationInvariant).
package obsrv

import "acr/internal/sim"

// flightRing is a fixed-capacity ring of recent sim.Events with absolute
// sequence numbers: seq counts every event ever recorded, so a reader
// holding a cursor can detect both new events and how many it missed when
// the ring lapped it. It reuses the Config.TimelineCap idea — bound memory
// for arbitrarily long runs — but lives driver-side and is safe to read
// while the run is in flight (callers synchronise through the owning
// record's mutex).
type flightRing struct {
	buf []sim.Event
	seq uint64 // total events recorded since the ring was created
}

func newFlightRing(capacity int) *flightRing {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &flightRing{buf: make([]sim.Event, 0, capacity)}
}

// push records one event, evicting the oldest when full.
func (f *flightRing) push(e sim.Event) {
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, e)
	} else {
		f.buf[f.seq%uint64(cap(f.buf))] = e
	}
	f.seq++
}

// oldest returns the sequence number of the earliest retained event.
func (f *flightRing) oldest() uint64 {
	return f.seq - uint64(len(f.buf))
}

// since returns the retained events with sequence numbers > after, in
// recording order, together with the sequence number of the last returned
// event (== after when nothing new) and the count of events the caller
// missed because the ring evicted them past its cursor.
func (f *flightRing) since(after uint64) (events []sim.Event, last uint64, missed uint64) {
	if after >= f.seq {
		return nil, after, 0
	}
	from := after
	if oldest := f.oldest(); from < oldest {
		missed = oldest - from
		from = oldest
	}
	events = make([]sim.Event, 0, f.seq-from)
	for s := from; s < f.seq; s++ {
		if len(f.buf) < cap(f.buf) {
			events = append(events, f.buf[s])
		} else {
			events = append(events, f.buf[s%uint64(cap(f.buf))])
		}
	}
	return events, f.seq, missed
}
