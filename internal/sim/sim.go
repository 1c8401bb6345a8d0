// Package sim is a deterministic discrete-event simulation engine with a
// virtual clock. It substitutes for the paper's real Frontera testbed:
// every figure in the evaluation is a statement about ratios of bandwidth
// over time, which the virtual clock reproduces deterministically and
// several orders of magnitude faster than wall time.
//
// The engine is single-threaded: events fire in timestamp order (FIFO
// among equal timestamps, by sequence number), and each event handler runs
// to completion before the next fires. No goroutines, no locks, no races.
// An event is a value — a handler and its firing time — and cannot be
// cancelled; a handler that may go stale checks its own state when it
// fires, and a periodic loop reschedules itself.
package sim

import (
	"fmt"
	"time"
)

// event is a scheduled handler, ordered by (at, seq).
type event struct {
	at  time.Duration
	seq uint64
	fn  func(now time.Duration)
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event executor over a virtual clock that starts
// at zero.
type Engine struct {
	now    time.Duration
	seq    uint64
	events []event // binary min-heap by (at, seq)
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn at absolute virtual time t; fn receives t. Scheduling
// in the past panics: it would silently reorder causality.
func (e *Engine) At(t time.Duration, fn func(now time.Duration)) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	h := append(e.events, event{at: t, seq: e.seq, fn: fn})
	// Sift up.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.events = h
}

// After schedules fn d from now. Negative d panics.
func (e *Engine) After(d time.Duration, fn func(now time.Duration)) {
	e.At(e.now+d, fn)
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the handler reference
	h = h[:n]
	// Sift down.
	i := 0
	for {
		m := i
		if l := 2*i + 1; l < n && h[l].before(&h[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && h[r].before(&h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.events = h
	return top
}

// RunUntil executes events until the clock would pass deadline; the clock
// is left exactly at deadline. Events scheduled at the deadline itself are
// executed.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		ev := e.pop()
		e.now = ev.at
		ev.fn(ev.at)
	}
	if e.now < deadline {
		e.now = deadline
	}
}
