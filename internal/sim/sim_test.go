package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(2*time.Second, func(time.Duration) { got = append(got, 2) })
	e.At(1*time.Second, func(time.Duration) { got = append(got, 1) })
	e.At(3*time.Second, func(time.Duration) { got = append(got, 3) })
	e.RunUntil(3 * time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func(time.Duration) { got = append(got, i) })
	}
	e.RunUntil(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-timestamp events reordered: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(time.Second, func(time.Duration) {
		defer func() {
			if recover() == nil {
				t.Error("want panic scheduling in the past")
			}
		}()
		e.At(0, func(time.Duration) {})
	})
	e.RunUntil(time.Second)
}

func TestAfterNesting(t *testing.T) {
	e := New()
	var fired time.Duration
	e.After(time.Second, func(time.Duration) {
		e.After(2*time.Second, func(now time.Duration) { fired = now })
	})
	e.RunUntil(10 * time.Second)
	if fired != 3*time.Second {
		t.Fatalf("nested After fired at %v, want 3s", fired)
	}
}

func TestRunUntilLeavesClockAtDeadline(t *testing.T) {
	e := New()
	fired := false
	e.At(10*time.Second, func(time.Duration) { fired = true })
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Fatalf("now = %v, want 5s", e.Now())
	}
	if fired {
		t.Fatal("event past the deadline fired")
	}
	e.RunUntil(10 * time.Second)
	if !fired || e.Now() != 10*time.Second {
		t.Fatalf("fired=%v now=%v, want true at 10s", fired, e.Now())
	}
}

// TestEventOrderMatchesStableSort pins the hand-written heap against the
// order it must reproduce: by time, ties broken by scheduling order. A
// quarter of the events are scheduled from inside handlers, some at the
// handler's own time (a tie with events already queued).
func TestEventOrderMatchesStableSort(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(34))
	e := New()
	type sched struct {
		id int
		at time.Duration
	}
	var scheduled []sched // in scheduling order
	var fired []int
	var fire func(id int) func(time.Duration)
	add := func(at time.Duration) {
		id := len(scheduled)
		scheduled = append(scheduled, sched{id, at})
		e.At(at, fire(id))
	}
	fire = func(id int) func(time.Duration) {
		return func(now time.Duration) {
			if now != scheduled[id].at || e.Now() != now {
				t.Fatalf("event %d fired at %v (clock %v), scheduled for %v", id, now, e.Now(), scheduled[id].at)
			}
			fired = append(fired, id)
			if len(scheduled) < n {
				add(now + time.Duration(rng.Intn(8))) // 0: ties with now
			}
		}
	}
	for len(scheduled) < n*3/4 {
		add(time.Duration(rng.Intn(64))) // 64 distinct times: many ties
	}
	e.RunUntil(time.Hour)

	want := append([]sched(nil), scheduled...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(fired) != n {
		t.Fatalf("fired %d of %d events", len(fired), n)
	}
	for i := range want {
		if fired[i] != want[i].id {
			t.Fatalf("position %d: fired event %d, stable sort says %d", i, fired[i], want[i].id)
		}
	}
}
