package workload

import (
	"testing"
	"testing/quick"
	"time"

	"themisio/internal/sched"
)

func drain(s Stream, max int) []Item {
	var out []Item
	for i := 0; i < max; i++ {
		it, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, it)
	}
	return out
}

func TestWriteReadCycleAlternates(t *testing.T) {
	s := WriteReadCycle(3*MB, MB)
	items := drain(s, 12)
	if len(items) != 12 {
		t.Fatal("cycle stream should be infinite")
	}
	for i := 0; i < 3; i++ {
		if items[i].Op != sched.OpWrite || items[i].Bytes != MB {
			t.Fatalf("item %d = %+v, want 1MB write", i, items[i])
		}
	}
	for i := 3; i < 6; i++ {
		if items[i].Op != sched.OpRead {
			t.Fatalf("item %d = %+v, want read phase", i, items[i])
		}
	}
	if items[6].Op != sched.OpWrite {
		t.Fatal("cycle should return to writing")
	}
}

func TestWriteReadCycleUnevenTail(t *testing.T) {
	s := WriteReadCycle(2*MB+512, MB)
	items := drain(s, 3)
	if items[2].Bytes != 512 {
		t.Fatalf("tail block = %d bytes, want 512", items[2].Bytes)
	}
}

func TestIORFiniteAndExact(t *testing.T) {
	s := IOR(sched.OpWrite, 5*MB+100, 2*MB)
	items := drain(s, 100)
	var total int64
	for _, it := range items {
		if it.Op != sched.OpWrite {
			t.Fatal("wrong op")
		}
		total += it.Bytes
	}
	if total != 5*MB+100 {
		t.Fatalf("total = %d, want %d", total, 5*MB+100)
	}
	if len(items) != 3 {
		t.Fatalf("items = %d, want 3 (2+2+1.0001)", len(items))
	}
}

func TestIORLoopInfinite(t *testing.T) {
	s := IORLoop(sched.OpRead, MB)
	for i := 0; i < 1000; i++ {
		it, ok := s.Next()
		if !ok || it.Op != sched.OpRead || it.Bytes != MB {
			t.Fatal("IORLoop should repeat forever")
		}
	}
}

func TestStatStorm(t *testing.T) {
	s := StatStorm()
	it, ok := s.Next()
	if !ok || it.Op != sched.OpStat || it.Bytes != 0 {
		t.Fatalf("stat storm item: %+v", it)
	}
}

func TestWithThink(t *testing.T) {
	s := WithThink(IOR(sched.OpWrite, 2*MB, MB), 100*time.Millisecond)
	items := drain(s, 10)
	if len(items) != 2 {
		t.Fatal("length changed")
	}
	for _, it := range items {
		if it.Think != 100*time.Millisecond {
			t.Fatalf("think = %v", it.Think)
		}
	}
}

func TestPhasesStructure(t *testing.T) {
	s := Phases(sched.OpWrite, time.Second, 2*MB, MB, 3)
	items := drain(s, 100)
	if len(items) != 6 {
		t.Fatalf("items = %d, want 6 (3 phases x 2 blocks)", len(items))
	}
	for i, it := range items {
		wantThink := time.Duration(0)
		if i%2 == 0 {
			wantThink = time.Second // compute precedes each phase's first block
		}
		if it.Think != wantThink {
			t.Fatalf("item %d think = %v, want %v", i, it.Think, wantThink)
		}
	}
	// count <= 0 repeats forever.
	inf := Phases(sched.OpWrite, 0, MB, MB, 0)
	if got := len(drain(inf, 500)); got != 500 {
		t.Fatalf("infinite phases stopped at %d", got)
	}
}

// Property: IOR conserves total volume for arbitrary sizes.
func TestIORConservesVolumeProperty(t *testing.T) {
	f := func(totalRaw, blockRaw uint32) bool {
		total := int64(totalRaw%100000000) + 1
		block := int64(blockRaw%5000000) + 1
		s := IOR(sched.OpWrite, total, block)
		var sum int64
		for {
			it, ok := s.Next()
			if !ok {
				break
			}
			if it.Bytes <= 0 || it.Bytes > block {
				return false
			}
			sum += it.Bytes
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: WriteReadCycle moves equal read and write volume over full
// cycles.
func TestCycleBalanceProperty(t *testing.T) {
	f := func(fileRaw uint16) bool {
		file := int64(fileRaw%1000)*1000 + 1000
		s := WriteReadCycle(file, 4096)
		var w, r int64
		// Drain exactly two full cycles.
		for w < 2*file || r < 2*file {
			it, _ := s.Next()
			if it.Op == sched.OpWrite {
				w += it.Bytes
			} else {
				r += it.Bytes
			}
			if w > 10*file || r > 10*file {
				return false
			}
		}
		return w == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
