package themisio

import (
	"math"
	"net"
	"testing"
	"time"
)

// The facade compiles policies and reports shares like the paper's
// examples.
func TestSharesFacade(t *testing.T) {
	pol, err := ParsePolicy("user-then-size-fair")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := Shares([]JobInfo{
		{JobID: "a", UserID: "u1", Nodes: 1},
		{JobID: "b", UserID: "u1", Nodes: 2},
		{JobID: "c", UserID: "u2", Nodes: 4},
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"a": 1.0 / 6, "b": 2.0 / 6, "c": 0.5}
	for id, w := range want {
		if math.Abs(shares[id]-w) > 1e-9 {
			t.Fatalf("share(%s) = %g, want %g", id, shares[id], w)
		}
	}
}

func TestSchedulerFacade(t *testing.T) {
	s := NewScheduler(SizeFair, 1)
	s.SetJobs([]JobInfo{{JobID: "x", UserID: "u", Nodes: 3}})
	if got := s.Share("x"); got != 1 {
		t.Fatalf("lone job share = %g", got)
	}
	if s.Policy().String() != "size-fair" {
		t.Fatal("policy accessor")
	}
}

// End-to-end through the facade: live server + client.
func TestLiveFacadeRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, ServerConfig{Policy: SizeFair, Quiet: true})
	go srv.Serve()
	defer srv.Close()

	c, err := Dial(JobInfo{JobID: "j", UserID: "u", Nodes: 2}, []string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/facade.txt", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	size, _, err := c.Stat("/facade.txt")
	if err != nil || size != 2 {
		t.Fatalf("stat: %d %v", size, err)
	}
}

// Simulated cluster through the facade.
func TestClusterFacade(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Servers:  1,
		NewSched: func(i int, _ float64) Scheduler { return NewScheduler(JobFair, 9) },
	})
	if c.Servers() != 1 || c.Efficiency() != 1 {
		t.Fatal("cluster config")
	}
	c.Run(100 * time.Millisecond)
	if c.Now() != 100*time.Millisecond {
		t.Fatalf("virtual clock at %v", c.Now())
	}
}

func TestCalibrationConstants(t *testing.T) {
	if DirBW != 11.7e9 || DeviceBW != 22e9 || Lambda != 500*time.Millisecond {
		t.Fatal("calibration constants drifted from the paper's envelope")
	}
}
