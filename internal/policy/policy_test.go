package policy

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func j(id, user, group string, nodes int) JobInfo {
	return JobInfo{JobID: id, UserID: user, GroupID: group, Nodes: nodes}
}

func TestParsePrimitives(t *testing.T) {
	cases := map[string]string{
		"fifo":          "fifo",
		"job-fair":      "job-fair",
		"size-fair":     "size-fair",
		"priority-fair": "priority-fair",
		"user-fair":     "user-then-job-fair",
		"USER-FAIR":     "user-then-job-fair",
	}
	for in, want := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if p.String() != want {
			t.Fatalf("Parse(%q) = %s, want %s", in, p, want)
		}
	}
}

func TestParseComposites(t *testing.T) {
	cases := map[string]string{
		"user-then-size-fair":            "user-then-size-fair",
		"group-then-user-then-size-fair": "group-then-user-then-size-fair",
		"group-user-size-fair":           "group-then-user-then-size-fair",
		"group-then-user-fair":           "group-then-user-then-job-fair",
	}
	for in, want := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if p.String() != want {
			t.Fatalf("Parse(%q) = %s, want %s", in, p, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error message
	}{
		{"empty string", "", "empty policy"},
		{"whitespace only", "   ", "empty policy"},
		{"no -fair suffix", "bogus", "does not end in -fair"},
		{"bare level", "job", "does not end in -fair"},
		{"unknown level", "wat-fair", `unknown level "wat"`},
		{"unknown level in chain", "user-then-flub-fair", `unknown level "flub"`},
		{"terminal level not last", "size-then-user-fair", `"size" must be last`},
		{"terminal job not last", "job-then-size-fair", `"job" must be last`},
		{"terminal priority not last", "priority-then-job-fair", `"priority" must be last`},
		{"abbreviated composite, terminal not last", "size-user-fair", `"size" must be last`},
		{"abbreviated composite, unknown level", "group-wat-size-fair", `unknown level "wat"`},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.in); err == nil {
			t.Errorf("%s: Parse(%q) should fail", tc.name, tc.in)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Parse(%q) error %q, want substring %q", tc.name, tc.in, err, tc.want)
		}
	}
	// The abbreviated composite form itself is valid — only its
	// malformed variants above fail.
	if p, err := Parse("group-user-size-fair"); err != nil || !p.Equal(GroupUserSizeFair) {
		t.Errorf("Parse(group-user-size-fair) = %v, %v; want the predefined composite", p, err)
	}
}

// Parse(p.String()) == p for every well-formed policy: the canonical
// rendering is a fixed point of the parser, so the hot-swap path can
// gossip canonical strings without drift.
func TestParseStringRoundTrip(t *testing.T) {
	// All predefined policies round-trip.
	for _, p := range []Policy{FIFO, JobFair, UserFair, SizeFair, PriorityFair,
		UserThenJobFair, UserThenSizeFair, GroupUserSizeFair} {
		got, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if !got.Equal(p) {
			t.Fatalf("round trip of %q = %v, want %v", p.String(), got, p)
		}
	}
	// Property over random valid chains: any run of non-terminal levels
	// (user, group) capped by a terminal one (job, size, priority).
	rng := rand.New(rand.NewSource(42))
	nonTerminal := []Level{LevelUser, LevelGroup}
	terminal := []Level{LevelJob, LevelSize, LevelPriority}
	for i := 0; i < 500; i++ {
		var levels []Level
		for n := rng.Intn(4); n > 0; n-- {
			levels = append(levels, nonTerminal[rng.Intn(len(nonTerminal))])
		}
		levels = append(levels, terminal[rng.Intn(len(terminal))])
		p := Policy{Levels: levels}
		got, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if !got.Equal(p) {
			t.Fatalf("round trip of %q = %v, want %v", p.String(), got, p)
		}
	}
}

func TestCompileJobFair(t *testing.T) {
	jobs := []JobInfo{j("a", "u1", "g1", 4), j("b", "u2", "g1", 1)}
	sh, err := Shares(jobs, JobFair)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sh["a"]-0.5) > 1e-12 || math.Abs(sh["b"]-0.5) > 1e-12 {
		t.Fatalf("job-fair shares = %v, want 0.5 each", sh)
	}
}

func TestCompileSizeFair(t *testing.T) {
	jobs := []JobInfo{j("a", "u1", "g1", 4), j("b", "u2", "g1", 1)}
	sh, _ := Shares(jobs, SizeFair)
	if math.Abs(sh["a"]-0.8) > 1e-12 || math.Abs(sh["b"]-0.2) > 1e-12 {
		t.Fatalf("size-fair shares = %v, want 0.8/0.2", sh)
	}
}

func TestCompilePriorityFair(t *testing.T) {
	jobs := []JobInfo{
		{JobID: "a", UserID: "u", Priority: 3},
		{JobID: "b", UserID: "u", Priority: 1},
	}
	sh, _ := Shares(jobs, PriorityFair)
	if math.Abs(sh["a"]-0.75) > 1e-12 {
		t.Fatalf("priority-fair shares = %v, want a=0.75", sh)
	}
}

// The paper's Figure 3(b): two users, one with two jobs, one with four;
// user-then-job-fair gives the first user's jobs 1/4 each and the second
// user's jobs 1/8 each.
func TestCompileUserThenJobFairFigure3(t *testing.T) {
	jobs := []JobInfo{
		j("j1", "u1", "g", 1), j("j2", "u1", "g", 1),
		j("j3", "u2", "g", 1), j("j4", "u2", "g", 1), j("j5", "u2", "g", 1), j("j6", "u2", "g", 1),
	}
	sh, _ := Shares(jobs, UserThenJobFair)
	for _, id := range []string{"j1", "j2"} {
		if math.Abs(sh[id]-0.25) > 1e-12 {
			t.Fatalf("share(%s) = %g, want 0.25", id, sh[id])
		}
	}
	for _, id := range []string{"j3", "j4", "j5", "j6"} {
		if math.Abs(sh[id]-0.125) > 1e-12 {
			t.Fatalf("share(%s) = %g, want 0.125", id, sh[id])
		}
	}
}

// Figure 9's configuration: user1 jobs of 1 and 2 nodes; user2 jobs of 4
// and 6 nodes. User split 50/50, then size split within user.
func TestCompileUserThenSizeFairFigure9(t *testing.T) {
	jobs := []JobInfo{
		j("j1", "u1", "g", 1), j("j2", "u1", "g", 2),
		j("j3", "u2", "g", 4), j("j4", "u2", "g", 6),
	}
	sh, _ := Shares(jobs, UserThenSizeFair)
	want := map[string]float64{
		"j1": 0.5 * 1.0 / 3, "j2": 0.5 * 2.0 / 3,
		"j3": 0.5 * 4.0 / 10, "j4": 0.5 * 6.0 / 10,
	}
	for id, w := range want {
		if math.Abs(sh[id]-w) > 1e-12 {
			t.Fatalf("share(%s) = %g, want %g", id, sh[id], w)
		}
	}
}

// Figure 10/11's configuration: group1{user1: 1 job}, group2{user2: jobs
// 2,3,2 nodes; user3: 3,2; user4: 1,2}.
func TestCompileGroupUserSizeFairFigure10(t *testing.T) {
	jobs := []JobInfo{
		j("j1", "u1", "g1", 1),
		j("j2", "u2", "g2", 2), j("j3", "u2", "g2", 3), j("j4", "u2", "g2", 2),
		j("j5", "u3", "g2", 3), j("j6", "u3", "g2", 2),
		j("j7", "u4", "g2", 1), j("j8", "u4", "g2", 2),
	}
	sh, _ := Shares(jobs, GroupUserSizeFair)
	if math.Abs(sh["j1"]-0.5) > 1e-12 {
		t.Fatalf("group1's only job should get 50%%, got %g", sh["j1"])
	}
	// user2 gets 1/6 of the total; its jobs split 2:3:2.
	if math.Abs(sh["j3"]-0.5/3*3/7) > 1e-12 {
		t.Fatalf("share(j3) = %g, want %g", sh["j3"], 0.5/3*3/7)
	}
	// Sum of all shares is 1.
	total := 0.0
	for _, v := range sh {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %g", total)
	}
}

// Presence deweighting: a job active on 2 servers counts half on each.
func TestCompilePresenceDeweighting(t *testing.T) {
	jobs := []JobInfo{
		{JobID: "a", UserID: "u1", Nodes: 16, Presence: 2},
		{JobID: "b", UserID: "u2", Nodes: 8, Presence: 1},
	}
	sh, _ := Shares(jobs, SizeFair)
	if math.Abs(sh["a"]-0.5) > 1e-12 || math.Abs(sh["b"]-0.5) > 1e-12 {
		t.Fatalf("presence-deweighted shares = %v, want 0.5/0.5", sh)
	}
}

func TestCompileFIFOAndEmpty(t *testing.T) {
	c, err := Compile(nil, SizeFair)
	if err != nil || c.Assignment.Len() != 0 {
		t.Fatalf("empty job set: %v %v", c, err)
	}
	c, err = Compile([]JobInfo{j("a", "u", "g", 1)}, FIFO)
	if err != nil || c.Assignment.Len() != 0 {
		t.Fatalf("FIFO policy: %v %v", c, err)
	}
}

// Every chain matrix of a compiled policy satisfies the structural
// invariants, and the product is a valid assignment summing to 1 —
// property-checked over random job populations.
func TestCompileChainInvariantsProperty(t *testing.T) {
	pols := []Policy{JobFair, SizeFair, UserFair, UserThenSizeFair, GroupUserSizeFair}
	f := func(seedJobs []uint32) bool {
		if len(seedJobs) == 0 {
			return true
		}
		if len(seedJobs) > 40 {
			seedJobs = seedJobs[:40]
		}
		var jobs []JobInfo
		for i, s := range seedJobs {
			jobs = append(jobs, JobInfo{
				JobID:   "job" + itoa(i),
				UserID:  "user" + itoa(int(s%5)),
				GroupID: "grp" + itoa(int(s/5%3)),
				Nodes:   int(s%64) + 1,
			})
		}
		for _, p := range pols {
			c, err := Compile(jobs, p)
			if err != nil {
				return false
			}
			chain, _, merr := c.Matrices()
			if merr != nil {
				return false
			}
			for _, m := range chain {
				if m.Validate() != nil {
					return false
				}
			}
			a := c.Assignment
			if a.Len() != len(jobs) {
				return false
			}
			total := 0.0
			for _, b := range a.Blocks() {
				for _, w := range b.Ws {
					if w < 0 {
						return false
					}
					total += w / a.Total()
				}
			}
			if math.Abs(total-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Composite-policy identity: when every job has a distinct user,
// user-then-job-fair degenerates to job-fair.
func TestUserFairDegeneratesToJobFair(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%10) + 2
		var jobs []JobInfo
		for i := 0; i < count; i++ {
			jobs = append(jobs, j("job"+itoa(i), "user"+itoa(i), "g", i+1))
		}
		a, _ := Shares(jobs, UserFair)
		b, _ := Shares(jobs, JobFair)
		for id := range a {
			if math.Abs(a[id]-b[id]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}
