package server

import (
	"fmt"
	"testing"
	"time"

	"themisio/internal/policy"
)

func waitApplied(t *testing.T, s *Server, wantStr string, wantEpoch uint64) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("applied policy %s/%d", wantStr, wantEpoch), func() bool {
		str, e := s.AppliedPolicy()
		return str == wantStr && e == wantEpoch
	})
}

// The controller applies a gossiped policy version at its next λ, and —
// the equal-epoch regression — re-applies when the gossip tie-break
// replaces the string without moving the epoch (two concurrent sets at
// the same epoch: gating on the epoch alone would leave this member
// enforcing the losing policy forever).
func TestApplyPolicyEqualEpochTieBreak(t *testing.T) {
	s := startFabric(t, listen(t, 1), func(c *Config) { c.Policy, c.Lambda = policy.JobFair, 10*time.Millisecond })[0]
	if str, e := s.AppliedPolicy(); str != "job-fair" || e != 0 {
		t.Fatalf("boot policy = %q/%d, want job-fair/0", str, e)
	}

	// A rumor lands (as if merged from gossip): applied at the next λ.
	if !s.Cluster().MergePolicy("size-fair", 1) {
		t.Fatal("merge of a fresh rumor must be adopted")
	}
	waitApplied(t, s, "size-fair", 1)

	// The tie-break winner of a concurrent set arrives: same epoch,
	// lexically greater string. The member must re-apply.
	if !s.Cluster().MergePolicy("user-then-size-fair", 1) {
		t.Fatal("equal-epoch lexically-greater rumor must be adopted")
	}
	waitApplied(t, s, "user-then-size-fair", 1)
	if got := s.Scheduler().Policy(); !got.Equal(policy.UserThenSizeFair) {
		t.Fatalf("scheduler enforcing %v, want user-then-size-fair", got)
	}
}
