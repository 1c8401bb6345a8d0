// Package policy defines ThemisIO sharing policies and compiles them to
// statistical token assignments (§2.2.2 and §3 of the paper).
//
// A policy is an ordered list of sharing-entity levels. Primitive policies
// have a single level (job-fair, user-fair, size-fair, priority-fair);
// composite policies chain levels, e.g. user-then-size-fair splits I/O
// cycles evenly across users and then, within each user, in proportion to
// job size. System administrators select the policy with a single string
// parameter, parsed by Parse.
package policy

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"themisio/internal/token"
)

// Level is one sharing-entity tier of a policy.
type Level int

const (
	// LevelJob splits evenly across jobs in scope.
	LevelJob Level = iota
	// LevelUser splits evenly across users in scope.
	LevelUser
	// LevelGroup splits evenly across groups in scope.
	LevelGroup
	// LevelSize splits across jobs in scope proportionally to node count.
	LevelSize
	// LevelPriority splits across jobs in scope proportionally to priority.
	LevelPriority
)

// String returns the canonical name of the level.
func (l Level) String() string {
	switch l {
	case LevelJob:
		return "job"
	case LevelUser:
		return "user"
	case LevelGroup:
		return "group"
	case LevelSize:
		return "size"
	case LevelPriority:
		return "priority"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// terminal reports whether the level distributes directly to jobs (and must
// therefore be the last level of a policy).
func (l Level) terminal() bool {
	return l == LevelJob || l == LevelSize || l == LevelPriority
}

// Policy is an ordered chain of sharing levels. The zero value is not
// valid; use Parse or one of the predefined policies.
type Policy struct {
	Levels []Level
	// FIFO marks the degenerate no-fairness policy used as the baseline.
	FIFO bool
}

// Predefined policies matching the paper's terminology.
var (
	FIFO              = Policy{FIFO: true}
	JobFair           = Policy{Levels: []Level{LevelJob}}
	UserFair          = Policy{Levels: []Level{LevelUser, LevelJob}}
	SizeFair          = Policy{Levels: []Level{LevelSize}}
	PriorityFair      = Policy{Levels: []Level{LevelPriority}}
	UserThenJobFair   = Policy{Levels: []Level{LevelUser, LevelJob}}
	UserThenSizeFair  = Policy{Levels: []Level{LevelUser, LevelSize}}
	GroupUserSizeFair = Policy{Levels: []Level{LevelGroup, LevelUser, LevelSize}}
)

// Equal reports whether two policies are the same chain (Policy holds a
// slice, so == does not compile; the hot-swap path and the Parse/String
// round-trip property both need value equality).
func (p Policy) Equal(q Policy) bool {
	return p.FIFO == q.FIFO && slices.Equal(p.Levels, q.Levels)
}

// String renders the policy in the paper's notation, e.g.
// "group-then-user-then-size-fair".
func (p Policy) String() string {
	if p.FIFO {
		return "fifo"
	}
	names := make([]string, len(p.Levels))
	for i, l := range p.Levels {
		names[i] = l.String()
	}
	return strings.Join(names, "-then-") + "-fair"
}

// Parse parses a policy string. Accepted forms:
//
//	"fifo"
//	"job-fair", "user-fair", "size-fair", "priority-fair"
//	"user-then-size-fair", "group-then-user-then-size-fair"
//	"group-user-size-fair" (the paper's abbreviated composite form)
//
// Non-terminal levels (user, group) are implicitly completed with a final
// job level, matching the paper: "user-fair" splits across users and then
// evenly across each user's jobs.
func Parse(s string) (Policy, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return Policy{}, fmt.Errorf("policy: empty policy string")
	}
	if s == "fifo" {
		return FIFO, nil
	}
	base := strings.TrimSuffix(s, "-fair")
	if base == s {
		return Policy{}, fmt.Errorf("policy: %q does not end in -fair", s)
	}
	base = strings.ReplaceAll(base, "-then-", "-")
	parts := strings.Split(base, "-")
	var levels []Level
	for i, part := range parts {
		var l Level
		switch part {
		case "job":
			l = LevelJob
		case "user":
			l = LevelUser
		case "group":
			l = LevelGroup
		case "size":
			l = LevelSize
		case "priority":
			l = LevelPriority
		default:
			return Policy{}, fmt.Errorf("policy: unknown level %q in %q", part, s)
		}
		if l.terminal() && i != len(parts)-1 {
			return Policy{}, fmt.Errorf("policy: level %q must be last in %q", part, s)
		}
		levels = append(levels, l)
	}
	if !levels[len(levels)-1].terminal() {
		levels = append(levels, LevelJob)
	}
	return Policy{Levels: levels}, nil
}

// JobInfo is the job metadata embedded in every I/O request by the client
// (§4.1): everything the controller needs to evaluate any policy.
type JobInfo struct {
	JobID    string
	UserID   string
	GroupID  string
	Nodes    int // job size in compute nodes
	Priority int // scheduler priority; used by priority-fair
	// Presence is the number of burst-buffer servers on which the job is
	// I/O-active, learned from the λ-interval job-table all-gather. A job
	// with files striped over k servers draws its fair share from k pools,
	// so each server deweights it by 1/k — this is the "adding token
	// counts" step in Figure 5 that restores *global* fairness. Zero means
	// unknown and is treated as 1.
	Presence int
}

// StageOutUser is the user identity of synthetic background jobs (the
// drain engine's stage-out traffic). It is an ordinary user as far as
// policy compilation is concerned: under user-fair it is one more user,
// under size-fair a Nodes-weighted job — the sharing policy governs
// background write-back bandwidth exactly like any contending job.
const StageOutUser = "_system"

// StageOutJob returns the synthetic job identity under which a server's
// drain engine submits stage-out traffic to the token scheduler. Each
// server drains under its own job id, so presence deweighting never
// splits a drain job across servers.
func StageOutJob(server string) JobInfo {
	return JobInfo{
		JobID:   "stage-out@" + server,
		UserID:  StageOutUser,
		GroupID: StageOutUser,
		Nodes:   1,
	}
}

// RebalanceJob returns the synthetic job identity under which a
// server's migration coordinator issues join-time stripe-rebalance
// traffic (stripe fetches and installs on its peers). Like the drain
// job it is an ordinary 1-node job of the _system user, so the
// compiled sharing policy governs migration-vs-foreground bandwidth
// with no reserved lane and no starvation.
func RebalanceJob(server string) JobInfo {
	return JobInfo{
		JobID:   "rebalance@" + server,
		UserID:  StageOutUser,
		GroupID: StageOutUser,
		Nodes:   1,
	}
}

// weight returns the job's weight under a terminal level, deweighted by
// the job's server presence so that multi-server jobs receive a globally
// (not per-server) fair share.
func (j JobInfo) weight(l Level) float64 {
	w := 1.0
	switch l {
	case LevelSize:
		if j.Nodes > 0 {
			w = float64(j.Nodes)
		}
	case LevelPriority:
		if j.Priority > 0 {
			w = float64(j.Priority)
		}
	}
	if j.Presence > 1 {
		w /= float64(j.Presence)
	}
	return w
}

// scopeKey returns the identity of the scope a job belongs to at a
// non-terminal level.
func (j JobInfo) scopeKey(l Level) string {
	switch l {
	case LevelUser:
		return j.UserID
	case LevelGroup:
		return j.GroupID
	}
	return j.JobID
}

// Compiled is the result of compiling a policy against a set of active
// jobs: the segment assignment plus the share tree it was derived from.
// The transition-matrix chain the paper defines is no longer built
// eagerly — at 100k jobs the U×J chain product is prohibitive and the
// tree walk computes the identical values — but remains available for
// inspection and testing via Matrices.
type Compiled struct {
	Policy     Policy
	Assignment *token.Assignment
	tree       *shareTree
}

// Share returns the job's compiled token share, 0 if absent. Lookups
// resolve through the share tree, so they work identically for full
// and delta compiles.
func (c *Compiled) Share(job string) float64 {
	if c == nil || c.tree == nil {
		return 0
	}
	return c.tree.share(job)
}

// JobCount returns the number of jobs in the compiled share tree.
func (c *Compiled) JobCount() int {
	if c == nil || c.tree == nil {
		return 0
	}
	c.tree.mu.RLock()
	defer c.tree.mu.RUnlock()
	return len(c.tree.index)
}

// Matrices materialises Equation 1's transition-matrix chain and its
// product for the compiled job set — the inspection/testing view the
// eager compiler used to carry. Returns nils for FIFO or an empty set.
func (c *Compiled) Matrices() ([]*token.Matrix, *token.Matrix, error) {
	if c == nil || c.tree == nil {
		return nil, nil, nil
	}
	c.tree.mu.RLock()
	jobs := make([]JobInfo, 0, len(c.tree.index))
	for _, lf := range c.tree.index {
		jobs = append(jobs, lf.info)
	}
	c.tree.mu.RUnlock()
	if len(jobs) == 0 {
		return nil, nil, nil
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].JobID < jobs[k].JobID })
	scopes := []scope{{key: "root", jobs: jobs}}
	var chain []*token.Matrix
	for li, level := range c.Policy.Levels {
		last := li == len(c.Policy.Levels)-1
		var m *token.Matrix
		var next []scope
		if last {
			m, next = terminalMatrix(scopes, level)
		} else {
			m, next = partitionMatrix(scopes, level)
		}
		if err := m.Validate(); err != nil {
			return nil, nil, fmt.Errorf("policy: level %d (%s): %w", li, level, err)
		}
		chain = append(chain, m)
		scopes = next
	}
	prod, err := token.ChainProduct(chain)
	if err != nil {
		return nil, nil, err
	}
	return chain, prod, nil
}

// scope is an internal node of the sharing tree during matrix
// materialisation.
type scope struct {
	key  string
	jobs []JobInfo
}

// Compile evaluates Equation 1 of the paper for the policy over the
// given jobs, producing the statistical token assignment. Jobs are
// sorted by JobID for deterministic segment layout. Compiling a FIFO
// policy or an empty job set returns an assignment with no segments.
// The result carries the share tree Recompile patches incrementally.
func Compile(jobs []JobInfo, p Policy) (*Compiled, error) {
	c := &Compiled{Policy: p}
	if p.FIFO {
		c.Assignment = &token.Assignment{}
		return c, nil
	}
	sorted := make([]JobInfo, len(jobs))
	copy(sorted, jobs)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].JobID < sorted[k].JobID })
	tr := newShareTree(p)
	for _, j := range sorted {
		tr.insertLocked(j)
	}
	a, err := tr.assignmentLocked()
	if err != nil {
		return nil, err
	}
	c.Assignment, c.tree = a, tr
	return c, nil
}

// partitionMatrix builds the transition matrix for a non-terminal level:
// each row is a parent scope, each column a child scope (a distinct user or
// group within the parent), with equal shares across children.
func partitionMatrix(scopes []scope, level Level) (*token.Matrix, []scope) {
	var next []scope
	type cell struct{ row, col int }
	var cells []cell
	for r, sc := range scopes {
		order := []string{}
		byKey := map[string][]JobInfo{}
		for _, j := range sc.jobs {
			k := j.scopeKey(level)
			if _, ok := byKey[k]; !ok {
				order = append(order, k)
			}
			byKey[k] = append(byKey[k], j)
		}
		sort.Strings(order)
		for _, k := range order {
			col := len(next)
			next = append(next, scope{key: sc.key + "/" + k, jobs: byKey[k]})
			cells = append(cells, cell{row: r, col: col})
		}
	}
	m := token.NewMatrix(len(scopes), len(next))
	for r, sc := range scopes {
		m.RowLabels = append(m.RowLabels, sc.key)
		_ = r
	}
	for _, sc := range next {
		m.ColLabels = append(m.ColLabels, sc.key)
	}
	// Count children per row, then assign the equal share.
	childCount := make([]int, len(scopes))
	for _, c := range cells {
		childCount[c.row]++
	}
	for _, c := range cells {
		m.Set(c.row, c.col, 1/float64(childCount[c.row]))
	}
	return m, next
}

// terminalMatrix builds the final transition matrix: each row is a scope,
// each column a job, with shares proportional to the job's weight under the
// terminal level (1 for job-fair, node count for size-fair, priority for
// priority-fair).
func terminalMatrix(scopes []scope, level Level) (*token.Matrix, []scope) {
	totalJobs := 0
	for _, sc := range scopes {
		totalJobs += len(sc.jobs)
	}
	m := token.NewMatrix(len(scopes), totalJobs)
	col := 0
	for r, sc := range scopes {
		m.RowLabels = append(m.RowLabels, sc.key)
		sum := 0.0
		for _, j := range sc.jobs {
			sum += j.weight(level)
		}
		for _, j := range sc.jobs {
			m.ColLabels = append(m.ColLabels, j.JobID)
			w := j.weight(level)
			if sum > 0 {
				m.Set(r, col, w/sum)
			}
			col++
		}
		_ = r
	}
	return m, nil
}

// Shares is a convenience wrapper returning the per-job share map for a
// policy over a job set.
func Shares(jobs []JobInfo, p Policy) (map[string]float64, error) {
	c, err := Compile(jobs, p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(jobs))
	for _, j := range jobs {
		out[j.JobID] = c.Share(j.JobID)
	}
	return out, nil
}
