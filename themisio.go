package themisio

import (
	"net"

	"themisio/internal/backing"
	"themisio/internal/bb"
	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/core"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/server"
	"themisio/internal/workload"
)

// Re-exported core types: the public API is a thin veneer over the
// internal packages so that examples and downstream users share one
// vocabulary with the implementation.
type (
	// Policy is a sharing policy (primitive or composite).
	Policy = policy.Policy
	// JobInfo is the job metadata embedded in every I/O request.
	JobInfo = policy.JobInfo
	// Scheduler is the pluggable request scheduler interface.
	Scheduler = sched.Scheduler
	// Themis is the statistical token scheduler.
	Themis = core.Themis
	// Client is the live POSIX-style client.
	Client = client.Client
	// Server is the live burst-buffer server.
	Server = server.Server
	// ServerConfig parameterizes a live server.
	ServerConfig = server.Config
	// Cluster is the discrete-event simulated burst buffer.
	Cluster = bb.Cluster
	// ClusterConfig parameterizes a simulated cluster.
	ClusterConfig = bb.Config
	// ClientOptions tunes client striping.
	ClientOptions = client.Options
	// Membership is one server's view of the cluster member set.
	Membership = cluster.Membership
	// Member is a gossiped membership record.
	Member = cluster.Member
	// ClusterNode is a server's fabric endpoint (membership + gossip).
	ClusterNode = cluster.Node
	// BackingStore is the stage-out backing store behind the burst
	// buffer (stage-in at start, asynchronous dirty write-back, a
	// failed member's stripes for the failover migration).
	BackingStore = backing.Store
	// ClusterProc is one simulated client process (a closed-loop request
	// stream against the simulated cluster).
	ClusterProc = bb.Proc
	// File is an open handle on a burst-buffer file: an
	// io.ReadWriteSeeker + io.Closer returned by Client.Open.
	File = client.File
)

// Exported error sentinels: every error a Client call returns wraps the
// matching sentinel, so callers branch with errors.Is regardless of the
// retry/repair prefixes the message accumulated on the way up.
var (
	// ErrNotExist reports an operation on a path no server knows.
	ErrNotExist = client.ErrNotExist
	// ErrStaleLayout reports a request that raced a stripe migration;
	// the client retries these itself, so seeing one means the retry
	// budget ran out.
	ErrStaleLayout = client.ErrStaleLayout
	// ErrTornAppend reports a positional append that partially overlaps
	// data already landed — the torn-write guard.
	ErrTornAppend = client.ErrTornAppend
	// ErrParkedFull reports a server whose positional-append reorder
	// buffer is full.
	ErrParkedFull = client.ErrParkedFull
	// ErrCanceled reports a call abandoned because its context was
	// canceled or its deadline passed; the stdlib cause
	// (context.Canceled or context.DeadlineExceeded) is also reachable
	// through errors.Is.
	ErrCanceled = client.ErrCanceled
	// ErrInvalidOptions reports malformed ClientOptions refused by
	// DialStriped before any socket was dialed.
	ErrInvalidOptions = client.ErrInvalidOptions
)

// Predefined policies in the paper's notation.
var (
	FIFO              = policy.FIFO
	JobFair           = policy.JobFair
	UserFair          = policy.UserFair
	SizeFair          = policy.SizeFair
	PriorityFair      = policy.PriorityFair
	UserThenSizeFair  = policy.UserThenSizeFair
	GroupUserSizeFair = policy.GroupUserSizeFair
)

// ParsePolicy parses a policy string such as "size-fair" or
// "group-then-user-then-size-fair".
func ParsePolicy(s string) (Policy, error) { return policy.Parse(s) }

// NewScheduler returns a Themis scheduler enforcing the policy with a
// deterministic token stream.
func NewScheduler(p Policy, seed int64) *Themis { return core.New(p, seed) }

// NewServer creates a live server on the listener.
func NewServer(ln net.Listener, cfg ServerConfig) *Server { return server.New(ln, cfg) }

// Dial connects a client to live servers under the job identity.
func Dial(job JobInfo, servers []string) (*Client, error) { return client.Dial(job, servers) }

// DialStriped connects a client whose files stripe across servers:
// reads and writes fan out in parallel over each file's stripe set, so
// one client's aggregate bandwidth scales with the server count.
func DialStriped(job JobInfo, servers []string, opts ClientOptions) (*Client, error) {
	return client.DialOpts(job, servers, opts)
}

// NewCluster builds a simulated burst-buffer cluster.
func NewCluster(cfg ClusterConfig) *Cluster { return bb.NewCluster(cfg) }

// OpenBackingDir opens (creating if needed) a local-directory backing
// store — the stand-in for the parallel file system behind the burst
// buffer. Pass it in ServerConfig.Backing for stage-out durability.
func OpenBackingDir(dir string) (BackingStore, error) { return backing.OpenDir(dir) }

// WriteStream returns an endless write workload in blockBytes transfers
// — the simplest stream to feed a simulated process.
func WriteStream(blockBytes int64) workload.Stream {
	return workload.IORLoop(sched.OpWrite, blockBytes)
}

// Shares compiles a policy over a job set and returns each job's token
// share — the quickest way to inspect what a policy means.
func Shares(jobs []JobInfo, p Policy) (map[string]float64, error) {
	return policy.Shares(jobs, p)
}

// Calibration constants of the simulated substrate (from the paper's
// measured hardware envelope).
const (
	DirBW    = bb.DefaultDirBW
	DeviceBW = bb.DefaultDeviceBW
	Lambda   = bb.DefaultLambda
)

// DefaultConnsPerServer is the pool size used when
// ClientOptions.ConnsPerServer is zero: one connection per server.
const DefaultConnsPerServer = client.DefaultConnsPerServer
