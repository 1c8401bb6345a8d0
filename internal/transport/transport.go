// Package transport defines the wire protocol between ThemisIO clients
// and servers, and between servers (job-table synchronization). The
// paper uses UCX over InfiniBand (§4.2); this implementation frames the
// same message semantics over any net.Conn — the scheduler arbitrates at
// the request level either way, and transport latency constants live in
// the simulator, not here.
//
// One codec: a length-prefixed hand-rolled binary framing (codec.go),
// encoded straight into the connection's pending buffer and
// group-committed — concurrent senders share one write — with zero
// steady-state allocation on the request path. Every stream, in both
// directions, opens with a four-byte magic; a stream that opens with
// anything else is refused before a single field is decoded.
//
// Every I/O request carries the job metadata (job id, user id, group,
// node count) that the server's policies evaluate — the paper's key
// enabler for profile-free sharing.
package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"themisio/internal/jobtable"
	"themisio/internal/policy"
	"themisio/internal/storage"
)

// MsgType enumerates the protocol operations, mirroring the intercepted
// POSIX functions of §4.4 plus control traffic.
type MsgType uint8

// Protocol message types.
const (
	_ MsgType = iota // retired open; reserved so later types keep their numbers
	MsgCreate
	MsgRead
	MsgWrite
	_ // retired close, reserved likewise
	MsgStat
	MsgMkdir
	MsgReaddir
	MsgUnlink
	MsgHeartbeat
	MsgBye
	_ // retired static-peer all-gather; the slot stays so later types keep their numbers

	// Cluster-fabric control traffic (internal/cluster).
	MsgGossip        // push-pull λ exchange: job table + membership digest
	MsgJoin          // a starting server announces itself to a seed
	MsgLeave         // graceful departure notice
	MsgClusterStatus // operator query: membership + ring epoch
	MsgDrain         // operator request: mark the receiving server draining

	// MsgFlush forces a full stage-out: the receiving server drains
	// every dirty byte to its backing store before replying. The drain
	// traffic itself still goes through the token scheduler under the
	// stage-out job — a flush forces completeness, not priority.
	MsgFlush

	// MsgMigrate is the server↔server control protocol of join-time
	// rebalancing. The MigrateOp field selects the sub-op (seal, unseal,
	// commit, abort, drop); the moved bytes themselves travel as MsgWrite
	// installs (see Request.From). The frames carry the rebalance job
	// identity and are scheduled through the receiving server's token
	// draw like any write, so the sharing policy arbitrates migration
	// bandwidth against foreground I/O.
	MsgMigrate

	// MsgRebalanceStatus is the operator query for a server's migration
	// progress (themisctl rebalance status).
	MsgRebalanceStatus

	// MsgPolicySet installs a new cluster-wide sharing policy on the
	// receiving member: the member validates the policy string, bumps
	// the cluster policy epoch past every version it has seen, and lets
	// the gossip rumor path carry the new version to every other
	// member. Each server's controller recompiles at its next λ — no
	// restart, no dropped request. The reply echoes the canonical
	// policy string and the new policy epoch.
	MsgPolicySet

	// MsgShareReport is the per-entity fairness query (themisctl policy
	// status): the reply carries the server's applied policy string and
	// policy epoch plus one ShareRecord per sharing entity (job, user,
	// group) with its compiled token share and its measured
	// serviced-byte share over the server's λ-windowed accounting
	// horizon.
	MsgShareReport
)

// Migration sub-ops carried in Request.MigrateOp for MsgMigrate. The
// retired slots stay reserved, so an older coordinator's frame is refused
// instead of read as something else: 1 was the install (now a MsgWrite,
// see Request.From), 5 the plain unseal, whose zero Size would read as a
// trim to nothing.
const (
	// MigrateSeal write-freezes the local stripe of a file about to
	// move; reads keep working. The reply reports the frozen local size
	// (Size) and the entry's creation generation (Gen).
	MigrateSeal uint8 = iota
	_
	// MigrateCommit makes the new local stripe live under the new layout
	// (Stripes/StripeUnit/StripeSet/LayoutGen) without copying a byte:
	// Size is the stripe's length, and Gen is zero when it was streamed
	// into the pending entry or the creation generation of the entry
	// that already holds it (re-labelled in place).
	MigrateCommit
	// MigrateAbort releases the pending entry (failed migration).
	MigrateAbort
	// MigrateDrop removes a stale local stripe after cutover,
	// generation-checked (Gen) so a concurrent unlink/recreate of the
	// path is never clobbered, and leaves a moved marker so late
	// old-layout clients get ErrStaleLayout instead of ErrNotExist.
	MigrateDrop
	_
	// MigrateUnseal lifts a seal after an aborted migration, first
	// truncating the local stripe to Size bytes when Size is not
	// negative — the seal phase raced a striped write and left
	// unacknowledged torn bytes beyond the consistent round-robin prefix.
	// A non-zero LayoutGen is the generation the seal was placed under;
	// an entry that has moved on is left alone.
	MigrateUnseal
)

// String names the message type.
func (m MsgType) String() string {
	names := []string{"reserved", "create", "read", "write", "reserved", "stat",
		"mkdir", "readdir", "unlink", "heartbeat", "bye", "reserved",
		"gossip", "join", "leave", "cluster-status", "drain", "flush",
		"migrate", "rebalance-status", "policy-set", "share-report"}
	if int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// MemberRecord is the wire form of a cluster membership rumor. The
// cluster package converts to and from its Member type; transport keeps
// only the codec so the dependency points upward (cluster → transport).
type MemberRecord struct {
	Addr        string
	State       uint8
	Incarnation uint64
}

// ShareRecord is the wire form of one sharing entity's fairness
// accounting: the token share the policy compiled for it versus the
// share of serviced bytes it actually received over the reporting
// server's λ-windowed horizon. Kind is "job", "user" or "group". The
// metrics package owns the accounting; transport keeps only the codec
// (the MemberRecord pattern).
type ShareRecord struct {
	Kind     string
	ID       string
	Compiled float64
	Measured float64
	Bytes    int64
}

// Residual is the measured-minus-compiled convergence residual; the
// fairness CI gate bounds its magnitude.
func (r ShareRecord) Residual() float64 { return r.Measured - r.Compiled }

// Request is a client→server (or server→server) message.
type Request struct {
	Type MsgType
	Seq  uint64
	Job  policy.JobInfo

	Path   string
	Offset int64
	Size   int64
	Data   []byte
	// DataSegs, when non-nil, is the write payload as a scatter list
	// (Data must then be nil): the client's striped-write path hands
	// the per-server spans of the caller's buffer here and the binary
	// sender carries each segment as its own iovec — no concatenation
	// copy. The wire form is identical to Data (one contiguous payload
	// field); DataSegs never appears on the receive side.
	DataSegs [][]byte
	// ReplyInto, when non-nil, is the caller memory a read's reply payload
	// lands in, span after span: the connection reader reads the payload
	// off the socket straight into it when its length is
	// exactly theirs. Registered by MuxConn.Start and never encoded; the
	// caller must not touch the spans until the exchange ends — its reply
	// received, or MuxConn.Forget returned.
	ReplyInto [][]byte

	// AppendAt marks a write as offset-checked: the server appends only
	// if the local stripe length equals AppendOff, parking early
	// arrivals and discarding duplicates — what keeps pipelined chunk
	// streams in order per stripe under the server's unordered worker
	// pool. Rides the optional trailing frame group (absent when unset).
	AppendAt  bool
	AppendOff int64

	// Stripes, StripeUnit and StripeSet are the file's stripe layout,
	// sent with MsgCreate so the servers record it in the file
	// metadata; any later client then discovers the layout from a stat
	// instead of guessing from its own configuration or deriving the
	// server set from a ring that may have drifted since creation.
	Stripes    int
	StripeUnit int64
	StripeSet  []string

	// MigrateOp selects the MsgMigrate sub-op (MigrateSeal & friends).
	MigrateOp uint8
	// Gen is the expected creation generation for generation-checked
	// migration ops (MigrateDrop, and a MigrateCommit that re-labels): a
	// concurrent unlink/recreate bumps the entry's generation and the
	// stale op becomes a no-op or a refusal.
	Gen uint64
	// LayoutGen is, on MsgRead/MsgWrite, the client's cached layout
	// generation of the file (zero = unchecked, the legacy behaviour):
	// a server whose entry has a different layout generation answers
	// ErrStaleLayout so the client re-stats instead of silently reading
	// or writing re-striped bytes. On MigrateCommit and on a migration
	// install it is the new layout generation being installed.
	LayoutGen uint64

	// Table carries job status entries for MsgGossip.
	Table []jobtable.Entry

	// From is the sender's advertised address for cluster control
	// messages (the accepted socket's remote port is ephemeral, so the
	// listen address must ride in the frame). On a MsgWrite it marks a
	// migration install: the chunk lands in the pending entry at
	// LayoutGen, which no client write can reach.
	From string
	// Members carries the membership digest for MsgGossip/MsgJoin/
	// MsgLeave.
	Members []MemberRecord

	// PolicyStr and PolicyEpoch carry the cluster-wide policy version:
	// the policy string to install on MsgPolicySet, and the sender's
	// current policy rumor on MsgGossip/MsgJoin (epoch 0 means no live
	// set has ever happened and is never merged).
	PolicyStr   string
	PolicyEpoch uint64

	// ShareTopN and ShareKind page a MsgShareReport server-side: the
	// ledger returns only the top N entities by |residual| of the given
	// kind ("job", "user", "group"; "" or "all" keeps every kind). Zero
	// values mean the full report. Rides the optional trailing frame
	// group.
	ShareTopN int
	ShareKind string

	// frame is the leased receive buffer a decoded request's
	// Data aliases; Release returns it to the payload pool. placed is,
	// instead, the device extent the connection's sink reserved and Data
	// views; Release returns it to sink unless a write adopted it.
	frame  []byte
	sink   Sink
	placed storage.Extent
}

// payloadLen is the request's wire payload length: Data, or the scatter
// list's total when DataSegs is set.
func (r *Request) payloadLen() int {
	if r.DataSegs == nil {
		return len(r.Data)
	}
	n := 0
	for _, s := range r.DataSegs {
		n += len(s)
	}
	return n
}

// Release returns the leased frame buffer this request's Data aliases
// to the payload pool, and a placed payload no write adopted to its
// connection's sink (no-op for locally built requests). After Release
// neither r.Data nor any alias of it may be used; Data is nilled so a
// stale use fails loudly. Releasing is optional — an unreleased frame is
// garbage-collected, an unreleased placement holds its device space
// until the server stops — but the hot paths (server workers, the
// client's response consumers) release so steady-state traffic recycles
// instead of allocating.
func (r *Request) Release() {
	if r.frame != nil {
		b := r.frame
		r.frame = nil
		r.Data = nil
		Release(b)
	}
	if r.sink != nil {
		if r.placed.Len > 0 {
			unplace(r.sink, r.placed, r.Data)
		}
		r.sink, r.placed, r.Data = nil, storage.Extent{}, nil
	}
}

// Placed is the device extent the connection's sink reserved and Data
// was read into; it is empty when Data sits in a leased frame or in the
// caller's memory. A write that adopts the extent empties it (see
// fsys.Shard.AppendGen); Release gives back whatever is left.
func (r *Request) Placed() *storage.Extent { return &r.placed }

// Response answers a Request, matched by Seq.
type Response struct {
	Seq  uint64
	Err  string
	N    int64
	Data []byte

	// Stat results.
	Size       int64
	IsDir      bool
	Names      []string
	Stripes    int
	StripeUnit int64
	StripeSet  []string
	// LayoutGen is the entry's layout generation (stat replies; clients
	// cache it and echo it on reads and writes). Gen is the entry's
	// creation generation (MigrateSeal replies; the coordinator uses it
	// for generation-checked cutover).
	LayoutGen uint64
	Gen       uint64

	// Pull half of a gossip exchange (MsgGossip/MsgJoin replies), and
	// the MsgClusterStatus answer.
	Table   []jobtable.Entry
	Members []MemberRecord
	Epoch   uint64

	// PolicyStr and PolicyEpoch carry the policy version: the pull half
	// of a gossip exchange, the new version on a MsgPolicySet reply,
	// and the *applied* version on a MsgShareReport reply (the epoch
	// the server's scheduler last recompiled under — what "every member
	// reports the new policy epoch" means during a hot-swap).
	PolicyStr   string
	PolicyEpoch uint64
	// Shares is the per-entity fairness report (MsgShareReport).
	Shares []ShareRecord

	// Caps advertises the responder's protocol capabilities (CapAppendAt
	// and friends), carried as the optional trailing frame word. Every
	// server stamps it; the client does not consult it.
	Caps uint64

	// frame is the leased buffer this response's Data aliases: the
	// receive frame (binary decode), or the server read path's reply
	// payload (AttachLease). Release returns it. placed reports that the
	// payload was read into the request's ReplyInto spans instead, and
	// Data is nil.
	frame  []byte
	placed bool
}

// Capability bits for Response.Caps.
const (
	// CapAppendAt: the server honors Request.AppendAt offset-checked
	// ordered appends (every server does).
	CapAppendAt uint64 = 1 << 0
)

// Release returns the leased buffer this response's Data aliases to the
// payload pool. Same contract as Request.Release.
func (r *Response) Release() {
	if r.frame != nil {
		b := r.frame
		r.frame = nil
		r.Data = nil
		Release(b)
	}
}

// AttachLease hands the response ownership of a leased buffer that its
// Data aliases — the server read path leases its reply payload and the
// worker releases it after the reply is on the wire.
func (r *Response) AttachLease(b []byte) { r.frame = b }

// Error materializes the response error, nil if none.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	return fmt.Errorf("%s", r.Err)
}

// ErrStaleLayout is the wire form of the layout-changed condition: the
// addressed server no longer holds (or no longer holds under the
// client's cached layout) the file's data, because join-time
// rebalancing moved or re-striped it. Clients that see it re-stat the
// path to learn the new layout and retry; it is a routing condition,
// not a data error. The string is the protocol contract — the codec
// carries errors as strings, so the prefix is what survives the wire.
const ErrStaleLayout = "stale-layout: file layout changed, re-stat"

// IsStaleLayout reports whether err is the wire-carried stale-layout
// condition. Matched anywhere in the message, not just as a prefix:
// intermediate layers (the client's write-repair path, for one) wrap
// the server string with context, and a wrapped stale answer must stay
// recognizably retryable.
func IsStaleLayout(err error) bool {
	return err != nil && strings.Contains(err.Error(), "stale-layout:")
}

// IsNotExist reports whether err carries the server's missing-entry
// condition (fsys.ErrNotExist's message; errors cross the wire as
// strings). The one place the prose is matched — callers deciding
// merge-tolerance or mid-cutover retries must not each hard-code the
// wording.
func IsNotExist(err error) bool {
	return err != nil && strings.Contains(err.Error(), "no such file or directory")
}

// binMagic opens every stream, in both directions.
var binMagic = [4]byte{0x00, 'T', 'B', '1'}

// errBadMagic refuses a stream that does not open with binMagic.
var errBadMagic = fmt.Errorf("transport: stream does not open with the codec magic")

// Conn is a framed message stream. Sends from any number of goroutines
// are group-committed (see send); receives belong to one reader.
type Conn struct {
	raw net.Conn
	br  *bufio.Reader
	rd  io.Reader // what br reads from: raw, or the counter in front of it

	// Accounting state (nil/zero without Stats — see NewConnStats).
	// cr/lastRecvPos are owned by the reader goroutine.
	stats       *Stats
	cr          *countReader
	lastRecvPos int64

	// Send state, guarded by smu (see send). pending holds the encoded
	// frames nobody has written yet and spare is the buffer the previous
	// write used; the two swap on every write. flushing is the flusher
	// role, werr the latched first write error, and scond wakes senders
	// waiting for room in pending or for the role.
	smu       sync.Mutex
	scond     sync.Cond
	pending   []byte
	spare     []byte
	flushing  bool
	werr      error
	magicSent bool
	// iov is the reusable iovec scratch of the write, owned by the flusher.
	iov net.Buffers

	// Receive state, owned by the single reader goroutine: magicSeen is
	// set once the peer's opening magic has been consumed, hdr is where a
	// length prefix is read, names the request decoder's string cache.
	magicSeen bool
	hdr       [4]byte
	names     nameCache
	// sink, when set, places large write payloads (see SetSink).
	sink Sink
}

// A Sink reserves the memory a write payload will live in, so a
// connection reads the payload straight there and the store adopts it
// without a copy: the server's shard is the sink of every connection it
// accepts.
type Sink interface {
	// Reserve returns n bytes of reserved device and the extent naming
	// them, or an error when there is no room.
	Reserve(n int) (storage.Extent, []byte, error)
	// Unreserve returns a reservation nothing adopted.
	Unreserve(storage.Extent)
}

// SetSink makes k the connection's sink: from the next frame on, a
// write whose payload is at least sgMinPayload and whose frame fits the
// top lease class is read into an extent k reserves (Request.Placed).
// Receive side only; call it before the reader starts.
func (c *Conn) SetSink(k Sink) { c.sink = k }

// NewConn wraps a net.Conn, dial or accept side alike: the first frame
// sent is preceded by the codec magic and the first frame received must
// be.
func NewConn(raw net.Conn) *Conn { return NewConnStats(raw, nil) }

// NewBinaryConn is NewConn, kept under its old name for the benchmark
// module, which compiles against it.
func NewBinaryConn(raw net.Conn) *Conn { return NewConn(raw) }

// SendRequest queues a request frame and, unless another sender is
// already flushing, writes it. A payload below sgMinPayload was copied
// when SendRequest returns and a larger one was written, so the caller
// may reuse the buffer at once either way.
func (c *Conn) SendRequest(r *Request) error {
	return c.send(int(r.Type), r.Data, r.DataSegs,
		func(b []byte, n int) []byte { return appendRequestHead(b, r, n) },
		func(b []byte) []byte { return appendRequestTail(b, r) })
}

// SendResponse queues a response frame; same contract as SendRequest.
func (c *Conn) SendResponse(r *Response) error {
	return c.send(respSlot, r.Data, nil,
		func(b []byte, n int) []byte { return appendResponseHead(b, r, n) },
		func(b []byte) []byte { return appendResponseTail(b, r) })
}

// RecvRequest reads a request frame (server side) into a fresh message.
// A stream that does not open with the codec magic fails here, before
// anything is decoded.
func (c *Conn) RecvRequest() (*Request, error) {
	r := new(Request)
	if err := c.RecvRequestInto(r); err != nil {
		return nil, err
	}
	return r, nil
}

// RecvRequestInto is RecvRequest into a message the caller supplies —
// a recycled one, on the server's request path. Every field of r is
// overwritten; a frame r still holds is released first. The job and path
// strings are the connection's cached ones when the frame repeats them.
func (c *Conn) RecvRequestInto(r *Request) error {
	r.Release()
	n, err := c.readLen()
	if err != nil {
		return err
	}
	if placed, err := c.recvPlaced(r, n); placed || err != nil {
		if err == nil && c.stats != nil {
			c.noteRecv(int(r.Type))
		}
		return err
	}
	b, err := c.readBody(n)
	if err != nil {
		return err
	}
	if err := decodeRequestNames(b, r, &c.names); err != nil {
		r.Data = nil
		Release(b)
		return err
	}
	// The decoded Data aliases the leased frame; ownership rides with
	// the request until its Release.
	r.frame = b
	if c.stats != nil {
		c.noteRecv(int(r.Type))
	}
	return nil
}

// RecvResponse reads a response frame (client side) into a fresh
// message, with the same magic check as RecvRequest.
func (c *Conn) RecvResponse() (*Response, error) {
	r := new(Response)
	if err := c.RecvResponseInto(r); err != nil {
		return nil, err
	}
	return r, nil
}

// RecvResponseInto is RecvResponse into a message the caller supplies;
// same contract as RecvRequestInto.
func (c *Conn) RecvResponseInto(r *Response) error { return c.recvResponse(r, nil) }

// recvResponse is RecvResponseInto on a connection whose reader finds the
// caller memory of read replies through dst (nil: every reply is leased).
// A reply abandoned while it landed leaves no message: the next frame is
// read into r instead.
func (c *Conn) recvResponse(r *Response, dst replyDst) error {
	r.Release()
	for {
		n, err := c.readLen()
		if err != nil {
			return err
		}
		if dst != nil {
			placed, err := c.recvReply(r, n, dst)
			if err == errAbandoned {
				continue
			}
			if placed || err != nil {
				if err == nil && c.stats != nil {
					c.noteRecv(respSlot)
				}
				return err
			}
		}
		b, err := c.readBody(n)
		if err != nil {
			return err
		}
		if err := decodeResponse(b, r); err != nil {
			r.Data = nil
			Release(b)
			return err
		}
		r.frame = b
		if c.stats != nil {
			c.noteRecv(respSlot)
		}
		return nil
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }
