// Binary codec: hand-rolled length-prefixed framing for every message,
// data and control alike. A frame is a little-endian uint32 payload length followed by
// the payload; fields are written in a fixed order as uvarints, zigzag
// varints, and length-prefixed byte strings. Repeated control-plane
// fields (membership, the gossiped job table, share reports) are a count
// followed by the entries field by field; a decoder refuses any count
// larger than the bytes left in the frame, so what it allocates is
// bounded by what it received.
//
// Frames are encoded into their connection's pending buffer (Conn.send)
// and payloads at or above sgMinPayload ride as their own iovecs
// (writev), so a steady-state write frame encodes with zero allocations
// and zero payload copies. On decode the frame buffer is leased from
// the payload pool and the decoded Data aliases it — no copy-out;
// ownership travels with the message until its Release (see lease.go
// for the contract). A large write arriving on a connection with a sink
// skips the frame buffer: its payload is read straight into the device
// extent it will live in (recvPlaced). So does a read reply whose
// request registered caller memory: its payload is read straight into
// the caller's buffer (recvReply).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"themisio/internal/jobtable"
	"themisio/internal/storage"
)

// maxFrame bounds a frame payload; anything larger is a corrupt or
// hostile stream.
const maxFrame = 1 << 30

// sgMinPayload is the payload size at which a frame goes out vectored
// (scatter-gather): everything except the payload is encoded into the
// connection's pending buffer and the payload bytes ride as their own
// iovec(s) straight from caller memory — zero concatenation copies.
// Below it the payload is copied into the pending buffer with the rest
// of the frame (the iovec bookkeeping costs more than copying a few KiB)
// and the frame may share its write with its neighbours.
const sgMinPayload = 8 << 10

// pendingMax bounds the bytes a connection holds encoded but unwritten:
// a sender that finds that much pending blocks until the flusher has
// written it out, so a peer that stops reading is backpressure, not
// memory. Admission is checked before encoding, so pending can overshoot
// by the one frame that was admitted.
const pendingMax = 256 << 10

// Process-wide send-path meters for the operator metrics endpoint:
// frames that went out vectored, the payload bytes that rode as their
// own iovecs (the zero-copy bytes), frames whose payload was copied into
// the pending buffer, and the write calls that carried them all.
var sendVecFrames, sendVecBytes, sendFlatFrames, sendWrites atomic.Int64

// IOStats reports the process-wide send-path split: frames sent
// vectored, the payload bytes those frames carried as caller-owned
// iovecs, and frames whose payload was copied (small payloads and
// control traffic).
func IOStats() (vecFrames, vecPayloadBytes, flatFrames int64) {
	return sendVecFrames.Load(), sendVecBytes.Load(), sendFlatFrames.Load()
}

// SendStats reports the process-wide frames sent and the write calls
// (write or writev) that carried them; frames/writes is the group-commit
// batch size.
func SendStats() (frames, writes int64) {
	return sendVecFrames.Load() + sendFlatFrames.Load(), sendWrites.Load()
}

// send is the one path a frame takes to the socket: group commit. The
// frame's encoding is split around the payload: head holds everything
// through the payload-length uvarint, tail everything after the payload,
// and data/segs the payload itself. The frame is encoded at the end of
// c.pending under smu. A small frame that finds a flusher active is
// done — the flusher will carry it. Otherwise the sender becomes the
// flusher: it yields the processor once, so that every other sender
// already runnable queues its frame behind this one (a loopback write
// never blocks, so without the yield nobody is ever queued; with nothing
// else runnable the yield costs well under a microsecond), then writes
// pending out. A vectored frame is written by its own sender, who
// therefore waits for the flusher role first: frames reach the socket in
// the order they were queued, and when send returns the caller's payload
// has been either copied or written.
func (c *Conn) send(slot int, data []byte, segs [][]byte,
	head func(b []byte, dataLen int) []byte, tail func(b []byte) []byte) error {

	n := len(data)
	for _, s := range segs {
		n += len(s)
	}
	vectored := n >= sgMinPayload
	c.smu.Lock()
	defer c.smu.Unlock()
	for c.werr == nil && (len(c.pending) >= pendingMax || vectored && c.flushing) {
		c.scond.Wait()
	}
	if c.werr != nil {
		return c.werr
	}
	start := len(c.pending)
	b := c.pending
	if !c.magicSent {
		b = append(b, binMagic[:]...)
	}
	lenAt := len(b)
	b = head(append(b, 0, 0, 0, 0), n)
	mid := 0 // where a vectored payload splices into the buffer
	if vectored {
		mid = len(b)
	} else {
		b = append(b, data...)
		for _, s := range segs {
			b = append(b, s...)
		}
	}
	b = tail(b)
	plen := len(b) - lenAt - 4
	if vectored {
		plen += n
	}
	if plen > maxFrame {
		// Nothing was queued: the stream is intact and the magic (if
		// still owed) rides the next frame.
		c.pending = b[:start]
		return fmt.Errorf("transport: frame exceeds %d bytes", maxFrame)
	}
	binary.LittleEndian.PutUint32(b[lenAt:], uint32(plen))
	c.pending, c.magicSent = b, true
	if c.stats != nil {
		c.stats.count(DirOut, slot, int64(lenAt+4+plen-start))
	}
	if vectored {
		sendVecFrames.Add(1)
		sendVecBytes.Add(int64(n))
	} else {
		sendFlatFrames.Add(1)
		if c.flushing {
			return nil
		}
	}
	c.flushing = true
	if !vectored {
		c.smu.Unlock()
		runtime.Gosched()
		c.smu.Lock()
	}
	return c.flush(mid, data, segs)
}

// flush writes pending out, one call per buffer-full, until nothing is
// pending, then gives up the flusher role. The caller holds smu and the
// role. With mid > 0 the first write is the vectored frame's: one writev
// of [pending through its head][the caller's payload][its tail]. The
// first write error latches: the socket is closed and every later sender
// gets the error; senders whose frames were queued behind the failed
// write learn from their reader, which fails on the closed socket.
func (c *Conn) flush(mid int, data []byte, segs [][]byte) error {
	for c.werr == nil && len(c.pending) > 0 {
		buf := c.pending
		c.pending, c.spare = c.spare[:0], nil
		c.scond.Broadcast() // room
		// The list is built in the connection's reusable c.iov (owned by
		// the flusher) and WriteTo is called on the field itself — a
		// local net.Buffers header would escape into the writev interface
		// check and cost an allocation per write, which the 0-alloc
		// encode pin forbids.
		iov := append(c.iov[:0], buf)
		if mid > 0 {
			iov[0] = buf[:mid]
			if len(data) > 0 {
				iov = append(iov, data)
			}
			for _, s := range segs {
				if len(s) > 0 {
					iov = append(iov, s)
				}
			}
			iov = append(iov, buf[mid:])
			mid = 0
		}
		c.iov = iov
		c.smu.Unlock()
		_, err := c.iov.WriteTo(c.raw)
		sendWrites.Add(1)
		// WriteTo consumes the list in place; drop the payload refs so
		// the reusable array cannot pin caller buffers past the send.
		clear(iov)
		c.iov = iov[:0]
		c.smu.Lock()
		if cap(buf) <= 2*pendingMax { // one oversize control frame must not pin its buffer
			c.spare = buf[:0]
		}
		if err != nil {
			c.werr = err
			c.raw.Close()
		}
	}
	c.flushing = false
	c.scond.Broadcast() // the role
	return c.werr
}

// readLen reads the next frame's length prefix, after the stream's
// opening magic when that is still owed.
func (c *Conn) readLen() (int, error) {
	hdr := c.hdr[:] // a local array would escape into ReadFull: one allocation per frame
	if !c.magicSeen {
		if _, err := io.ReadFull(c.br, hdr); err != nil {
			return 0, err
		}
		if c.hdr != binMagic {
			return 0, errBadMagic
		}
		c.magicSeen = true
	}
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return 0, fmt.Errorf("transport: frame of %d bytes", n)
	}
	return int(n), nil
}

// readBody reads an n-byte frame body into a buffer leased from the
// payload pool and returns it. Ownership passes to the caller —
// normally to the decoded message, whose byte-slice Data aliases the
// frame and whose Release returns it (see Lease/Release).
func (c *Conn) readBody(n int) ([]byte, error) {
	top := leaseClasses[len(leaseClasses)-1]
	if n <= top {
		b := Lease(n)
		if _, err := io.ReadFull(c.br, b); err != nil {
			Release(b)
			return nil, err
		}
		return b, nil
	}
	// Above the top lease class the length prefix is a claim, not yet a
	// fact: read in top-class steps into a buffer that grows with the
	// bytes actually received, so a hostile header followed by silence
	// commits one class, not maxFrame.
	b := make([]byte, 0, top)
	for len(b) < n {
		step := min(top, n-len(b))
		b = slices.Grow(b, step)[:len(b)+step]
		if _, err := io.ReadFull(c.br, b[len(b)-step:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// placeHeadMax bounds the request head recvPlaced decodes where it lies
// in the receive buffer: the fixed fields, the job's three names and the
// path. A write whose head is longer takes the leased path.
const placeHeadMax = 1 << 10

// recvPlaced receives the n-byte frame whose length prefix was just read
// into r when it is a write the connection's sink can place: its head is
// decoded where it lies in the receive buffer, its payload read straight
// into an extent the sink reserves, and its tail decoded from the buffer
// — the frame is never assembled anywhere. It reports false with
// nothing consumed when the frame takes the leased path instead: no
// sink, not a write, a payload under sgMinPayload, a frame above the top
// lease class (the length is still a claim, and a claim must not reserve
// device), a head or tail too long for the buffer, or no room in the
// store (the write then meets the store's refusal after its token draw,
// as it did before placement). A frame cut short or failing to decode
// gives its reservation back.
func (c *Conn) recvPlaced(r *Request, n int) (bool, error) {
	if c.sink == nil || n < sgMinPayload || n > leaseClasses[len(leaseClasses)-1] {
		return false, nil
	}
	head, _ := c.br.Peek(min(n, placeHeadMax)) // a short peek fails the decode below
	if len(head) == 0 || MsgType(head[0]) != MsgWrite {
		return false, nil
	}
	d := reader{b: head}
	decodeRequestHead(&d, r, &c.names)
	plen := d.uvarint()
	hlen := len(head) - len(d.b)
	if d.err != nil || plen < sgMinPayload || plen > uint64(n-hlen) || n-hlen-int(plen) > c.br.Size() {
		return false, nil
	}
	tlen := n - hlen - int(plen)
	ext, dst, err := c.sink.Reserve(int(plen))
	if err != nil {
		return false, nil
	}
	if err := c.recvInPlace(hlen, [][]byte{dst}, tlen, nil, func(b []byte) error {
		d := reader{b: b}
		decodeRequestTail(&d, r)
		return d.err
	}); err != nil {
		unplace(c.sink, ext, dst)
		return true, err
	}
	r.Data, r.sink, r.placed = dst, c.sink, ext
	return true, nil
}

// recvInPlace receives the rest of a frame whose head, hlen bytes, was
// peeked and decoded: it consumes the head, reads the payload into the
// spans of dst in order — what the receive buffer already holds is
// copied out, the rest read off the socket straight into place, where
// reading through the buffer would stage its last 64 KiB there first —
// and hands the tlen-byte tail to decodeTail where it lies in the buffer.
// A non-nil filled is told how many payload bytes landed and how the
// payload read ended before anything else is read; its error ends the
// receive there.
func (c *Conn) recvInPlace(hlen int, dst [][]byte, tlen int,
	filled func(landed int, err error) error, decodeTail func(b []byte) error) error {
	_, _ = c.br.Discard(hlen) // peeked: cannot fail
	landed := 0
	var err error
	for _, s := range dst {
		k, _ := c.br.Read(s[:min(len(s), c.br.Buffered())]) // buffered bytes only; a latched read error recurs below
		m := 0
		m, err = io.ReadFull(c.rd, s[k:])
		landed += k + m
		if err != nil {
			break
		}
	}
	if filled != nil {
		err = filled(landed, err)
	}
	if err != nil {
		return err
	}
	tail, err := c.br.Peek(tlen)
	if err != nil {
		return err
	}
	err = decodeTail(tail)
	_, _ = c.br.Discard(tlen)
	return err
}

// A replyDst hands a connection reader the caller memory a reply's
// payload lands in: MuxConn, whose waiters registered it
// (Request.ReplyInto).
type replyDst interface {
	// claim returns the spans registered for the exchange seq when their
	// lengths sum to exactly n, and holds them for the fill; nil leaves
	// the reply to the leased decode.
	claim(seq uint64, n int) [][]byte
	// filled ends the fill claim began and reports whether the exchange
	// was abandoned meanwhile: its spans are then the caller's again.
	filled() (abandoned bool)
}

// errAbandoned is recvReply's report of a reply read to its end into
// nothing because its exchange was abandoned mid-payload.
var errAbandoned = errors.New("transport: reply abandoned")

// recvReply receives the n-byte reply frame whose length prefix was just
// read into r when dst holds caller memory for its payload: the head is
// decoded where it lies in the receive buffer, the payload read into the
// registered spans (recvInPlace) and the tail decoded from the buffer —
// no frame is leased and nothing is copied after. It reports false with
// nothing consumed when the reply takes the leased path instead: no
// spans registered, a payload that is not exactly their length, or a
// head or tail too long for the buffer. A reply whose exchange was
// abandoned while it landed is read to its end into nothing and
// reported as errAbandoned; the stream stays in step.
func (c *Conn) recvReply(r *Response, n int, dst replyDst) (bool, error) {
	head, _ := c.br.Peek(min(n, placeHeadMax)) // a short peek fails the decode below
	d := reader{b: head}
	decodeResponseHead(&d, r)
	plen := d.uvarint()
	hlen := len(head) - len(d.b)
	if d.err != nil || plen == 0 || plen > uint64(n-hlen) || n-hlen-int(plen) > c.br.Size() {
		return false, nil
	}
	tlen := n - hlen - int(plen)
	spans := dst.claim(r.Seq, int(plen))
	if spans == nil {
		return false, nil
	}
	err := c.recvInPlace(hlen, spans, tlen, func(landed int, err error) error {
		if !dst.filled() {
			return err
		}
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return err
		}
		if _, err := c.br.Discard(int(plen) - landed + tlen); err != nil {
			return err
		}
		return errAbandoned
	}, func(b []byte) error {
		d := reader{b: b}
		decodeResponseTail(&d, r)
		return d.err
	})
	if err == nil {
		r.Data, r.placed = nil, true
	}
	return true, err
}

// unplace gives a placement nothing adopted back to its sink, scribbled
// first under SetLeasePoison like a released frame.
func unplace(k Sink, ext storage.Extent, view []byte) {
	if leasePoison.Load() {
		for i := range view {
			view[i] = leasePoisonByte
		}
	}
	k.Unreserve(ext)
}

// --- primitive writers ---------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendSvarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendTable writes a job-table snapshot (gossip frames only — never
// data messages, where the empty table is the single byte 0). Each
// entry's server set goes out sorted, so equal tables encode equally.
func appendTable(b []byte, t []jobtable.Entry) []byte {
	b = binary.AppendUvarint(b, uint64(len(t)))
	var servers []string
	for i := range t {
		e := &t[i]
		b = appendString(b, e.Info.JobID)
		b = appendString(b, e.Info.UserID)
		b = appendString(b, e.Info.GroupID)
		b = appendSvarint(b, int64(e.Info.Nodes))
		b = appendSvarint(b, int64(e.Info.Priority))
		b = appendSvarint(b, int64(e.Info.Presence))
		b = appendSvarint(b, int64(e.Last))
		b = appendSvarint(b, e.Demand)
		servers = servers[:0]
		for s, on := range e.Servers {
			if on {
				servers = append(servers, s)
			}
		}
		slices.Sort(servers)
		b = appendStrings(b, servers)
	}
	return b
}

// appendF64 writes a float64 as 8 fixed little-endian bytes (shares are
// uniform in [0,1]; varint encoding buys nothing on IEEE bit patterns).
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendShares(b []byte, ss []ShareRecord) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s.Kind)
		b = appendString(b, s.ID)
		b = appendF64(b, s.Compiled)
		b = appendF64(b, s.Measured)
		b = appendSvarint(b, s.Bytes)
	}
	return b
}

func appendMembers(b []byte, ms []MemberRecord) []byte {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		b = appendString(b, m.Addr)
		b = append(b, m.State)
		b = binary.AppendUvarint(b, m.Incarnation)
	}
	return b
}

// --- primitive reader ----------------------------------------------------

// reader decodes a frame payload; the first error sticks and zero values
// flow from then on, checked once at the end.
type reader struct {
	b   []byte
	err error
}

func (d *reader) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("transport: truncated frame")
	}
	d.b = nil
}

func (d *reader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *reader) svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *reader) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *reader) bool() bool { return d.u8() != 0 }

// raw returns the next n bytes of the frame without copying.
func (d *reader) raw(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *reader) str() string {
	return string(d.raw(d.uvarint()))
}

// nameCache is a connection's memory of the names its recent request
// frames carried. A connection repeats itself — every frame of a client
// names the same job, user and group, and a stream keeps naming the few
// files it has open — so the decoder hands out the string it made last
// time when the bytes match, where it would allocate an equal one. The
// job fields have one slot each (the last frame's); paths share a
// direct-mapped table, where a collision costs the allocation the cache
// exists to save and nothing else. Owned by the connection's reader.
type nameCache [namePath + pathSlots]string

// nameCache slots.
const (
	nameJob = iota
	nameUser
	nameGroup
	namePath // the first of pathSlots path slots

	pathSlots = 64
)

var pathSeed = maphash.MakeSeed()

// name decodes the next string through slot i of nc (a path picks its
// slot by its bytes); without a cache it is str.
func (d *reader) name(nc *nameCache, i int) string {
	b := d.raw(d.uvarint())
	if nc == nil || len(b) == 0 {
		return string(b)
	}
	if i == namePath {
		i += int(maphash.Bytes(pathSeed, b) % pathSlots)
	}
	if nc[i] != string(b) {
		nc[i] = string(b)
	}
	return nc[i]
}

// alias returns the next length-prefixed slice as a view into the
// frame buffer — no copy. The frame is leased and owned by the decoded
// message (Release discipline), so the view stays valid until the
// message releases it.
func (d *reader) alias() []byte {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	return d.raw(n)
}

func (d *reader) strs() []string {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	if n > uint64(len(d.b)) { // each entry takes ≥1 byte
		d.fail()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.str())
	}
	return out
}

func (d *reader) table() []jobtable.Entry {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	if n > uint64(len(d.b)) { // each entry takes ≥1 byte
		d.fail()
		return nil
	}
	out := make([]jobtable.Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e jobtable.Entry
		e.Info.JobID = d.str()
		e.Info.UserID = d.str()
		e.Info.GroupID = d.str()
		e.Info.Nodes = int(d.svarint())
		e.Info.Priority = int(d.svarint())
		e.Info.Presence = int(d.svarint())
		e.Last = time.Duration(d.svarint())
		e.Demand = d.svarint()
		if servers := d.strs(); len(servers) > 0 {
			e.Servers = make(map[string]bool, len(servers))
			for _, s := range servers {
				e.Servers[s] = true
			}
		}
		out = append(out, e)
	}
	return out
}

func (d *reader) f64() float64 {
	raw := d.raw(8)
	if raw == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw))
}

func (d *reader) shares() []ShareRecord {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	out := make([]ShareRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		var s ShareRecord
		s.Kind = d.str()
		s.ID = d.str()
		s.Compiled = d.f64()
		s.Measured = d.f64()
		s.Bytes = d.svarint()
		out = append(out, s)
	}
	return out
}

func (d *reader) members() []MemberRecord {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	out := make([]MemberRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		var m MemberRecord
		m.Addr = d.str()
		m.State = d.u8()
		m.Incarnation = d.uvarint()
		out = append(out, m)
	}
	return out
}

// --- message codecs ------------------------------------------------------

// AppendRequestFrame appends the binary encoding of r to b (no length
// prefix) and returns the extended slice. Exported for the codec
// benchmark; the wire path goes through Conn. With sufficient capacity
// in b, encoding allocates nothing — the property the 0-alloc
// regression test pins.
func AppendRequestFrame(b []byte, r *Request) []byte { return appendRequest(b, r) }

// DecodeRequestFrame decodes a payload produced by AppendRequestFrame.
// The decoded Data aliases b — the caller owns the lifetime (on the
// wire path the alias is a leased frame released via Request.Release).
func DecodeRequestFrame(b []byte, r *Request) error { return decodeRequest(b, r) }

// AppendResponseFrame appends the binary encoding of r to b.
func AppendResponseFrame(b []byte, r *Response) []byte { return appendResponse(b, r) }

// DecodeResponseFrame decodes a payload produced by AppendResponseFrame.
func DecodeResponseFrame(b []byte, r *Response) error { return decodeResponse(b, r) }

// Flags of the optional trailing group of a request frame. The group is
// omitted entirely when every flagged field is zero; flagged field
// groups are encoded in flag-bit order.
const (
	// reqFlagAppendAt: an offset-checked append position
	// (AppendAt/AppendOff).
	reqFlagAppendAt = 1 << 0
	// reqFlagShareFilter: a MsgShareReport paging filter
	// (ShareTopN/ShareKind).
	reqFlagShareFilter = 1 << 1
)

// appendRequestHead appends the fields up to and including the payload
// length — the prefix of the frame that precedes the Data bytes.
func appendRequestHead(b []byte, r *Request, dataLen int) []byte {
	b = append(b, byte(r.Type))
	b = appendUvarint(b, r.Seq)
	b = appendString(b, r.Job.JobID)
	b = appendString(b, r.Job.UserID)
	b = appendString(b, r.Job.GroupID)
	b = appendSvarint(b, int64(r.Job.Nodes))
	b = appendSvarint(b, int64(r.Job.Priority))
	b = appendSvarint(b, int64(r.Job.Presence))
	b = appendString(b, r.Path)
	b = appendSvarint(b, r.Offset)
	b = appendSvarint(b, r.Size)
	b = appendUvarint(b, uint64(dataLen))
	return b
}

// appendRequestTail appends the fields after the Data bytes, plus the
// optional trailing group (omitted when all-zero).
func appendRequestTail(b []byte, r *Request) []byte {
	b = appendSvarint(b, int64(r.Stripes))
	b = appendSvarint(b, r.StripeUnit)
	b = appendStrings(b, r.StripeSet)
	b = append(b, r.MigrateOp)
	b = appendUvarint(b, r.Gen)
	b = appendUvarint(b, r.LayoutGen)
	b = appendString(b, r.From)
	b = appendMembers(b, r.Members)
	b = appendTable(b, r.Table)
	b = appendString(b, r.PolicyStr)
	b = appendUvarint(b, r.PolicyEpoch)
	var flags uint64
	if r.AppendAt {
		flags |= reqFlagAppendAt
	}
	if r.ShareTopN != 0 || r.ShareKind != "" {
		flags |= reqFlagShareFilter
	}
	if flags != 0 {
		b = appendUvarint(b, flags)
		if flags&reqFlagAppendAt != 0 {
			b = appendSvarint(b, r.AppendOff)
		}
		if flags&reqFlagShareFilter != 0 {
			b = appendSvarint(b, int64(r.ShareTopN))
			b = appendString(b, r.ShareKind)
		}
	}
	return b
}

func appendRequest(b []byte, r *Request) []byte {
	b = appendRequestHead(b, r, r.payloadLen())
	if r.DataSegs != nil {
		for _, s := range r.DataSegs {
			b = append(b, s...)
		}
	} else {
		b = append(b, r.Data...)
	}
	return appendRequestTail(b, r)
}

func decodeRequest(b []byte, r *Request) error { return decodeRequestNames(b, r, nil) }

// decodeRequestNames is decodeRequest through a connection's name cache.
// Every field of r is overwritten, so r may be a recycled message.
func decodeRequestNames(b []byte, r *Request, nc *nameCache) error {
	d := reader{b: b}
	decodeRequestHead(&d, r, nc)
	r.Data = d.alias()
	decodeRequestTail(&d, r)
	return d.err
}

// decodeRequestHead decodes the fields appendRequestHead wrote before
// the payload length.
func decodeRequestHead(d *reader, r *Request, nc *nameCache) {
	r.Type = MsgType(d.u8())
	r.Seq = d.uvarint()
	r.Job.JobID = d.name(nc, nameJob)
	r.Job.UserID = d.name(nc, nameUser)
	r.Job.GroupID = d.name(nc, nameGroup)
	r.Job.Nodes = int(d.svarint())
	r.Job.Priority = int(d.svarint())
	r.Job.Presence = int(d.svarint())
	r.Path = d.name(nc, namePath)
	r.Offset = d.svarint()
	r.Size = d.svarint()
}

// decodeRequestTail decodes the fields appendRequestTail wrote. Nothing
// it returns aliases the frame.
func decodeRequestTail(d *reader, r *Request) {
	r.Stripes = int(d.svarint())
	r.StripeUnit = d.svarint()
	r.StripeSet = d.strs()
	r.MigrateOp = d.u8()
	r.Gen = d.uvarint()
	r.LayoutGen = d.uvarint()
	r.From = d.str()
	r.Members = d.members()
	r.Table = d.table()
	r.PolicyStr = d.str()
	r.PolicyEpoch = d.uvarint()
	r.DataSegs, r.ReplyInto = nil, nil
	r.AppendAt, r.AppendOff, r.ShareTopN, r.ShareKind = false, 0, 0, ""
	// Optional trailing group: present only when a flagged field is set.
	if d.err == nil && len(d.b) > 0 {
		flags := d.uvarint()
		if flags&reqFlagAppendAt != 0 {
			r.AppendAt = true
			r.AppendOff = d.svarint()
		}
		if flags&reqFlagShareFilter != 0 {
			r.ShareTopN = int(d.svarint())
			r.ShareKind = d.str()
		}
	}
}

// appendResponseHead appends the fields up to and including the payload
// length — the prefix of the frame that precedes the Data bytes.
func appendResponseHead(b []byte, r *Response, dataLen int) []byte {
	b = appendUvarint(b, r.Seq)
	b = appendString(b, r.Err)
	b = appendSvarint(b, r.N)
	b = appendUvarint(b, uint64(dataLen))
	return b
}

// appendResponseTail appends the fields after the Data bytes, plus the
// trailing capability word (omitted when zero).
func appendResponseTail(b []byte, r *Response) []byte {
	b = appendSvarint(b, r.Size)
	b = appendBool(b, r.IsDir)
	b = appendStrings(b, r.Names)
	b = appendSvarint(b, int64(r.Stripes))
	b = appendSvarint(b, r.StripeUnit)
	b = appendStrings(b, r.StripeSet)
	b = appendUvarint(b, r.LayoutGen)
	b = appendUvarint(b, r.Gen)
	b = appendUvarint(b, r.Epoch)
	b = appendMembers(b, r.Members)
	b = appendTable(b, r.Table)
	b = appendString(b, r.PolicyStr)
	b = appendUvarint(b, r.PolicyEpoch)
	b = appendShares(b, r.Shares)
	if r.Caps != 0 {
		b = appendUvarint(b, r.Caps)
	}
	return b
}

func appendResponse(b []byte, r *Response) []byte {
	b = appendResponseHead(b, r, len(r.Data))
	b = append(b, r.Data...)
	return appendResponseTail(b, r)
}

// decodeResponse overwrites every field of r, so r may be a recycled
// message.
func decodeResponse(b []byte, r *Response) error {
	d := reader{b: b}
	decodeResponseHead(&d, r)
	r.Data = d.alias()
	decodeResponseTail(&d, r)
	return d.err
}

// decodeResponseHead decodes the fields appendResponseHead wrote before
// the payload length.
func decodeResponseHead(d *reader, r *Response) {
	r.Seq = d.uvarint()
	r.Err = d.str()
	r.N = d.svarint()
}

// decodeResponseTail decodes the fields appendResponseTail wrote. Nothing
// it returns aliases the frame.
func decodeResponseTail(d *reader, r *Response) {
	r.Size = d.svarint()
	r.IsDir = d.bool()
	r.Names = d.strs()
	r.Stripes = int(d.svarint())
	r.StripeUnit = d.svarint()
	r.StripeSet = d.strs()
	r.LayoutGen = d.uvarint()
	r.Gen = d.uvarint()
	r.Epoch = d.uvarint()
	r.Members = d.members()
	r.Table = d.table()
	r.PolicyStr = d.str()
	r.PolicyEpoch = d.uvarint()
	r.Shares = d.shares()
	r.Caps, r.placed = 0, false
	// Optional trailing capability word.
	if d.err == nil && len(d.b) > 0 {
		r.Caps = d.uvarint()
	}
}
