package transport

import (
	"bufio"
	"io"
	"net"
	"sync/atomic"
)

// Stats counts frames and bytes through a set of connections, by
// message type and direction — the transport layer's contribution to
// the operator metrics endpoint. Requests are attributed to their
// MsgType; responses (which carry no type on the wire) are counted
// under the synthetic "response" row. Counting is a pair of atomic
// adds per frame; a Stats may be shared by every connection a server
// accepts.
//
// Byte counts are exact stream positions, not payload sizes: the
// sender side counts each frame's encoded length (framing and codec
// magic included) when it is queued, and the receiver side derives the
// consumed prefix as raw-bytes-read minus the decoder's read-ahead
// still buffered.
type Stats struct {
	frames [2][numTypeSlots]atomic.Int64
	bytes  [2][numTypeSlots]atomic.Int64
}

// Directions for Stats rows.
const (
	DirIn = iota
	DirOut
)

// numMsgTypes is the count of defined MsgType values; the extra slot
// counts responses.
const (
	numMsgTypes  = int(MsgShareReport) + 1
	respSlot     = numMsgTypes
	numTypeSlots = numMsgTypes + 1
)

func (s *Stats) count(dir, slot int, nbytes int64) {
	if slot < 0 || slot >= numTypeSlots {
		return
	}
	s.frames[dir][slot].Add(1)
	s.bytes[dir][slot].Add(nbytes)
}

// Snapshot emits one row per (type, direction) with traffic: typ is
// the MsgType name or "response", dir is "in" or "out". Rows with zero
// frames are skipped, so a scrape shows only the message types the
// fabric has actually exchanged.
func (s *Stats) Snapshot(emit func(typ, dir string, frames, bytes int64)) {
	dirs := [2]string{DirIn: "in", DirOut: "out"}
	for d := 0; d < 2; d++ {
		for t := 0; t < numTypeSlots; t++ {
			f := s.frames[d][t].Load()
			if f == 0 {
				continue
			}
			name := "response"
			if t < numMsgTypes {
				name = MsgType(t).String()
			}
			emit(name, dirs[d], f, s.bytes[d][t].Load())
		}
	}
}

// countReader counts raw bytes read from the socket. It sits between
// the net.Conn and the bufio.Reader, so its count includes the
// decoder's read-ahead; the per-message attribution subtracts what is
// still buffered. Owned by the single reader goroutine — plain fields.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// recvBuf is the receive buffer: large enough that one read takes in
// what a peer's flusher put out in one write, and that a 4 KiB-payload
// frame is never split across two reads. A frame larger than what is
// buffered still reads directly into its lease.
const recvBuf = 64 << 10

// NewConnStats is NewConn with per-message accounting into st (an
// instrumented server's accept side). A nil st disables accounting.
func NewConnStats(raw net.Conn, st *Stats) *Conn {
	c := &Conn{raw: raw, stats: st}
	c.scond.L = &c.smu
	var r io.Reader = raw
	if st != nil {
		c.cr = &countReader{r: raw}
		r = c.cr
	}
	c.rd, c.br = r, bufio.NewReaderSize(r, recvBuf)
	return c
}

// recvPos returns the stream position the reader has consumed up to:
// raw bytes read minus the decoder read-ahead still buffered.
func (c *Conn) recvPos() int64 { return c.cr.n - int64(c.br.Buffered()) }

// noteRecv attributes the just-decoded message's bytes. Reader
// goroutine only.
func (c *Conn) noteRecv(slot int) {
	pos := c.recvPos()
	c.stats.count(DirIn, slot, pos-c.lastRecvPos)
	c.lastRecvPos = pos
}
