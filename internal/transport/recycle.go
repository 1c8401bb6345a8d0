// Message recycling: the request path's Request, Response and reply
// channel values come from pools and go back to them, so a steady stream
// of small calls allocates (almost) nothing between arrival and reply.
//
// Recycling is never implied. Release returns a message's lease
// and leaves every other field readable; Recycle (or Reset, for a message
// embedded in a pooled value of the caller's own) additionally gives the
// message itself up, and is called only where ownership is linear — by
// the one holder that can prove nobody else still reads the message:
//
//   - the server, for the request and response of one inflight value,
//     after the reply is on the wire (internal/server);
//   - the stripe pipeline, for the requests it built and the replies
//     it collected, and never for an exchange it abandoned on
//     cancellation (stripe.go);
//   - MuxConn, for the reply channel of an exchange whose single reply
//     was received, and for a reply nobody was waiting for.
//
// A namespace or control reply handed to a caller (MuxConn.Call) is the
// caller's to keep: it is read after its Release and never recycled.
// Under SetLeasePoison a recycled message is scribbled, so a holder that
// broke the rule reads garbage instead of the next request's fields.
package transport

import "sync"

var (
	requestPool  = sync.Pool{New: func() any { return new(Request) }}
	responsePool = sync.Pool{New: func() any { return new(Response) }}
	// replyChanPool holds empty reply channels (capacity 1).
	replyChanPool = sync.Pool{New: func() any { return make(chan *Response, 1) }}
)

// poisonName is what a recycled message's Path reads as under
// SetLeasePoison.
const poisonName = "\xdb\xdb\xdb\xdb\xdb\xdb\xdb\xdb"

// GetRequest returns a pooled request holding init. The holder gives it
// back with Recycle once nothing reads it any more, or simply drops it.
func GetRequest(init Request) *Request {
	r := requestPool.Get().(*Request)
	*r = init
	return r
}

// Reset releases the request's frame and clears every field for reuse.
func (r *Request) Reset() {
	r.Release()
	*r = Request{}
	if leasePoison.Load() {
		r.Seq, r.Path = ^uint64(0), poisonName
	}
}

// Recycle resets the request and returns it to the pool GetRequest
// draws from. The caller must hold the only reference.
func (r *Request) Recycle() {
	r.Reset()
	requestPool.Put(r)
}

// Reset releases the response's frame and clears every field for reuse.
func (r *Response) Reset() {
	r.Release()
	*r = Response{}
	if leasePoison.Load() {
		r.Seq, r.Err = ^uint64(0), poisonName
	}
}

// Recycle resets the response and returns it to the pool the client's
// connection readers draw from. The caller must hold the only reference.
func (r *Response) Recycle() {
	r.Reset()
	responsePool.Put(r)
}
