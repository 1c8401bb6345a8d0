// Payload buffer leasing: the tiered sync.Pool behind the zero-copy
// receive path. A received payload that lands neither in a sink extent
// nor in caller memory is read into a buffer leased from this pool — the
// payload only, its frame's head and tail decoded from the receive
// buffer — and the decoded Data is that buffer; a frame with no payload
// is leased whole and its fields decoded from the lease. Ownership rides
// with the message until its Release. The server's read path leases its
// reply payloads from the same pool, so a steady read/write workload
// recycles stripe-unit-sized buffers instead of allocating one per data
// message.
//
// Ownership contract (see ARCHITECTURE.md "The zero-copy data plane"):
//
//   - Lease(n) returns a []byte of length n whose backing array came
//     from the pool (or a fresh allocation on a miss, or a plain
//     allocation above the largest class).
//   - Release(b) returns the backing array to its size class. b must be
//     a slice obtained from Lease (reslicing the front, b[:k], is fine —
//     the backing array is recycled whole). Releasing is optional:
//     an unreleased buffer falls to the garbage collector like any
//     other allocation — a throughput leak, never a correctness one.
//   - After Release, the buffer and every alias of it must not be
//     touched. SetLeasePoison(true) (tests) scribbles released buffers
//     so a use-after-release shows up as corrupt data under -race
//     instead of a heisenbug.
//
// The messages themselves are recycled too, by a separate and explicitly
// named call: Recycle (recycle.go) — never by Release, after which a
// message's other fields stay readable.
package transport

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// leaseClasses are the payload size classes, spanning a heartbeat frame
// up to a 4 MiB stripe unit, each with head-room for the frame header: a
// frame leased whole is its payload plus some fifty bytes, and payloads
// are powers of two, so a class of exactly 2^k would send every one of
// them to the next class up — a 1 MiB write into a 4 MiB buffer. Above the
// top class Lease falls back to a plain allocation (Release ignores it).
var leaseClasses = [...]int{
	4<<10 + leaseHeadroom, 16<<10 + leaseHeadroom, 64<<10 + leaseHeadroom,
	256<<10 + leaseHeadroom, 1<<20 + leaseHeadroom, MaxRead + leaseHeadroom,
}

const leaseHeadroom = 512

// MaxRead is the top class's payload and the largest read a server
// answers; callers read ChunkBytes at a time.
const MaxRead = 4 << 20

// leasePools hold each class's free backing arrays as pointers to their
// first byte: a pointer rides in the pool's interface value as it is,
// where a slice header would be boxed — one allocation per Release. The
// class fixes the array's length, so the pointer is all a Lease needs.
var leasePools [len(leaseClasses)]sync.Pool

// leaseGets / leaseMisses meter the payload pool for the operator
// metrics endpoint.
var leaseGets, leaseMisses atomic.Int64

// leasePoison, when set, scribbles released buffers (test hook).
var leasePoison atomic.Bool

// leasePoisonByte is what a released buffer is filled with under
// SetLeasePoison — distinctive enough that it cannot pass for payload
// in a content-checked test.
const leasePoisonByte = 0xdb

// Lease returns a length-n byte slice backed by the payload pool.
func Lease(n int) []byte {
	leaseGets.Add(1)
	for i, sz := range leaseClasses {
		if n <= sz {
			if v := leasePools[i].Get(); v != nil {
				return unsafe.Slice((*byte)(v.(unsafe.Pointer)), sz)[:n]
			}
			leaseMisses.Add(1)
			return make([]byte, n, sz)
		}
	}
	leaseMisses.Add(1)
	return make([]byte, n)
}

// Release returns a leased buffer's backing array to its size class.
// Slices whose capacity matches no class (plain allocations above the
// top class, or foreign slices) are left to the garbage collector.
func Release(b []byte) {
	if b == nil {
		return
	}
	c := cap(b)
	for i, sz := range leaseClasses {
		if c == sz {
			full := b[:sz]
			if leasePoison.Load() {
				for j := range full {
					full[j] = leasePoisonByte
				}
			}
			leasePools[i].Put(unsafe.Pointer(unsafe.SliceData(full)))
			return
		}
	}
}

// LeaseStats reports the payload pool's lifetime gets and misses (a
// miss is a Lease that had to allocate). Process-wide, like IOStats.
func LeaseStats() (gets, misses int64) {
	return leaseGets.Load(), leaseMisses.Load()
}

// SetLeasePoison toggles scribbling of released buffers and of recycled
// messages (see Recycle) — a test hook that turns any read-after-Release
// or use-after-Recycle into visibly corrupt data. Safe to leave on for
// whole test binaries: a correct program never observes a released
// buffer or a recycled message.
func SetLeasePoison(on bool) { leasePoison.Store(on) }
