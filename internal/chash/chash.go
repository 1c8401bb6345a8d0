// Package chash places files and metadata on servers (§4.3) by rendezvous
// hashing: a key lives on the servers scoring highest for it, so a join or
// a removal moves only keys the server joining or leaving wins or held.
package chash

import (
	"hash/fnv"
	"slices"
	"sync"
)

// Ring is the set of servers keys are placed on; safe for concurrent use.
type Ring struct {
	mu    sync.RWMutex
	names []string // sorted, so a tie in score goes to the lower name
	h     []uint64 // h[i] is hash64(names[i])
}

// New returns an empty ring. The argument, once a virtual-node count, is ignored.
func New(int) *Ring { return &Ring{} }

// hash64 is FNV-1a, which clusters on similar strings, through the splitmix64 finalizer.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix(h.Sum64())
}

func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Add inserts a node. Adding an existing node is a no-op.
func (r *Ring) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, found := slices.BinarySearch(r.names, name); !found {
		r.names, r.h = slices.Insert(r.names, i, name), slices.Insert(r.h, i, hash64(name))
	}
}

// Remove deletes a node.
func (r *Ring) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, found := slices.BinarySearch(r.names, name); found {
		r.names, r.h = slices.Delete(r.names, i, i+1), slices.Delete(r.h, i, i+1)
	}
}

// Nodes returns the current node set, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string{}, r.names...)
}

// Len returns the number of nodes.
func (r *Ring) Len() int { return len(r.Nodes()) }

// Lookup returns LookupN(key, 1)[0]; ok is false if the ring is empty.
func (r *Ring) Lookup(key string) (node string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.best(hash64(key), nil), len(r.h) > 0
}

// LookupN returns the min(n, Len()) nodes scoring highest for key, best
// first: a file's stripe set. A larger n only appends.
func (r *Ring) LookupN(key string, n int) (out []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for hk := hash64(key); len(out) < min(n, len(r.h)); {
		out = append(out, r.best(hk, out))
	}
	return out
}

// best is the node not in out with the highest score mix(h[i] ^ hk).
func (r *Ring) best(hk uint64, out []string) (node string) {
	found, top := false, uint64(0)
	for i, h := range r.h {
		if s := mix(h ^ hk); (!found || s > top) && !slices.Contains(out, r.names[i]) {
			node, found, top = r.names[i], true, s
		}
	}
	return node
}
