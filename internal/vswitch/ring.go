// Package vswitch simulates the paper's Open vSwitch deployment (§VII) with
// the same three-component layout: a datapath that forwards packets whose
// flow IDs were extracted beforehand, a shared-memory buffer carrying the
// IDs, and a user-space measurement program consuming them. The DPDK testbed
// is replaced by goroutines and a lock-free single-producer/single-consumer
// ring, so the experiment measures the same thing the paper does: how much
// a measurement algorithm slows the switch down relative to forwarding
// alone.
package vswitch

import (
	"fmt"
	"sync/atomic"
)

// MaxKeySize is the largest flow identifier the ring can carry; 13 bytes
// covers the 5-tuple, the largest ID in this repository.
const MaxKeySize = 16

// slotSize is one ring slot: length prefix + key bytes.
const slotSize = 1 + MaxKeySize

// Ring is a bounded lock-free single-producer/single-consumer queue of flow
// identifiers, standing in for the OVS implementation's shared memory
// between the datapath and the user-space program.
type Ring struct {
	mask uint64
	buf  []byte
	// head is the next slot to read, tail the next to write. Only the
	// consumer advances head; only the producer advances tail.
	head atomic.Uint64
	_    [7]uint64 // keep head and tail on separate cache lines
	tail atomic.Uint64
}

// NewRing returns a ring with capacity slots (rounded up to a power of two,
// minimum 2).
func NewRing(capacity int) (*Ring, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("vswitch: ring capacity %d, must be >= 1", capacity)
	}
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &Ring{
		mask: n - 1,
		buf:  make([]byte, n*slotSize),
	}, nil
}

// MustNewRing is NewRing that panics on error.
func MustNewRing(capacity int) *Ring {
	r, err := NewRing(capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Cap returns the slot capacity.
func (r *Ring) Cap() int { return int(r.mask + 1) }

// Push enqueues key. It returns false when the ring is full or the key is
// oversized; the caller decides whether to drop or retry (the datapath
// drops, as a real shared-memory tap must to preserve line rate).
func (r *Ring) Push(key []byte) bool {
	if len(key) > MaxKeySize {
		return false
	}
	tail := r.tail.Load()
	if tail-r.head.Load() > r.mask {
		return false // full
	}
	off := (tail & r.mask) * slotSize
	r.buf[off] = byte(len(key))
	copy(r.buf[off+1:off+1+uint64(len(key))], key)
	r.tail.Store(tail + 1)
	return true
}

// Pop dequeues one key into dst (which must have capacity MaxKeySize) and
// returns the filled slice. ok is false when the ring is empty.
func (r *Ring) Pop(dst []byte) (key []byte, ok bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil, false
	}
	off := (head & r.mask) * slotSize
	n := uint64(r.buf[off])
	key = dst[:n]
	copy(key, r.buf[off+1:off+1+n])
	r.head.Store(head + 1)
	return key, true
}

// Len returns the number of queued entries (racy but monotonic enough for
// stats).
func (r *Ring) Len() int {
	return int(r.tail.Load() - r.head.Load())
}
