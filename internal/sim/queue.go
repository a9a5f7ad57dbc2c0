package sim

import (
	"math"
	"math/bits"

	"coolpim/internal/units"
)

// eventQueue is the engine's pending-event priority queue: a calendar
// queue sized from the simulator's measured scheduling traffic, with a
// 4-ary min-heap behind it. DESIGN.md §6a gives the measurements.
//
// The ring is 4,096 buckets of 1,024 ps each, so it reaches about
// 4.2 µs past the last popped event; 97–98 % of pushes land in that
// range. Each bucket is a singly linked list, kept in (at, seq) order,
// whose nodes live in one arena slice; an occupancy bitmap finds the
// next non-empty bucket. The heap takes every event past the ring's
// horizon (thermal ticks, the sampler, post-shutdown recovery) and
// every out-of-order insert into a bucket that already holds
// crowdedBucket events, which bounds the sorted-insert walk.
//
// Invariant: every ring event lies in [base, base+horizon), where base
// is the start of the bucket of the last popped event. Bucket b then
// holds only times in one 1,024 ps range, and the buckets from the
// cursor (base's bucket) around the ring cover consecutive ranges, so
// the ring's earliest event is the head of the first non-empty bucket
// at or after the cursor. A push is never earlier than the engine's
// clock, which is never earlier than base, and pop takes the global
// minimum, so moving base to the popped event's bucket keeps every
// remaining ring event inside the window.
//
// Determinism: execution order is (at, seq) lexicographic, identical
// to the reference heap (TestQueueMatchesReferenceHeap and
// FuzzQueueOrder replay schedules through both). Every queued item is
// in exactly one of {ring, heap}; the ring's front is its (at, seq)
// minimum by the invariant and the per-bucket order, the heap's root
// is the heap's, and pop takes the smaller of the two.
type eventQueue struct {
	ring   *ring      // allocated by the first push that lands in it
	base   units.Time // start of the cursor bucket; moved only by pop
	nodes  []item     // bucket list arena; index 0 is the nil link
	free   int32      // head of the arena's free list; 0 when empty
	inRing int        // events linked into ring buckets
	heap   []item     // 4-ary min-heap: past-horizon events and crowded-bucket spill
}

const (
	bucketShift   = 10 // 1,024 ps buckets
	ringBuckets   = 4096
	ringMask      = ringBuckets - 1
	horizon       = units.Time(ringBuckets << bucketShift) // 4,194,304 ps
	crowdedBucket = 16
)

// ring is the calendar's fixed storage, about 49 KB.
type ring struct {
	buckets [ringBuckets]bucket
	occ     [ringBuckets / 64]uint64 // bit b&63 of occ[b>>6]: bucket b is non-empty
	words   uint64                   // bit w: occ[w] != 0
}

// bucket is one time slot's (at, seq)-sorted list of arena nodes.
type bucket struct {
	head, tail int32
	n          int32
}

// itemLess is the total order every event executes in: time first,
// insertion sequence as the deterministic tie-break.
func itemLess(a, b *item) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *eventQueue) len() int { return q.inRing + len(q.heap) }

// push enqueues an event. Its seq is the largest queued, so in a bucket
// it goes after every event at or before its time: usually at the tail.
//
// push, alloc and popUntil move an event field by field, never as a
// whole item: a block copy of an item whose fields were just stored one
// by one stalls store forwarding, which cost about 25 ns per event on a
// one-event chain.
func (q *eventQueue) push(at units.Time, seq uint64, label uint16, fn Event) {
	if at-q.base >= horizon {
		q.heapPush(item{at: at, seq: seq, label: label, fn: fn})
		return
	}
	if q.ring == nil {
		q.setUp()
	}
	r := q.ring
	bi := int(at>>bucketShift) & ringMask
	b := &r.buckets[bi]
	switch {
	case b.n == 0:
		i := q.alloc(at, seq, label, fn)
		b.head, b.tail = i, i
		r.occ[bi>>6] |= 1 << (bi & 63)
		r.words |= 1 << (bi >> 6)
	case at >= q.nodes[b.tail].at:
		i := q.alloc(at, seq, label, fn)
		q.nodes[b.tail].next = i
		b.tail = i
	case b.n >= crowdedBucket:
		q.heapPush(item{at: at, seq: seq, label: label, fn: fn})
		return
	default:
		q.insert(b, q.alloc(at, seq, label, fn))
	}
	b.n++
	q.inRing++
}

// setUp allocates the ring and the arena's nil link, once per engine.
func (q *eventQueue) setUp() {
	q.ring = new(ring) //coolpim:allow hotalloc one-time ring set-up, on the engine's first near-term push
	if len(q.nodes) == 0 {
		q.nodes = append(q.nodes, item{}) //coolpim:allow hotalloc one-time ring set-up: the arena's nil link
	}
}

// alloc stores an event in a free arena node and returns the node's
// index.
func (q *eventQueue) alloc(at units.Time, seq uint64, label uint16, fn Event) int32 {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		q.nodes = append(q.nodes, item{}) //coolpim:allow hotalloc amortized arena growth; popped nodes are reused, and Reserve pre-sizes the arena
		i = int32(len(q.nodes) - 1)
	}
	n := &q.nodes[i]
	n.at, n.seq, n.label, n.next, n.fn = at, seq, label, 0, fn
	return i
}

// insert links node i into b, which holds a later event, before the
// first event later than it.
func (q *eventQueue) insert(b *bucket, i int32) {
	nodes := q.nodes
	at := nodes[i].at
	if at < nodes[b.head].at {
		nodes[i].next = b.head
		b.head = i
		return
	}
	p := b.head
	for nodes[nodes[p].next].at <= at {
		p = nodes[p].next
	}
	nodes[i].next = nodes[p].next
	nodes[p].next = i
}

// first returns the first non-empty bucket at or after from in ring
// order. Precondition: the ring holds an event.
func (r *ring) first(from int) int {
	w := from >> 6
	if m := r.occ[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	// Word w has nothing at or after from: take the next non-empty word,
	// wrapping past the end of the ring back to word 0.
	ws := r.words >> (w + 1) << (w + 1)
	if ws == 0 {
		ws = r.words
	}
	w = bits.TrailingZeros64(ws) & 63
	return w<<6 | bits.TrailingZeros64(r.occ[w])
}

// front returns the ring's earliest event's bucket. Precondition:
// inRing > 0. It reads only, so minAt between a Cluster's windows never
// moves the ring.
func (q *eventQueue) front() *bucket {
	return &q.ring.buckets[q.ring.first(int(q.base>>bucketShift)&ringMask)]
}

// minAt returns the earliest queued timestamp. Precondition: len > 0.
func (q *eventQueue) minAt() units.Time {
	at := units.Time(math.MaxInt64)
	if q.inRing > 0 {
		at = q.nodes[q.front().head].at
	}
	if len(q.heap) > 0 && q.heap[0].at < at {
		at = q.heap[0].at
	}
	return at
}

// popUntil removes the (at, seq)-minimum event and returns its time,
// label and handler if it is due at or before limit. It finds the front
// once: the ring's earliest event against the heap root.
func (q *eventQueue) popUntil(limit units.Time) (at units.Time, label uint16, fn Event, ok bool) {
	if q.inRing > 0 {
		b := q.front()
		h := b.head
		if n := &q.nodes[h]; len(q.heap) == 0 || itemLess(n, &q.heap[0]) {
			if n.at > limit {
				return 0, 0, nil, false
			}
			at, label, fn = n.at, n.label, n.fn
			next := n.next
			n.fn = nil // release the closure for GC
			n.next = q.free
			q.free = h
			q.inRing--
			if b.n--; b.n == 0 {
				bi := int(at>>bucketShift) & ringMask
				r := q.ring
				if r.occ[bi>>6] &^= 1 << (bi & 63); r.occ[bi>>6] == 0 {
					r.words &^= 1 << (bi >> 6)
				}
			} else {
				b.head = next
			}
			q.base = at &^ (1<<bucketShift - 1)
			return at, label, fn, true
		}
	}
	if len(q.heap) == 0 || q.heap[0].at > limit {
		return 0, 0, nil, false
	}
	it := q.heapPop()
	q.base = it.at &^ (1<<bucketShift - 1)
	return it.at, it.label, it.fn, true
}

// reserve grows the arena so roughly n events queue without
// reallocation, and the heap to a sixteenth of that: past-horizon
// events and crowded-bucket spill are a few percent of the pushes.
// Existing contents are preserved.
func (q *eventQueue) reserve(n int) {
	if cap(q.nodes) < n+1 {
		nodes := make([]item, len(q.nodes), n+1)
		copy(nodes, q.nodes)
		q.nodes = nodes
	}
	if h := n / 16; cap(q.heap) < h {
		heap := make([]item, len(q.heap), h)
		copy(heap, q.heap)
		q.heap = heap
	}
}

// heapPush inserts into the 4-ary heap with an inlined sift-up.
func (q *eventQueue) heapPush(it item) {
	h := append(q.heap, it) //coolpim:allow hotalloc amortized growth; heap capacity is retained across pops, and Reserve pre-sizes it
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !itemLess(&it, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	q.heap = h
}

// heapPop removes the heap root with an inlined sift-down.
func (q *eventQueue) heapPop() item {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	it := h[n]
	h[n] = item{} // release the closure for GC
	h = h[:n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if itemLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !itemLess(&h[m], &it) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = it
	}
	q.heap = h
	return top
}
