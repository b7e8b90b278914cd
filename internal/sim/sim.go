// Package sim implements the deterministic discrete-event engine every other
// component of the simulator is driven by.
//
// Events are callbacks scheduled at absolute simulated times. Events with
// equal timestamps fire in scheduling order (FIFO tie-break), which makes
// whole-network runs reproducible bit-for-bit for a fixed seed.
//
// The engine is allocation-free on the steady-state path: event nodes are
// recycled through a free list, and the Action form of scheduling lets hot
// paths pass a pre-bound callback struct instead of a closure. Because
// simulated time never runs backwards, the pending set is a monotone radix
// heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) over intrusive event
// lists: a push is O(1), a pop touches only the lowest non-empty bucket,
// and pop order is the (at, seq) total order. Callers hold
// generation-checked Timer handles, so a stale handle to a recycled event is
// inert rather than dangerous. FIFO event streams (link deliveries, per-port
// PFC processing) should go through a Channel, which keeps one resident
// queue event per stream instead of one per entry.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"dsh/units"
)

// Action is a pre-bound event callback. Scheduling an Action allocates
// nothing when the Action (and arg) are pointers to persistent structs:
// putting a pointer into an interface does not heap-allocate, unlike
// constructing a capturing closure. arg and n are handed back verbatim when
// the event fires; by convention arg carries a per-event pointer payload
// (e.g. the packet in flight) and n a small scalar (a class, an encoded
// PFC word).
type Action interface {
	Run(arg any, n int64)
}

// Event is one pooled queue node. Events are owned by the simulator and are
// recycled after they fire or their cancellation is reaped, so external
// code refers to them through Timer handles, never *Event.
type Event struct {
	at        units.Time
	seq       uint64
	next      *Event // the next event in the same radix bucket
	gen       uint32
	cancelled bool
	sim       *Simulator

	fn  func()
	act Action
	arg any
	n   int64
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// inert: Cancel is a no-op and Active reports false. Handles stay safe
// after the event fires, is cancelled, or is recycled for a later event —
// the generation check turns any stale operation into a no-op.
type Timer struct {
	ev  *Event
	gen uint32
}

// Active reports whether the event is still scheduled to fire.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
}

// At returns the simulated time the event fires at, or -1 if the handle is
// no longer active.
func (t Timer) At() units.Time {
	if !t.Active() {
		return -1
	}
	return t.ev.at
}

// Cancel prevents the event from firing. Cancelling an inactive handle
// (zero value, already fired, already cancelled, or recycled) is a no-op.
// A cancelled entry is dropped lazily when it becomes the queue minimum,
// or eagerly by an in-place compaction once cancelled entries outnumber
// live ones (see compact).
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled {
		t.ev.cancelled = true
		t.ev.fn = nil
		t.ev.act = nil
		t.ev.arg = nil
		t.ev.sim.noteCancel()
	}
}

// eventBlockSize is how many Events one free-list refill allocates. Block
// allocation keeps nodes dense in memory and amortizes the cold-start cost.
const eventBlockSize = 2048

// compactMinCancelled is the count below which cancellation never triggers
// a compaction: tiny queues reap lazily at pop for less work than a filter.
const compactMinCancelled = 64

// Simulator owns the virtual clock and the pending event set.
// The zero value is not usable; call New.
type Simulator struct {
	now units.Time

	// The pending set is a monotone radix heap over 4-bit digits. Bucket
	// p*digits+d is an intrusive list of the events whose time first
	// differs from floor in digit p and has value d there; level 0 holds
	// the times that differ from floor only in the lowest digit, so each
	// level-0 bucket holds one timestamp (at == floor falls in level 0
	// too). Bit d of occ[p] is set iff that bucket is non-empty, and bit p
	// of levelMask iff occ[p] is non-zero. Three rules keep floor <= every
	// pending time and floor <= now:
	//  1. only a dispatched live event moves floor, and the clock moves to
	//     the same time;
	//  2. a cancelled minimum is unlinked in place and never moves floor;
	//  3. a pop that stops at a deadline or window limit leaves floor
	//     alone, because later pushes may land before the event it saw.
	buckets   [levels * digits]*Event
	occ       [levels]uint16
	levelMask uint16
	floor     units.Time
	pending   int

	free      []*Event
	lastBlock []Event
	seq       uint64
	stopped   bool
	processed uint64
	heapMax   int
	cancelled int

	// seqBase tags every reserved sequence number with the simulator's
	// logical-process identity (lp << lpSeqShift, see Parallel). Comparing
	// tagged sequence numbers is exactly the lexicographic (lp, seq) order,
	// so the (at, seq) queue order implements the partitioned engine's
	// (at, lp, seq) total order with no extra key material. A standalone
	// simulator keeps seqBase zero and is bit-identical to the pre-LP
	// engine.
	seqBase uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() units.Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of events currently scheduled (including
// cancelled entries not yet reaped, excluding entries buffered inside
// Channels beyond each channel's resident head event).
func (s *Simulator) Pending() int { return s.pending }

// HeapMax returns the high-water mark of Pending — the largest pending
// event set the run has held. It is the observable that the Channel
// conversion shrinks: with per-packet delivery events the queue scales with
// instantaneous load; with channels it scales with topology size.
func (s *Simulator) HeapMax() int { return s.heapMax }

// alloc takes a node from the free list, refilling it by a block when dry.
func (s *Simulator) alloc() *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	block := make([]Event, eventBlockSize)
	s.lastBlock = block
	for i := range block {
		block[i].sim = s
	}
	for i := 1; i < eventBlockSize; i++ {
		s.free = append(s.free, &block[i])
	}
	return &block[0]
}

// invalidate makes outstanding Timer handles to ev inert and drops its
// payload and list link.
func invalidate(ev *Event) {
	ev.gen++
	ev.next = nil
	ev.fn = nil
	ev.act = nil
	ev.arg = nil
}

// recycle invalidates ev and returns the node to the free list.
func (s *Simulator) recycle(ev *Event) {
	invalidate(ev)
	s.free = append(s.free, ev)
}

// reserveSeq hands out the next sequence number without scheduling
// anything, tagged with the simulator's LP identity (seqBase). Channels
// stamp entries with a reserved seq at push time, so the later head re-arm
// keeps the tie-break position the entry would have had as an ordinary
// AtAction call.
func (s *Simulator) reserveSeq() uint64 {
	q := s.seqBase | s.seq
	s.seq++
	return q
}

// enqueue builds a node for time t under a fresh sequence number.
func (s *Simulator) enqueue(t units.Time) *Event {
	return s.enqueueSeq(t, s.reserveSeq())
}

// enqueueSeq builds a node for time t under a previously reserved sequence
// number and pushes it onto the queue.
func (s *Simulator) enqueueSeq(t units.Time, seq uint64) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", t, s.now))
	}
	ev := s.alloc()
	ev.at = t
	ev.seq = seq
	ev.cancelled = false
	s.push(ev)
	return ev
}

// Schedule runs fn after the given non-negative delay. The closure form is
// for cold paths and tests; hot paths should use ScheduleAction, which does
// not allocate.
func (s *Simulator) Schedule(delay units.Time, fn func()) Timer {
	return s.At(s.now+delay, fn)
}

// At runs fn at the given absolute time, which must not be in the past.
func (s *Simulator) At(t units.Time, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := s.enqueue(t)
	ev.fn = fn
	return Timer{ev: ev, gen: ev.gen}
}

// ScheduleAction runs act.Run(arg, n) after the given non-negative delay
// without allocating (for pointer-shaped act and arg).
func (s *Simulator) ScheduleAction(delay units.Time, act Action, arg any, n int64) Timer {
	return s.AtAction(s.now+delay, act, arg, n)
}

// AtAction runs act.Run(arg, n) at the given absolute time, which must not
// be in the past.
func (s *Simulator) AtAction(t units.Time, act Action, arg any, n int64) Timer {
	if act == nil {
		panic("sim: nil event action")
	}
	ev := s.enqueue(t)
	ev.act = act
	ev.arg = arg
	ev.n = n
	return Timer{ev: ev, gen: ev.gen}
}

// atSeq schedules act at time t under a sequence number reserved earlier via
// reserveSeq. It is the Channel re-arm path; no Timer handle is returned
// because the channel owns the resident event outright.
func (s *Simulator) atSeq(t units.Time, seq uint64, act Action, arg any, n int64) {
	ev := s.enqueueSeq(t, seq)
	ev.act = act
	ev.arg = arg
	ev.n = n
}

// Stop makes the current Run/RunUntil call return after the in-progress
// event completes. Pending events stay queued.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.RunUntil(-1)
}

// RunUntil executes events with timestamps <= deadline (every event when
// deadline is negative), advancing the clock to the deadline afterwards when
// it is non-negative. It returns when the queue drains, the deadline passes,
// or Stop is called.
func (s *Simulator) RunUntil(deadline units.Time) {
	s.stopped = false
	last := deadline
	if deadline < 0 {
		last = math.MaxInt64
	}
	for !s.stopped && s.step(last) {
	}
	if deadline >= 0 && s.now < deadline && !s.stopped {
		s.now = deadline
	}
}

// step dispatches the earliest live event if it is due at or before last:
// it moves floor and the clock to the event's time (rule 1), recycles the
// node and runs the callback. When nothing live is due by last it reports
// false and leaves floor and the clock alone (rule 3).
func (s *Simulator) step(last units.Time) bool {
	ev, prev, b := s.head()
	if ev == nil || ev.at > last {
		return false
	}
	s.unlink(ev, prev, b)
	s.floor = ev.at
	if l := s.buckets[b]; l != nil && b >= digits {
		// The rest of the bucket shares ev's digits from its level up, so
		// against the new floor each of them falls to a lower level. A
		// level-0 bucket is one timestamp and stays where it is.
		s.clear(b)
		for l != nil {
			e := l
			l = l.next
			s.link(e)
		}
	}
	s.now = ev.at
	fn, act, arg, n := ev.fn, ev.act, ev.arg, ev.n
	s.recycle(ev)
	s.processed++
	if fn != nil {
		fn()
	} else {
		act.Run(arg, n)
	}
	return true
}

// Reset drops every pending event and releases pooled memory beyond roughly
// one event block, so a simulator that peaked under load does not pin that
// peak for the rest of its lifetime (long RunAll sweeps hold many finished
// jobs' simulators until the GC catches up). The clock, sequence counter,
// and processed/heap-max statistics are preserved: Reset is a memory clamp
// for a finished run, not a logical restart, and post-run accounting that
// reads Now() (pause-time collection) must keep working. Outstanding Timer
// handles become inert; Channels fed by this simulator must not be pushed to
// afterwards.
func (s *Simulator) Reset() {
	for b, ev := range s.buckets {
		for ev != nil {
			next := ev.next
			invalidate(ev)
			ev = next
		}
		s.buckets[b] = nil
	}
	s.occ = [levels]uint16{}
	s.levelMask = 0
	s.pending = 0
	s.cancelled = 0
	// Rebuild the free list from the most recently allocated block only:
	// every retained node pins its whole block, so keeping an arbitrary
	// subset of a large free list would keep every block alive.
	if cap(s.free) > eventBlockSize {
		s.free = make([]*Event, 0, eventBlockSize)
	} else {
		for i := range s.free {
			s.free[i] = nil
		}
		s.free = s.free[:0]
	}
	for i := range s.lastBlock {
		s.free = append(s.free, &s.lastBlock[i])
	}
}

// 16-way digits move an event through fewer buckets than binary ones do,
// which matters once the queue outgrows the cache (DESIGN.md §6).
const (
	digitBits = 4
	digits    = 1 << digitBits
	levels    = 64 / digitBits
)

// bucketOf returns the bucket index of time at relative to floor.
func bucketOf(at, floor units.Time) int {
	p := (bits.Len64(uint64(at^floor)|1) - 1) / digitBits
	return p*digits + int(uint64(at)>>(p*digitBits)&(digits-1))
}

// link prepends ev to the bucket its time falls in relative to floor.
func (s *Simulator) link(ev *Event) {
	b := bucketOf(ev.at, s.floor)
	ev.next = s.buckets[b]
	s.buckets[b] = ev
	s.occ[b/digits] |= 1 << (b % digits)
	s.levelMask |= 1 << (b / digits)
}

// clear empties bucket b and its occupancy bits.
func (s *Simulator) clear(b int) {
	s.buckets[b] = nil
	p := b / digits
	s.occ[p] &^= 1 << (b % digits)
	if s.occ[p] == 0 {
		s.levelMask &^= 1 << p
	}
}

// push adds ev to the pending set. An event below floor would be lost to
// the bucket order; enqueueSeq's past check makes that an engine bug.
func (s *Simulator) push(ev *Event) {
	if ev.at < s.floor {
		panic(fmt.Sprintf("sim: event at %v below the queue floor %v", ev.at, s.floor))
	}
	s.link(ev)
	s.pending++
	if s.pending > s.heapMax {
		s.heapMax = s.pending
	}
}

// unlink removes ev, whose predecessor in bucket b's list is prev (nil at
// the list head), from the pending set.
func (s *Simulator) unlink(ev, prev *Event, b int) {
	switch {
	case prev != nil:
		prev.next = ev.next
	case ev.next != nil:
		s.buckets[b] = ev.next
	default:
		s.clear(b)
	}
	s.pending--
}

// head returns the earliest pending live event by (at, seq), with its list
// predecessor and bucket for unlink, or nil when nothing live is pending.
// Only the lowest non-empty bucket can hold the minimum. A cancelled
// minimum is reaped on the way without moving floor (rule 2).
func (s *Simulator) head() (min, prev *Event, b int) {
	for s.levelMask != 0 {
		lv := bits.TrailingZeros16(s.levelMask)
		b = lv*digits + bits.TrailingZeros16(s.occ[lv])
		min, prev = s.buckets[b], nil
		for p, e := min, min.next; e != nil; p, e = e, e.next {
			if e.at < min.at || (e.at == min.at && e.seq < min.seq) {
				min, prev = e, p
			}
		}
		if !min.cancelled {
			return min, prev, b
		}
		s.unlink(min, prev, b)
		s.cancelled--
		s.recycle(min)
	}
	return nil, nil, 0
}

// noteCancel counts a cancellation and compacts the queue once cancelled
// entries outnumber live ones, so mass cancellation (a sweep tearing down
// timers) cannot leave the queue bloated until each entry becomes the
// minimum.
func (s *Simulator) noteCancel() {
	s.cancelled++
	if s.cancelled >= compactMinCancelled && s.cancelled*2 > s.pending {
		s.compact()
	}
}

// compact filters every cancelled entry out of the bucket lists.
func (s *Simulator) compact() {
	for b := range s.buckets {
		if s.buckets[b] == nil {
			continue
		}
		for p := &s.buckets[b]; *p != nil; {
			if ev := *p; ev.cancelled {
				*p = ev.next
				s.pending--
				s.recycle(ev)
			} else {
				p = &ev.next
			}
		}
		if s.buckets[b] == nil {
			s.clear(b)
		}
	}
	s.cancelled = 0
}
