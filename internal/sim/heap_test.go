package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"dsh/units"
)

// oracleEvent / oracleQueue are a container/heap priority queue over the
// engine's (at, seq) order, the reference the radix queue is checked
// against.
type oracleEvent struct {
	at  units.Time
	seq uint64
}

type oracleQueue []oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(oracleEvent)) }
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// TestHeapMatchesOracle drives the radix queue and a container/heap oracle
// with the same randomized push/pop schedule and requires identical pop
// sequences, including the FIFO tie-break at duplicated timestamps. Pushes
// land at or above the last pop, the only times the engine accepts.
func TestHeapMatchesOracle(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := New()
		var oracle oracleQueue
		var seq uint64
		var got oracleEvent
		push := func() {
			// A small range above the clock forces many equal timestamps.
			at := s.Now() + units.Time(rng.Intn(50))
			heap.Push(&oracle, oracleEvent{at: at, seq: seq})
			id := seq
			s.At(at, func() { got = oracleEvent{at: s.Now(), seq: id} })
			seq++
		}
		popBoth := func() {
			want := heap.Pop(&oracle).(oracleEvent)
			if !s.step(math.MaxInt64) {
				t.Fatalf("trial %d: queue empty, oracle holds (at %d, seq %d)", trial, want.at, want.seq)
			}
			if got != want {
				t.Fatalf("trial %d: pop = (at %d, seq %d), oracle (at %d, seq %d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
		}
		for step := 0; step < 2000; step++ {
			if len(oracle) == 0 || rng.Intn(3) > 0 {
				push()
			} else {
				popBoth()
			}
		}
		for len(oracle) > 0 {
			popBoth()
		}
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events left after oracle drained", trial, s.Pending())
		}
	}
}

// checkBuckets verifies the radix queue's structure: floor is at most the
// clock, every pending event sits in the bucket of the highest 4-bit digit
// in which its time differs from floor and of its value of that digit, the
// occupancy bits are set exactly for the non-empty buckets and levels, and
// the linked count equals Pending().
func checkBuckets(t *testing.T, s *Simulator, step int) {
	t.Helper()
	if s.floor > s.now {
		t.Fatalf("step %d: floor %v above now %v", step, s.floor, s.now)
	}
	n := 0
	for b, ev := range s.buckets {
		p, d := b/digits, b%digits
		if (ev != nil) != (s.occ[p]&(1<<d) != 0) {
			t.Fatalf("step %d: bucket %d non-empty %v, occupancy bit %v", step, b, ev != nil, s.occ[p]&(1<<d) != 0)
		}
		if (s.occ[p] != 0) != (s.levelMask&(1<<p) != 0) {
			t.Fatalf("step %d: level %d occupancy %#x, level bit %v", step, p, s.occ[p], s.levelMask&(1<<p) != 0)
		}
		for ; ev != nil; ev = ev.next {
			x := uint64(ev.at ^ s.floor)
			level := 0
			for x>>(digitBits*(level+1)) != 0 {
				level++
			}
			want := level*digits + int(uint64(ev.at)>>(digitBits*level)&(digits-1))
			if ev.at < s.floor || b != want {
				t.Fatalf("step %d: event at %v in bucket %d, want %d (floor %v)", step, ev.at, b, want, s.floor)
			}
			n++
		}
	}
	if n != s.Pending() {
		t.Fatalf("step %d: %d linked events, Pending %d", step, n, s.Pending())
	}
}

// TestHeapInvariant checks the bucket structure after every step of a
// randomized workload of pushes at or above the clock, pops and
// cancellations.
func TestHeapInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	var timers []Timer
	for i := 0; i < 5000; i++ {
		switch r := rng.Intn(8); {
		case s.Pending() == 0 || r < 5:
			// Offsets from 0 to 2^40 ps reach every level from 0 to 9.
			d := units.Time(rng.Int63n(1 << uint(rng.Intn(41))))
			timers = append(timers, s.At(s.Now()+d, func() {}))
		case r < 6:
			timers[rng.Intn(len(timers))].Cancel()
		default:
			s.step(math.MaxInt64)
		}
		checkBuckets(t, s, i)
	}
}

// TestRunUntilKeepsFloor pins rules 2 and 3 on the classic engine: a
// RunUntil that reaps a cancelled minimum beyond its deadline and stops at
// a live event beyond it must leave the queue floor where it was, so the
// caller may still schedule anywhere from the deadline on.
func TestRunUntilKeepsFloor(t *testing.T) {
	const d, cancelledAt, liveAt = 1000, 3000, 5000
	s := New()
	var fired []units.Time
	rec := func() { fired = append(fired, s.Now()) }
	s.At(liveAt, rec)
	s.At(cancelledAt, func() { t.Error("cancelled event ran") }).Cancel()
	s.RunUntil(d)
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after RunUntil, want 1 (the cancelled minimum reaped)", s.Pending())
	}
	late := []units.Time{d, 2000, cancelledAt, liveAt - 1}
	for _, at := range late {
		s.At(at, rec)
	}
	s.Run()
	want := append(late, liveAt)
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestParallelLateArrivalBeforePeekedHead is the partitioned-engine version
// of TestRunUntilKeepsFloor: LP 0's head is peeked (and its window stopped
// at it) before a mailbox message and a coordinator op land on LP 0 ahead
// of that head. Both must run, in time order, under the epoch scheduler and
// the total-order reference.
func TestParallelLateArrivalBeforePeekedHead(t *testing.T) {
	for _, engine := range []string{"epoch", "total-order"} {
		coord := New()
		p := NewParallel(coord, 1)
		lp0, _ := p.NewLP()
		lp1, _ := p.NewLP()
		r := p.NewRemote(lp1, 0, 50)
		var got []rec
		sink := &recSink{s: lp0, recs: &got}
		lp0.AtAction(1000, sink, nil, 1)
		lp1.At(100, func() { r.Send(50, sink, nil, 2) })
		coord.At(500, func() { lp0.AtAction(600, sink, nil, 3) })
		if engine == "epoch" {
			p.RunUntil(2000)
		} else {
			p.runUntilTotalOrder(2000)
		}
		want := []rec{{at: 150, n: 2}, {at: 600, n: 3}, {at: 1000, n: 1}}
		if len(got) != len(want) {
			t.Fatalf("%s: ran %v, want %v", engine, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: ran %v, want %v", engine, got, want)
			}
		}
	}
}

// refQueue is the container/heap reference for TestQueueMatchesReference:
// the same (at, seq) order, cancelled entries reaped only as the minimum,
// and the same compaction trigger, so its length tracks Pending() and its
// high-water mark HeapMax() exactly.
type refQueue struct {
	q         oracleQueue
	cancelled map[uint64]bool
	ncancel   int
	max       int
}

func (r *refQueue) push(at units.Time, seq uint64) {
	heap.Push(&r.q, oracleEvent{at: at, seq: seq})
	if len(r.q) > r.max {
		r.max = len(r.q)
	}
}

// reap drops cancelled minima, as a pop or peek does.
func (r *refQueue) reap() {
	for len(r.q) > 0 && r.cancelled[r.q[0].seq] {
		heap.Pop(&r.q)
		r.ncancel--
	}
}

func (r *refQueue) pop() oracleEvent {
	r.reap()
	return heap.Pop(&r.q).(oracleEvent)
}

func (r *refQueue) cancel(seq uint64) {
	r.cancelled[seq] = true
	r.ncancel++
	if r.ncancel >= compactMinCancelled && r.ncancel*2 > len(r.q) {
		w := 0
		for _, e := range r.q {
			if !r.cancelled[e.seq] {
				r.q[w] = e
				w++
			}
		}
		r.q = r.q[:w]
		heap.Init(&r.q)
		r.ncancel = 0
	}
}

// TestQueueMatchesReference mixes pushes at or above the clock (also from
// inside firing events), bursts of cancellations and deadline-bounded
// RunUntil calls, and requires the engine to match a container/heap
// reference in pop order and in Pending/HeapMax after every step. Deadlines
// stop short of pending events, so later pushes land below events the
// queue has already looked at.
func TestQueueMatchesReference(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		s := New()
		ref := &refQueue{cancelled: map[uint64]bool{}}
		var timers []Timer
		var seqs []uint64
		var nextSeq uint64
		var schedule func(at units.Time)
		schedule = func(at units.Time) {
			seq := nextSeq
			nextSeq++
			ref.push(at, seq)
			seqs = append(seqs, seq)
			timers = append(timers, s.At(at, func() {
				if want := ref.pop(); want.seq != seq || want.at != s.Now() {
					t.Fatalf("trial %d: ran (at %v, seq %d), reference pops (at %v, seq %d)",
						trial, s.Now(), seq, want.at, want.seq)
				}
				if rng.Intn(4) == 0 {
					schedule(s.Now() + units.Time(rng.Intn(2000)))
				}
			}))
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				schedule(s.Now() + units.Time(rng.Intn(4000)))
			case r < 8:
				recent := len(timers)
				if recent > 200 {
					recent = 200
				}
				for k := rng.Intn(80); k > 0 && recent > 0; k-- {
					i := len(timers) - 1 - rng.Intn(recent)
					if timers[i].Active() {
						timers[i].Cancel()
						ref.cancel(seqs[i])
					}
				}
			default:
				d := s.Now() + units.Time(rng.Intn(3000))
				s.RunUntil(d)
				ref.reap()
				if len(ref.q) > 0 && ref.q[0].at <= d {
					t.Fatalf("trial %d step %d: RunUntil(%v) left (at %v, seq %d) due",
						trial, step, d, ref.q[0].at, ref.q[0].seq)
				}
			}
			if s.Pending() != len(ref.q) || s.HeapMax() != ref.max {
				t.Fatalf("trial %d step %d: Pending/HeapMax %d/%d, reference %d/%d",
					trial, step, s.Pending(), s.HeapMax(), len(ref.q), ref.max)
			}
		}
		s.Run()
		ref.reap()
		if len(ref.q) != 0 || s.Pending() != 0 {
			t.Fatalf("trial %d: %d reference / %d engine events left after Run", trial, len(ref.q), s.Pending())
		}
	}
}

// TestCancelledEventsAreRecycled checks lazy cancellation reaps nodes back
// to the free list without executing them.
func TestCancelledEventsAreRecycled(t *testing.T) {
	s := New()
	var timers []Timer
	for i := 0; i < 100; i++ {
		timers = append(timers, s.Schedule(units.Time(i), func() { t.Fatal("cancelled event ran") }))
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after draining cancelled events", s.Pending())
	}
	if s.Processed() != 0 {
		t.Fatalf("Processed = %d, want 0", s.Processed())
	}
	if len(s.free) < 100 {
		t.Fatalf("free list holds %d nodes, want >= 100", len(s.free))
	}
}

// countAction is a persistent Action used by the zero-alloc tests.
type countAction struct{ n int }

func (a *countAction) Run(any, int64) { a.n++ }

// TestActionScheduling checks the Action form delivers arg and n.
func TestActionScheduling(t *testing.T) {
	s := New()
	var gotArg any
	var gotN int64
	rec := recordAction{argp: &gotArg, np: &gotN}
	payload := &struct{ x int }{42}
	s.ScheduleAction(5, &rec, payload, 7)
	s.Run()
	if gotArg != payload || gotN != 7 {
		t.Fatalf("action got (%v, %d), want (%v, 7)", gotArg, gotN, payload)
	}
}

type recordAction struct {
	argp *any
	np   *int64
}

func (a *recordAction) Run(arg any, n int64) {
	*a.argp = arg
	*a.np = n
}

// TestSteadyStateScheduleIsAllocationFree pins the zero-alloc property: once
// the free list is warm, ScheduleAction + dispatch allocates
// nothing.
func TestSteadyStateScheduleIsAllocationFree(t *testing.T) {
	s := New()
	act := &countAction{}
	// Warm up: grow the free list and event blocks.
	for i := 0; i < 10_000; i++ {
		s.ScheduleAction(units.Time(i%100), act, nil, 0)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.ScheduleAction(1, act, nil, 0)
		s.ScheduleAction(2, act, nil, 0)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+run allocates %v per op, want 0", allocs)
	}
}

// BenchmarkScheduleActionRun measures the pooled zero-alloc path.
func BenchmarkScheduleActionRun(b *testing.B) {
	s := New()
	act := &countAction{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ScheduleAction(units.Time(i%100), act, nil, 0)
		if s.Pending() > 1024 {
			s.Run()
		}
	}
	s.Run()
}

// holdAction is the hold-model step of BenchmarkQueueDepth: every firing
// schedules its successor at now + U[0, 1 µs], so the queue depth stays
// where the set-up left it, and the firing that completes the quota stops
// the run.
type holdAction struct {
	s      *Simulator
	delays []units.Time
	k      int
	left   int
}

func (h *holdAction) Run(any, int64) {
	if h.left--; h.left == 0 {
		h.s.Stop()
	}
	h.k++
	h.s.ScheduleAction(h.delays[h.k&(len(h.delays)-1)], h, nil, 0)
}

// BenchmarkQueueDepth measures one pop plus one push at a steady queue
// depth. 20k is FatTreePoint's depth, 64 the Fig. 11 single-switch range.
func BenchmarkQueueDepth(b *testing.B) {
	for _, c := range []struct {
		name  string
		depth int
	}{{"64", 64}, {"2k", 2000}, {"20k", 20000}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]units.Time, 1<<16)
			for i := range delays {
				delays[i] = units.Time(rng.Int63n(int64(units.Microsecond) + 1))
			}
			s := New()
			h := &holdAction{s: s, delays: delays}
			for i := 0; i < c.depth; i++ {
				h.k++
				s.ScheduleAction(delays[h.k], h, nil, 0)
			}
			// Let the time spread and the free list reach steady state.
			h.left = 10 * c.depth
			s.Run()
			h.left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			s.Run()
		})
	}
}
