package eport

import (
	"fmt"
	"math/rand"
	"testing"

	"dsh/internal/packet"
	"dsh/internal/sim"
	"dsh/units"
)

// refPort is the reference model the DWRR scheduler is checked against. Its
// pick is the class-by-class scan that the ready mask replaced, kept
// verbatim; around it sits just enough of a port to produce departure
// times: the control queue, class- and port-level pause with the optional
// pause timer, and a non-preemptive transmitter.
type refPort struct {
	cfg          Config
	ctrl         classQueue
	cls          []classState
	rr           int
	pausedPort   bool
	portExpiry   sim.Timer
	transmitting bool
	departed     []departure
}

// departure is one packet leaving a port: when, and which (its Seq).
type departure struct {
	at  units.Time
	seq units.ByteSize
}

func newRefPort(cfg Config) *refPort {
	return &refPort{cfg: cfg, cls: make([]classState, cfg.Classes)}
}

func (r *refPort) Enqueue(pkt *packet.Packet) {
	r.cls[pkt.Class].q.push(entry{pkt: pkt})
	r.trySend()
}

func (r *refPort) EnqueueControl(pkt *packet.Packet) {
	r.ctrl.push(entry{pkt: pkt})
	r.trySend()
}

func (r *refPort) SetClassPaused(cls packet.Class, paused bool) {
	c := &r.cls[cls]
	if r.cfg.PauseTimeout > 0 {
		c.expiry.Cancel()
		c.expiry = sim.Timer{}
		if paused {
			c.expiry = r.cfg.Sim.Schedule(r.cfg.PauseTimeout, func() {
				c.expiry = sim.Timer{}
				r.SetClassPaused(cls, false)
			})
		}
	}
	if c.paused == paused {
		return
	}
	c.paused = paused
	if !paused {
		r.trySend()
	}
}

func (r *refPort) SetPortPaused(paused bool) {
	if r.cfg.PauseTimeout > 0 {
		r.portExpiry.Cancel()
		r.portExpiry = sim.Timer{}
		if paused {
			r.portExpiry = r.cfg.Sim.Schedule(r.cfg.PauseTimeout, func() {
				r.portExpiry = sim.Timer{}
				r.SetPortPaused(false)
			})
		}
	}
	if r.pausedPort == paused {
		return
	}
	r.pausedPort = paused
	if !paused {
		r.trySend()
	}
}

func (r *refPort) trySend() {
	if r.transmitting {
		return
	}
	e, ok := r.pick()
	if !ok {
		return
	}
	r.transmitting = true
	s := r.cfg.Sim
	s.Schedule(units.TransmissionTime(e.pkt.Size, r.cfg.Rate), func() {
		r.transmitting = false
		r.departed = append(r.departed, departure{s.Now(), e.pkt.Seq})
		r.trySend()
	})
}

func (r *refPort) advance() {
	r.cls[r.rr].granted = false
	r.rr = (r.rr + 1) % r.cfg.Classes
}

func (r *refPort) eligible(cls int) bool {
	return !r.pausedPort && !r.cls[cls].paused && r.cls[cls].q.len() > 0
}

func (r *refPort) pick() (entry, bool) {
	if r.ctrl.len() > 0 {
		return r.ctrl.pop(), true
	}
	if s := r.cfg.StrictClass; s >= 0 && r.eligible(s) {
		return r.cls[s].q.pop(), true
	}
	n := r.cfg.Classes
	for sweep := 0; sweep < 4096; sweep++ {
		any := false
		for i := 0; i < n; i++ {
			c := &r.cls[r.rr]
			if r.rr == r.cfg.StrictClass || !r.eligible(r.rr) {
				if c.q.len() == 0 {
					c.deficit = 0
				}
				r.advance()
				continue
			}
			any = true
			if !c.granted {
				c.deficit += r.cfg.Quantum
				c.granted = true
			}
			head := c.q.peek()
			if c.deficit >= head.pkt.Size {
				e := c.q.pop()
				c.deficit -= e.pkt.Size
				if c.q.len() == 0 {
					c.deficit = 0
					r.advance()
				}
				return e, true
			}
			r.advance()
		}
		if !any {
			return entry{}, false
		}
	}
	panic("refPort: DWRR made no progress in 4096 sweeps")
}

// checkSchedulerInvariants verifies the ready mask against the class state,
// plus the two invariants that make jumping over unready classes equal to
// scanning them: an empty class has zero deficit, and only cls[rr] can hold
// a granted quantum.
func checkSchedulerInvariants(p *Port) error {
	for c := range p.cls {
		cs := &p.cls[c]
		want := cs.q.len() > 0 && !cs.paused && c != p.cfg.StrictClass
		if got := p.ready&(1<<c) != 0; got != want {
			return fmt.Errorf("ready bit %d = %v, want %v", c, got, want)
		}
		if cs.q.len() == 0 && cs.deficit != 0 {
			return fmt.Errorf("empty class %d has deficit %d", c, cs.deficit)
		}
		if c != p.rr && cs.granted {
			return fmt.Errorf("class %d granted while rr = %d", c, p.rr)
		}
	}
	return nil
}

// pauser is the pause surface shared by Port and refPort.
type pauser interface {
	SetClassPaused(packet.Class, bool)
	SetPortPaused(bool)
}

// dwrrPair drives a Port and a refPort with identical configuration and
// operations on one simulator, recording both departure streams.
type dwrrPair struct {
	t    *testing.T
	s    *sim.Simulator
	p    *Port
	ref  *refPort
	got  []departure
	seqs units.ByteSize
}

func newDWRRPair(t *testing.T, cfg Config) *dwrrPair {
	d := &dwrrPair{t: t, s: sim.New()}
	cfg.Sim = d.s
	cfg.Rate = 100 * units.Gbps
	cfg.OnDeparture = func(pkt *packet.Packet, _ int64) {
		d.got = append(d.got, departure{d.s.Now(), pkt.Seq})
		d.check()
	}
	d.p = New(cfg)
	d.p.Connect(&collector{s: d.s})
	d.ref = newRefPort(cfg)
	return d
}

func (d *dwrrPair) check() {
	if err := checkSchedulerInvariants(d.p); err != nil {
		d.t.Fatalf("at %v: %v", d.s.Now(), err)
	}
}

// at schedules an operation on both ports; it runs on the Port first, then
// on the reference, and the Port's invariants are checked after it.
func (d *dwrrPair) at(when units.Time, op func(port pauser)) {
	d.s.At(when, func() {
		op(d.p)
		op(d.ref)
		d.check()
	})
}

// data enqueues a data packet of the given class and size on both ports
// at a time and returns its Seq.
func (d *dwrrPair) data(when units.Time, cls packet.Class, size units.ByteSize) units.ByteSize {
	d.seqs++
	a := &packet.Packet{Type: packet.Data, Size: size, Class: cls, Seq: d.seqs}
	b := *a
	d.s.At(when, func() {
		d.p.Enqueue(a, 0)
		d.ref.Enqueue(&b)
		d.check()
	})
	return d.seqs
}

// control enqueues a PFC frame on both ports at a time.
func (d *dwrrPair) control(when units.Time, pause bool) {
	d.seqs++
	a := packet.NewPFC(0, pause)
	a.Seq = d.seqs
	b := *a
	d.s.At(when, func() {
		d.p.EnqueueControl(a)
		d.ref.EnqueueControl(&b)
		d.check()
	})
}

// compare runs the simulation and fails unless both ports sent the same
// packets in the same order at the same times.
func (d *dwrrPair) compare(label string) []departure {
	d.s.Run()
	got, want := d.got, d.ref.departed
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			d.t.Fatalf("%s: departure %d = seq %d at %v, reference seq %d at %v",
				label, i, got[i].seq, got[i].at, want[i].seq, want[i].at)
		}
	}
	if len(got) != len(want) {
		d.t.Fatalf("%s: %d departures, reference %d", label, len(got), len(want))
	}
	return got
}

// TestDWRRMatchesScanReference drives the ready-mask scheduler and the
// scan-based reference with the same random enqueues, class and port
// pauses and resumes, and control frames, and requires identical departure
// order and times. The seed cycles through every combination of class
// count, quantum (below, near and above the packet sizes), strict class
// on/off and ON/OFF vs pause-timer mode.
func TestDWRRMatchesScanReference(t *testing.T) {
	classCounts := []int{3, 5, 8}
	quanta := []units.ByteSize{300, 1000, 1600, 4000}
	for seed := int64(0); seed < 480; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Classes:     classCounts[seed%3],
			Quantum:     quanta[(seed/3)%4],
			StrictClass: -1,
		}
		if (seed/12)%2 == 1 {
			cfg.StrictClass = rng.Intn(cfg.Classes)
		}
		if (seed/24)%2 == 1 {
			cfg.PauseTimeout = units.Time(1+rng.Intn(10)) * units.Microsecond
		}
		label := fmt.Sprintf("seed %d (classes %d, quantum %d, strict %d, timeout %v)",
			seed, cfg.Classes, cfg.Quantum, cfg.StrictClass, cfg.PauseTimeout)
		d := newDWRRPair(t, cfg)
		var now units.Time
		for i := 0; i < 400; i++ {
			now += units.Time(rng.Intn(200)) * units.Nanosecond
			cls := packet.Class(rng.Intn(cfg.Classes))
			switch rng.Intn(20) {
			case 0, 1:
				d.at(now, func(p pauser) {
					p.SetClassPaused(cls, true)
				})
			case 2, 3:
				d.at(now, func(p pauser) {
					p.SetClassPaused(cls, false)
				})
			case 4:
				d.at(now, func(p pauser) {
					p.SetPortPaused(true)
				})
			case 5:
				d.at(now, func(p pauser) {
					p.SetPortPaused(false)
				})
			case 6:
				d.control(now, rng.Intn(2) == 0)
			default:
				d.data(now, cls, units.ByteSize(64+rng.Intn(1500)))
			}
		}
		d.at(now+100*units.Microsecond, func(p pauser) {
			p.SetPortPaused(false)
			for c := 0; c < cfg.Classes; c++ {
				p.SetClassPaused(packet.Class(c), false)
			}
		})
		d.compare(label)
		if d.p.Backlog() != 0 {
			t.Fatalf("%s: residual backlog %d", label, d.p.Backlog())
		}
	}
}

// TestDWRRPortPauseMidVisitEndsVisit pins the one place where the scan
// ended a visit without moving the pointer: a port PAUSE lands while class
// 0 is mid-visit (quantum 1600, 600 B left after its first 1000 B packet).
// The pick at txDone finds nothing eligible, which ends class 0's visit, so
// after RESUME class 0 starts a fresh quantum and sends its other two
// packets before class 1. Keeping the stale grant would send class 1 first.
func TestDWRRPortPauseMidVisitEndsVisit(t *testing.T) {
	d := newDWRRPair(t, Config{Classes: 8, Quantum: 1600, StrictClass: -1})
	// Hold the port while both classes fill, so the first visit to class 0
	// finds three packets.
	d.at(0, func(p pauser) { p.SetPortPaused(true) })
	var want []units.ByteSize
	for _, cls := range []packet.Class{0, 1} {
		for i := 0; i < 3; i++ {
			want = append(want, d.data(0, cls, 1000))
		}
	}
	d.at(units.Nanosecond, func(p pauser) { p.SetPortPaused(false) })
	d.at(10*units.Nanosecond, func(p pauser) { p.SetPortPaused(true) })
	d.at(units.Microsecond, func(p pauser) { p.SetPortPaused(false) })
	got := d.compare("port pause mid-visit")
	for i, dep := range got {
		if dep.seq != want[i] {
			t.Fatalf("departure %d = seq %d, want %d (order %v)", i, dep.seq, want[i], got)
		}
	}
}

// BenchmarkPick measures one scheduling decision on an 8-class port with
// 1, 2 or 6 backlogged DWRR classes, and with 6 backlogged of which 3 are
// paused: "mask" is Port.pick, "scan" the reference scan on the same state.
// Each iteration re-enqueues the picked packet, so the backlog is constant.
func BenchmarkPick(b *testing.B) {
	cases := []struct {
		name    string
		classes []packet.Class
		paused  []packet.Class
	}{
		{"backlogged=1", []packet.Class{3}, nil},
		{"backlogged=2", []packet.Class{1, 5}, nil},
		{"backlogged=6", []packet.Class{0, 1, 2, 3, 4, 5}, nil},
		{"backlogged=6/paused=3", []packet.Class{0, 1, 2, 3, 4, 5}, []packet.Class{0, 2, 4}},
	}
	cfg := Config{Rate: 100 * units.Gbps, Classes: 8, Quantum: 1600, StrictClass: 7}
	for _, tc := range cases {
		b.Run(tc.name+"/mask", func(b *testing.B) {
			cfg := cfg
			cfg.Sim = sim.New()
			p := New(cfg)
			p.transmitting = true // Enqueue must not start a transmission
			for _, c := range tc.classes {
				for i := 0; i < 4; i++ {
					p.Enqueue(data(c, 1000), 0)
				}
			}
			for _, c := range tc.paused {
				p.SetClassPaused(c, true)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _ := p.pick()
				p.Enqueue(e.pkt, e.cookie)
			}
		})
		b.Run(tc.name+"/scan", func(b *testing.B) {
			cfg := cfg
			cfg.Sim = sim.New()
			r := newRefPort(cfg)
			r.transmitting = true
			for _, c := range tc.classes {
				for i := 0; i < 4; i++ {
					r.Enqueue(data(c, 1000))
				}
			}
			for _, c := range tc.paused {
				r.SetClassPaused(c, true)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _ := r.pick()
				r.Enqueue(e.pkt)
			}
		})
	}
}
