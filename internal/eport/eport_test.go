package eport

import (
	"testing"

	"dsh/internal/packet"
	"dsh/internal/sim"
	"dsh/units"
)

type collector struct {
	s    *sim.Simulator
	pkts []*packet.Packet
	at   []units.Time
}

func (c *collector) Receive(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.s.Now())
}

func newTestPort(s *sim.Simulator, mutate func(*Config)) (*Port, *collector) {
	cfg := Config{
		Sim:         s,
		Rate:        100 * units.Gbps,
		Prop:        2 * units.Microsecond,
		Classes:     8,
		Quantum:     1600,
		StrictClass: 7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p := New(cfg)
	c := &collector{s: s}
	p.Connect(c)
	return p, c
}

func data(cls packet.Class, size units.ByteSize) *packet.Packet {
	return &packet.Packet{Type: packet.Data, Size: size, Class: cls}
}

func TestSerializationAndPropagation(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c.pkts))
	}
	// 1500B at 100G = 120ns; + 2us prop = 2120ns.
	if want := 2120 * units.Nanosecond; c.at[0] != want {
		t.Errorf("arrival at %v, want %v", c.at[0], want)
	}
	if p.TxBytes() != 1500 {
		t.Errorf("TxBytes = %d, want 1500", p.TxBytes())
	}
}

func TestNonPreemptiveBackToBack(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(c.pkts))
	}
	if got := c.at[1] - c.at[0]; got != 120*units.Nanosecond {
		t.Errorf("spacing %v, want 120ns (back-to-back serialization)", got)
	}
}

func TestControlFrameWaitsForCurrentPacket(t *testing.T) {
	// The PFC "waiting delay": a control frame enqueued mid-transmission
	// goes out right after the current packet, before queued data.
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	p.Enqueue(data(0, 1500), 0)
	s.Schedule(10*units.Nanosecond, func() {
		p.EnqueueControl(packet.NewPFC(0, true))
	})
	s.Run()
	if len(c.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(c.pkts))
	}
	if c.pkts[1].Type != packet.PFC {
		t.Errorf("second delivery is %v, want PFC (control priority)", c.pkts[1].Type)
	}
	// PFC last bit leaves at 120ns(data)+5.12ns; arrives +2us.
	want := 120*units.Nanosecond + units.TransmissionTime(64, 100*units.Gbps) + 2*units.Microsecond
	if c.at[1] != want {
		t.Errorf("PFC arrival %v, want %v", c.at[1], want)
	}
}

func TestClassPauseBlocksOnlyThatClass(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetClassPaused(0, true)
	p.Enqueue(data(0, 1000), 0)
	p.Enqueue(data(1, 1000), 0)
	s.Run()
	if len(c.pkts) != 1 || c.pkts[0].Class != 1 {
		t.Fatalf("want only class 1 delivered, got %d pkts", len(c.pkts))
	}
	p.SetClassPaused(0, false)
	s.Run()
	if len(c.pkts) != 2 {
		t.Errorf("class 0 not delivered after resume")
	}
}

func TestPortPauseBlocksAllClassesIncludingStrict(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetPortPaused(true)
	p.Enqueue(data(0, 1000), 0)
	p.Enqueue(data(7, 64), 0) // strict ACK class
	s.Run()
	if len(c.pkts) != 0 {
		t.Fatalf("port pause leaked %d packets", len(c.pkts))
	}
	p.SetPortPaused(false)
	s.Run()
	if len(c.pkts) != 2 {
		t.Errorf("delivered %d after resume, want 2", len(c.pkts))
	}
}

func TestControlBypassesPortPause(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetPortPaused(true)
	p.EnqueueControl(packet.NewPortPFC(true))
	s.Run()
	if len(c.pkts) != 1 || c.pkts[0].Type != packet.PFC {
		t.Fatal("PFC control frame must bypass port pause")
	}
}

func TestStrictClassBeforeDWRR(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	p.Enqueue(data(1, 1500), 0)
	p.Enqueue(data(7, 64), 0)
	s.Run()
	// First pick happens at enqueue of class 0 (port idle), so class 0 goes
	// first; the strict class must preempt the remaining order.
	if c.pkts[1].Class != 7 {
		t.Errorf("second delivery class %d, want 7 (strict)", c.pkts[1].Class)
	}
}

func TestDWRRFairness(t *testing.T) {
	// Two busy classes with equal quantum must share the wire ~evenly in
	// bytes, even with different packet sizes.
	s := sim.New()
	p, _ := newTestPort(s, nil)
	var done [8]units.ByteSize
	cfgHook := p.cfg.OnDeparture
	_ = cfgHook
	p.cfg.OnDeparture = func(pkt *packet.Packet, _ int64) {
		done[pkt.Class] += pkt.Size
	}
	for i := 0; i < 200; i++ {
		p.Enqueue(data(0, 1500), 0)
	}
	for i := 0; i < 600; i++ {
		p.Enqueue(data(1, 500), 0)
	}
	// Run until ~half the total has been transmitted, then compare.
	s.RunUntil(25 * units.Microsecond) // ~312KB at 100G
	if done[0] == 0 || done[1] == 0 {
		t.Fatal("a class was starved")
	}
	ratio := float64(done[0]) / float64(done[1])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("byte ratio %v, want ~1.0 (DWRR fairness)", ratio)
	}
}

func TestDWRRSkipsPausedAndServesOthers(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	for i := 0; i < 5; i++ {
		p.Enqueue(data(2, 1000), 0)
		p.Enqueue(data(3, 1000), 0)
	}
	p.SetClassPaused(2, true)
	s.Run()
	var cls3 int
	for _, pk := range c.pkts {
		if pk.Class == 3 {
			cls3++
		}
	}
	if cls3 != 5 {
		t.Errorf("class 3 delivered %d, want 5", cls3)
	}
}

func TestPauseTimeAccounting(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	s.Schedule(10*units.Microsecond, func() { p.SetClassPaused(0, true) })
	s.Schedule(35*units.Microsecond, func() { p.SetClassPaused(0, false) })
	s.Schedule(40*units.Microsecond, func() { p.SetPortPaused(true) })
	s.Schedule(70*units.Microsecond, func() { p.SetPortPaused(false) })
	s.Run()
	if got := p.ClassPausedTime(0); got != 25*units.Microsecond {
		t.Errorf("ClassPausedTime = %v, want 25us", got)
	}
	if got := p.PortPausedTime(); got != 30*units.Microsecond {
		t.Errorf("PortPausedTime = %v, want 30us", got)
	}
	if p.PauseFrames() != 2 {
		t.Errorf("PauseFrames = %d, want 2", p.PauseFrames())
	}
}

func TestPauseTimeIncludesOngoing(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	s.Schedule(10*units.Microsecond, func() { p.SetClassPaused(4, true) })
	s.Schedule(50*units.Microsecond, func() {
		if got := p.ClassPausedTime(4); got != 40*units.Microsecond {
			t.Errorf("ongoing ClassPausedTime = %v, want 40us", got)
		}
	})
	s.Run()
}

func TestRedundantPauseIsIdempotent(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	p.SetClassPaused(0, true)
	p.SetClassPaused(0, true)
	if p.PauseFrames() != 1 {
		t.Errorf("PauseFrames = %d, want 1", p.PauseFrames())
	}
	p.SetClassPaused(0, false)
	p.SetClassPaused(0, false)
	if got := p.ClassPausedTime(0); got != 0 {
		t.Errorf("paused time %v, want 0 (instant toggle)", got)
	}
}

func TestOnDepartureCookie(t *testing.T) {
	s := sim.New()
	var gotCookie int64
	p, _ := newTestPort(s, func(c *Config) {
		c.OnDeparture = func(_ *packet.Packet, cookie int64) { gotCookie = cookie }
	})
	p.Enqueue(data(0, 100), 0xBEEF)
	s.Run()
	if gotCookie != 0xBEEF {
		t.Errorf("cookie = %#x, want 0xBEEF", gotCookie)
	}
}

func TestOnDequeueStats(t *testing.T) {
	s := sim.New()
	var qlens []units.ByteSize
	var txs []units.ByteSize
	p, _ := newTestPort(s, func(c *Config) {
		c.OnDequeue = func(_ *packet.Packet, qlen, tx units.ByteSize) {
			qlens = append(qlens, qlen)
			txs = append(txs, tx)
		}
	})
	p.SetPortPaused(true)
	p.Enqueue(data(0, 1000), 0)
	p.Enqueue(data(0, 1000), 0)
	p.SetPortPaused(false)
	s.Run()
	if len(qlens) != 2 || qlens[0] != 1000 || qlens[1] != 0 {
		t.Errorf("qlens = %v, want [1000 0]", qlens)
	}
	if len(txs) != 2 || txs[0] != 0 || txs[1] != 1000 {
		t.Errorf("txs = %v, want [0 1000]", txs)
	}
}

func TestOnIdleFires(t *testing.T) {
	s := sim.New()
	idles := 0
	p, _ := newTestPort(s, func(c *Config) {
		c.OnIdle = func() { idles++ }
	})
	p.Enqueue(data(0, 100), 0)
	s.Run()
	if idles == 0 {
		t.Error("OnIdle never fired after queue drained")
	}
	if p.Transmitting() {
		t.Error("still transmitting after drain")
	}
}

func TestLinkDownDiscards(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetUp(false)
	p.Enqueue(data(0, 100), 0)
	s.Run()
	if len(c.pkts) != 0 {
		t.Error("down link delivered a packet")
	}
	if !p.Up() == false && p.Up() {
		t.Error("Up() inconsistent")
	}
	// Transmitter must not wedge: bring the link up and send again.
	p.SetUp(true)
	p.Enqueue(data(0, 100), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Error("link did not recover after SetUp(true)")
	}
}

func TestBacklogAccounting(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	p.SetPortPaused(true)
	p.Enqueue(data(0, 1000), 0)
	p.Enqueue(data(1, 500), 0)
	if p.Backlog() != 1500 {
		t.Errorf("Backlog = %d, want 1500", p.Backlog())
	}
	if p.ClassBacklog(0) != 1000 || p.ClassPackets(0) != 1 {
		t.Errorf("class 0 backlog/packets wrong")
	}
	p.SetPortPaused(false)
	s.Run()
	if p.Backlog() != 0 {
		t.Errorf("Backlog = %d after drain, want 0", p.Backlog())
	}
}

func TestEnqueueBadClassPanics(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Enqueue(data(8, 100), 0)
}

func TestNewRejectsTooManyClasses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Classes > packet.NumClasses did not panic")
		}
	}()
	New(Config{Sim: sim.New(), Rate: 100 * units.Gbps, Classes: packet.NumClasses + 1})
}

func TestTransmitWithoutConnectPanics(t *testing.T) {
	s := sim.New()
	p := New(Config{Sim: s, Rate: units.Gbps, Classes: 8})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Enqueue(data(0, 100), 0)
}

func TestQueueCompaction(t *testing.T) {
	// Push/pop far more than the compaction threshold to exercise the ring
	// maintenance paths.
	s := sim.New()
	p, c := newTestPort(s, nil)
	const n = 1000
	for i := 0; i < n; i++ {
		p.Enqueue(data(0, 100), int64(i))
	}
	s.Run()
	if len(c.pkts) != n {
		t.Errorf("delivered %d, want %d", len(c.pkts), n)
	}
}

func TestPauseTimerExpires(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, func(cfg *Config) {
		cfg.PauseTimeout = 10 * units.Microsecond
	})
	p.SetClassPaused(0, true)
	p.Enqueue(data(0, 1000), 0)
	s.RunUntil(5 * units.Microsecond)
	if len(c.pkts) != 0 {
		t.Fatal("packet sent while pause timer active")
	}
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("pause never expired")
	}
	if got := p.ClassPausedTime(0); got != 10*units.Microsecond {
		t.Errorf("paused for %v, want exactly the timeout", got)
	}
}

func TestPauseTimerRefreshExtends(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, func(cfg *Config) {
		cfg.PauseTimeout = 10 * units.Microsecond
	})
	p.SetClassPaused(0, true)
	p.Enqueue(data(0, 1000), 0)
	// Refresh at t=8us: expiry moves to 18us.
	s.At(8*units.Microsecond, func() { p.SetClassPaused(0, true) })
	s.RunUntil(15 * units.Microsecond)
	if len(c.pkts) != 0 {
		t.Fatal("refresh did not extend the pause")
	}
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("packet never sent after refreshed pause expired")
	}
}

func TestPauseTimerExplicitResumeCancelsExpiry(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, func(cfg *Config) {
		cfg.PauseTimeout = 10 * units.Microsecond
	})
	p.SetClassPaused(0, true)
	s.At(2*units.Microsecond, func() { p.SetClassPaused(0, false) })
	s.Run()
	if got := p.ClassPausedTime(0); got != 2*units.Microsecond {
		t.Errorf("paused %v, want 2us (explicit resume)", got)
	}
	if s.Pending() != 0 {
		t.Error("expiry event leaked after explicit resume")
	}
}

func TestPortPauseTimerExpires(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, func(cfg *Config) {
		cfg.PauseTimeout = 20 * units.Microsecond
	})
	p.SetPortPaused(true)
	p.Enqueue(data(3, 500), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("port pause never expired")
	}
	if got := p.PortPausedTime(); got != 20*units.Microsecond {
		t.Errorf("port paused %v, want 20us", got)
	}
}

func TestStandardPauseTimeout(t *testing.T) {
	// 65535 quanta × 512 bits = 33553920 bits; at 100G that is ~335.5us.
	got := StandardPauseTimeout(100 * units.Gbps)
	want := units.TransmissionTime(65535*512/8, 100*units.Gbps)
	if got != want {
		t.Errorf("StandardPauseTimeout = %v, want %v", got, want)
	}
	if got < 335*units.Microsecond || got > 336*units.Microsecond {
		t.Errorf("StandardPauseTimeout(100G) = %v, want ~335.5us", got)
	}
}

func TestLinkFlapMidFlightDropsStalePacket(t *testing.T) {
	// A link that goes down and comes back up while a packet is on the wire
	// must NOT deliver the stale packet: its transmit-time epoch no longer
	// matches. The channel's resident heap event still fires (as a drop), so
	// the stream is not stranded and later packets flow normally.
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0) // last bit leaves at 120ns, arrives at 2120ns
	// Flap entirely within the flight window.
	s.At(500*units.Nanosecond, func() { p.SetUp(false) })
	s.At(800*units.Nanosecond, func() { p.SetUp(true) })
	s.Run()
	if len(c.pkts) != 0 {
		t.Fatalf("stale packet delivered through a mid-flight flap (%d deliveries)", len(c.pkts))
	}
	if got := p.WireDrops(); got != 1 {
		t.Errorf("WireDrops = %d, want 1", got)
	}
	if p.InFlight() != 0 {
		t.Errorf("InFlight = %d after drop, want 0 (stranded channel entry)", p.InFlight())
	}
	// The link recovered: the next packet must be delivered normally.
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatalf("post-flap packet not delivered (channel stranded?)")
	}
	if got := p.WireDrops(); got != 1 {
		t.Errorf("WireDrops = %d after recovery, want still 1", got)
	}
}

func TestLinkFlapBetweenPacketsKeepsLaterDelivery(t *testing.T) {
	// Two back-to-back packets; the flap happens while both are in flight.
	// Both carry the pre-flap epoch and both drop; a third packet sent after
	// recovery is delivered. This pins the epoch check on the Channel path
	// with more than one resident entry.
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	p.Enqueue(data(0, 1500), 0)
	s.At(300*units.Nanosecond, func() { p.SetUp(false) })
	s.At(400*units.Nanosecond, func() { p.SetUp(true) })
	s.Run()
	if len(c.pkts) != 0 {
		t.Fatalf("flap delivered %d stale packets", len(c.pkts))
	}
	if got := p.WireDrops(); got != 2 {
		t.Errorf("WireDrops = %d, want 2", got)
	}
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("delivery did not resume after flap")
	}
}

func TestSetExtraDelaySkewsOneWay(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetExtraDelay(3 * units.Microsecond)
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("skewed packet not delivered")
	}
	// 120ns serialization + 2us prop + 3us skew.
	if want := 5120 * units.Nanosecond; c.at[0] != want {
		t.Errorf("arrival at %v, want %v", c.at[0], want)
	}
}

func TestSetExtraDelayShrinkKeepsFIFO(t *testing.T) {
	// Shrinking the skew between two transmissions must not reorder the
	// wire: the second packet's arrival is clamped to the first's.
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetExtraDelay(10 * units.Microsecond)
	p.Enqueue(data(0, 1500), 0)
	s.At(100*units.Nanosecond, func() { p.SetExtraDelay(0) })
	s.At(130*units.Nanosecond, func() { p.Enqueue(data(0, 1500), 0) })
	s.Run()
	if len(c.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(c.pkts))
	}
	if c.at[1] < c.at[0] {
		t.Errorf("wire reordered: second at %v before first at %v", c.at[1], c.at[0])
	}
}
