package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dsh/internal/packet"
	"dsh/units"
)

// randPacketData builds a layout-valid record with randomized fields — the
// PackerUnpackerTestFunc-style property source.
func randPacketData(rng *rand.Rand) PacketData {
	d := PacketData{
		Type:    packet.Type(1 + rng.Intn(4)),
		Class:   packet.Class(rng.Intn(packet.NumClasses)),
		Last:    rng.Intn(2) == 0,
		ECN:     rng.Intn(2) == 0,
		Marked:  rng.Intn(2) == 0,
		Size:    units.ByteSize(rng.Int63n(1 << 32)),
		FlowID:  int(int32(rng.Uint32())),
		Src:     int(int32(rng.Uint32())),
		Dst:     int(int32(rng.Uint32())),
		Seq:     units.ByteSize(rng.Int63()),
		Payload: units.ByteSize(rng.Int63()),
		SentAt:  units.Time(rng.Int63()),
		FC: packet.FlowControl{
			PortLevel: rng.Intn(2) == 0,
			Class:     packet.Class(rng.Intn(packet.NumClasses)),
			Pause:     rng.Intn(2) == 0,
		},
		INTLen: rng.Intn(packet.MaxINTHops + 1),
	}
	for i := 0; i < d.INTLen; i++ {
		d.INT[i] = packet.INTHop{
			QLen:    units.ByteSize(rng.Int63()),
			TxBytes: units.ByteSize(rng.Int63()),
			TS:      units.Time(rng.Int63()),
			Rate:    units.BitRate(rng.Int63()),
		}
	}
	return d
}

func TestPacketDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		want := randPacketData(rng)
		// Pack at a random offset to catch any hidden alignment assumption.
		off := rng.Intn(32)
		buf := make([]byte, off+MaxPacketRecord)
		n, err := PackPacketData(buf[off:], &want)
		if err != nil {
			t.Fatalf("pack %d: %v", i, err)
		}
		if wantN := PacketBaseSize + want.INTLen*INTHopSize; n != wantN {
			t.Fatalf("pack %d: length %d, want %d", i, n, wantN)
		}
		var got PacketData
		m, err := UnpackPacket(buf[off:off+n], &got)
		if err != nil {
			t.Fatalf("unpack %d: %v", i, err)
		}
		if m != n {
			t.Fatalf("unpack %d: length %d, want %d", i, m, n)
		}
		if got != want {
			t.Fatalf("round trip %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestPackPacketMatchesPackPacketData(t *testing.T) {
	pkt := &packet.Packet{
		Type: packet.Data, Size: 1064, Class: 3,
		Src: 7, Dst: 30, FlowID: 12,
		Seq: 4096, Payload: 1000, Last: true,
		ECNCapable: true, ECNMarked: true,
		SentAt: 123 * units.Microsecond,
		INT: []packet.INTHop{
			{QLen: 5000, TxBytes: 1 << 30, TS: units.Millisecond, Rate: 100 * units.Gbps},
			{QLen: 1, TxBytes: 2, TS: 3, Rate: 4},
		},
		// Slots must NOT appear in the record: they are process-local.
		SrcSlot: 0x1122334455667788, DstSlot: 0x0102030405060708,
	}
	var a, b [MaxPacketRecord]byte
	n, err := PackPacket(a[:], pkt)
	if err != nil {
		t.Fatal(err)
	}
	var d PacketData
	if _, err := UnpackPacket(a[:n], &d); err != nil {
		t.Fatal(err)
	}
	m, err := PackPacketData(b[:], &d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a[:n], b[:m]) {
		t.Fatalf("PackPacket and PackPacketData disagree:\n%x\n%x", a[:n], b[:m])
	}
	if d.Type != packet.Data || !d.Last || !d.ECN || !d.Marked || d.INTLen != 2 ||
		d.INT[0].TxBytes != 1<<30 || d.SentAt != 123*units.Microsecond {
		t.Fatalf("decoded fields wrong: %+v", d)
	}
}

func TestPackErrors(t *testing.T) {
	var buf [MaxPacketRecord]byte
	good := &packet.Packet{Type: packet.Data, Size: 100}
	if _, err := PackPacket(buf[:PacketBaseSize-1], good); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short buffer: got %v", err)
	}
	for name, pkt := range map[string]*packet.Packet{
		"zero type":   {Type: 0, Size: 1},
		"bad type":    {Type: 5, Size: 1},
		"class >= 8":  {Type: packet.Data, Class: 8, Size: 1},
		"fc class":    {Type: packet.PFC, FC: packet.FlowControl{Class: 9}, Size: 1},
		"huge size":   {Type: packet.Data, Size: 1 << 33},
		"wide src":    {Type: packet.Data, Size: 1, Src: 1 << 40},
		"wide flowid": {Type: packet.Data, Size: 1, FlowID: -1 << 40},
		"int stack":   {Type: packet.Data, Size: 1, INT: make([]packet.INTHop, packet.MaxINTHops+1)},
	} {
		if _, err := PackPacket(buf[:], pkt); !errors.Is(err, ErrFieldRange) {
			t.Errorf("%s: got %v, want ErrFieldRange", name, err)
		}
	}
}

func TestUnpackCorrupt(t *testing.T) {
	var buf [MaxPacketRecord]byte
	d := PacketData{Type: packet.Data, Size: 100, INTLen: 1}
	n, err := PackPacketData(buf[:], &d)
	if err != nil {
		t.Fatal(err)
	}
	var out PacketData
	corrupt := func(name string, off int, val byte, want error) {
		t.Helper()
		c := append([]byte(nil), buf[:n]...)
		c[off] = val
		if _, err := UnpackPacket(c, &out); !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}
	corrupt("zero type", 0, 0, ErrCorrupt)
	corrupt("bad type", 0, 200, ErrCorrupt)
	corrupt("bad class", 1, 8, ErrCorrupt)
	corrupt("unknown flag", 2, 0xE0, ErrCorrupt)
	corrupt("bad fc class", 3, 0xFF, ErrCorrupt)
	corrupt("int overflow", 4, packet.MaxINTHops+1, ErrCorrupt)
	corrupt("reserved 5", 5, 1, ErrCorrupt)
	corrupt("reserved 7", 7, 0x80, ErrCorrupt)
	// INT count that promises more hops than the buffer holds.
	c := append([]byte(nil), buf[:n]...)
	c[4] = packet.MaxINTHops
	if _, err := UnpackPacket(c, &out); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("truncated hops: got %v, want ErrShortBuffer", err)
	}
	if _, err := UnpackPacket(buf[:PacketBaseSize-1], &out); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short base: got %v", err)
	}
}

func TestFrameInPlace(t *testing.T) {
	d := PacketData{Type: packet.Ack, Size: 64, FlowID: 9, Seq: 1 << 20}
	var buf [MaxFrameSize]byte
	p := FramePacker{}
	if p.FrontHeadroom() != FrameOverhead || p.RearHeadroom() != 0 {
		t.Fatalf("headroom contract: front %d rear %d", p.FrontHeadroom(), p.RearHeadroom())
	}
	// The idiom: pack the record after FrontHeadroom bytes, then wrap it.
	n, err := PackPacketData(buf[p.FrontHeadroom():], &d)
	if err != nil {
		t.Fatal(err)
	}
	at, port := 77*units.Microsecond, int32(12)
	start, flen, err := p.PackInPlace(buf[:], at, port, FrameDeparture, p.FrontHeadroom(), n)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || flen != FrameOverhead+n {
		t.Fatalf("frame at %d len %d, want 0 len %d", start, flen, FrameOverhead+n)
	}
	gotAt, gotPort, kind, recStart, recLen, err := FrameUnpacker{}.UnpackInPlace(buf[:], start, flen)
	if err != nil {
		t.Fatal(err)
	}
	if gotAt != at || gotPort != port || kind != FrameDeparture || recStart != FrameOverhead || recLen != n {
		t.Fatalf("unpacked frame wrong: at %v port %d kind %d rec %d+%d", gotAt, gotPort, kind, recStart, recLen)
	}
	var out PacketData
	if _, err := UnpackPacket(buf[recStart:recStart+recLen], &out); err != nil {
		t.Fatal(err)
	}
	if out != d {
		t.Fatalf("record mutated by framing:\n got %+v\nwant %+v", out, d)
	}
	// Too little headroom must fail, not clobber bytes before the buffer.
	if _, _, err := p.PackInPlace(buf[:], at, port, FrameDeparture, FrameOverhead-1, n); !errors.Is(err, ErrHeadroom) {
		t.Fatalf("headroom violation: got %v", err)
	}
}

// tracePackets is a deterministic set of hand-built packets for trace
// writer/reader tests.
func tracePackets() []*packet.Packet {
	return []*packet.Packet{
		{Type: packet.Data, Size: 1064, Class: 0, Src: 1, Dst: 2, FlowID: 3, Seq: 0, Payload: 1000, SentAt: units.Microsecond},
		{Type: packet.Ack, Size: 64, Class: 7, Src: 2, Dst: 1, FlowID: 3, Seq: 1000},
		{Type: packet.PFC, Size: 64, FC: packet.FlowControl{PortLevel: true, Pause: true}},
		{Type: packet.Data, Size: 1064, Src: 1, Dst: 2, FlowID: 3, Seq: 1000, Payload: 1000, Last: true,
			INT: []packet.INTHop{{QLen: 9000, TxBytes: 1 << 20, TS: units.Millisecond, Rate: 100 * units.Gbps}}},
	}
}

func writeTestTrace(t *testing.T, w io.Writer) uint64 {
	t.Helper()
	tw, err := NewTraceWriter(w, "unit", 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, pkt := range tracePackets() {
		tw.TraceDeparture(int32(i), units.Time(i)*units.Nanosecond, pkt)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return tw.Frames()
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit.dshtrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := writeTestTrace(t, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	tr, err := NewTraceReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scenario() != "unit" || tr.Seed() != 42 {
		t.Fatalf("header: scenario %q seed %d", tr.Scenario(), tr.Seed())
	}
	// The file writer seeks, so the count must be patched in, not sentinel.
	if tr.FrameCount() != frames {
		t.Fatalf("frame count %d, want %d", tr.FrameCount(), frames)
	}
	pkts := tracePackets()
	for i := 0; ; i++ {
		fr, err := tr.Next()
		if err == io.EOF {
			if i != len(pkts) {
				t.Fatalf("EOF after %d frames, want %d", i, len(pkts))
			}
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Port != int32(i) || fr.At != units.Time(i)*units.Nanosecond || fr.Kind != FrameDeparture {
			t.Fatalf("frame %d header: %+v", i, fr)
		}
		if fr.Pkt.Type != pkts[i].Type || fr.Pkt.Seq != pkts[i].Seq || fr.Pkt.INTLen != len(pkts[i].INT) {
			t.Fatalf("frame %d packet: %+v", i, fr.Pkt)
		}
	}
}

func TestTraceStreamingCountUnknown(t *testing.T) {
	var buf bytes.Buffer // not a seeker: count stays the sentinel
	writeTestTrace(t, &buf)
	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.FrameCount() != UnknownFrameCount {
		t.Fatalf("streaming count %d, want sentinel", tr.FrameCount())
	}
	n := 0
	for {
		_, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(tracePackets()) {
		t.Fatalf("read %d frames, want %d", n, len(tracePackets()))
	}
}

// seekBuffer records a complete, count-patched trace in memory.
type seekBuffer struct {
	b   []byte
	pos int64
}

func (s *seekBuffer) Write(p []byte) (int, error) {
	if grow := s.pos + int64(len(p)) - int64(len(s.b)); grow > 0 {
		s.b = append(s.b, make([]byte, grow)...)
	}
	copy(s.b[s.pos:], p)
	s.pos += int64(len(p))
	return len(p), nil
}

func (s *seekBuffer) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		s.pos = off
	case io.SeekCurrent:
		s.pos += off
	case io.SeekEnd:
		s.pos = int64(len(s.b)) + off
	}
	return s.pos, nil
}

func completeTrace(t *testing.T) []byte {
	t.Helper()
	var sb seekBuffer
	writeTestTrace(t, &sb)
	return sb.b
}

func readAll(data []byte) error {
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := tr.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

func TestTraceTruncation(t *testing.T) {
	good := completeTrace(t)
	if err := readAll(good); err != nil {
		t.Fatalf("complete trace: %v", err)
	}
	// Every proper prefix must fail with a positioned error — never succeed,
	// never panic. (A prefix inside the fixed header fails without a frame
	// position; from the first frame on we require a *PosError.)
	for cut := 0; cut < len(good); cut++ {
		err := readAll(good[:cut])
		if err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
		if cut >= traceHeaderFixed+4 /* header + scenario */ {
			var pe *PosError
			if !errors.As(err, &pe) {
				t.Fatalf("truncation at %d: %v is not a PosError", cut, err)
			}
			if pe.Offset < 0 || pe.Offset > int64(cut) {
				t.Fatalf("truncation at %d: offset %d out of range", cut, pe.Offset)
			}
		}
	}
}

func TestTraceTrailingJunk(t *testing.T) {
	good := completeTrace(t)
	err := readAll(append(append([]byte(nil), good...), 0xAA))
	var pe *PosError
	if !errors.As(err, &pe) || !errors.Is(err, ErrTraceTrailing) {
		t.Fatalf("trailing junk: got %v", err)
	}
	if pe.Frame != uint64(len(tracePackets())) {
		t.Fatalf("trailing junk at frame %d, want %d", pe.Frame, len(tracePackets()))
	}
}

func TestTraceCorruptByte(t *testing.T) {
	good := completeTrace(t)
	// Flip a byte inside the first frame's packet record (reserved byte at
	// record offset 5): must be a positioned ErrCorrupt.
	c := append([]byte(nil), good...)
	firstRec := traceHeaderFixed + 4 /* scenario "unit" */ + FrameOverhead
	c[firstRec+5] ^= 0xFF
	err := readAll(c)
	var pe *PosError
	if !errors.As(err, &pe) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt record: got %v", err)
	}
	if pe.Frame != 0 {
		t.Fatalf("corrupt record blamed frame %d, want 0", pe.Frame)
	}
	// A corrupted magic must fail immediately.
	c = append([]byte(nil), good...)
	c[0] = 'X'
	if _, err := NewTraceReader(bytes.NewReader(c)); !errors.Is(err, ErrTraceMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	// An unknown version must be refused, not guessed at.
	c = append([]byte(nil), good...)
	c[8] = 99
	if _, err := NewTraceReader(bytes.NewReader(c)); !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("bad version: got %v", err)
	}
}

func TestTraceDepartureAllocFree(t *testing.T) {
	tw, err := NewTraceWriter(io.Discard, "alloc", 1)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tracePackets()
	allocs := testing.AllocsPerRun(1000, func() {
		for i, pkt := range pkts {
			tw.TraceDeparture(int32(i), units.Microsecond, pkt)
		}
	})
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("TraceDeparture allocates %.1f times per batch, want 0", allocs)
	}
}
