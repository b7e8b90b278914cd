package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"dsh/internal/packet"
	"dsh/units"
)

// FuzzPackUnpack is the pack/unpack round-trip property over raw bytes:
// any input that UnpackPacket accepts must repack (via PackPacketData) to
// exactly the bytes it was decoded from, and no input may panic. The seed
// corpus is the trace fixture's packet records plus randomized valid
// records, so the fuzzer starts from layout-valid shapes and mutates
// outward; in -short CI runs the corpus executes as plain unit tests under
// the race detector.
func FuzzPackUnpack(f *testing.F) {
	// Golden fixture frames: every record the trace writer/reader tests use.
	var buf [MaxPacketRecord]byte
	for _, pkt := range tracePackets() {
		n, err := PackPacket(buf[:], pkt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf[:n]...))
	}
	// Randomized valid records, fixed seed.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 16; i++ {
		d := randPacketData(rng)
		n, err := PackPacketData(buf[:], &d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf[:n]...))
	}
	// A few deliberately broken shapes so the corpus covers reject paths.
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, PacketBaseSize))
	f.Add(make([]byte, PacketBaseSize-1))

	f.Fuzz(func(t *testing.T, data []byte) {
		var d PacketData
		n, err := UnpackPacket(data, &d)
		if err != nil {
			return // rejected input: must not panic, nothing to round-trip
		}
		var re [MaxPacketRecord]byte
		m, err := PackPacketData(re[:], &d)
		if err != nil {
			t.Fatalf("accepted record failed to repack: %v (%+v)", err, d)
		}
		if m != n {
			t.Fatalf("repack length %d, want %d", m, n)
		}
		if !bytes.Equal(re[:m], data[:n]) {
			t.Fatalf("repack is not byte-identical:\n got %x\nwant %x", re[:m], data[:n])
		}
	})
}

// FuzzTraceReader feeds arbitrary bytes to the trace reader: every input
// must end in io.EOF or an error — never a panic, never an unbounded
// allocation (the reader's buffers are fixed-size by construction).
func FuzzTraceReader(f *testing.F) {
	var sb seekBuffer
	tw, err := NewTraceWriter(&sb, "fuzz", 7)
	if err != nil {
		f.Fatal(err)
	}
	tw.TraceDeparture(3, units.Microsecond, &packet.Packet{Type: packet.Data, Size: 1064, Payload: 1000})
	tw.TraceDeparture(4, 2*units.Microsecond, &packet.Packet{Type: packet.PFC, Size: 64, FC: packet.FlowControl{Pause: true}})
	if err := tw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), sb.b...))
	f.Add(sb.b[:len(sb.b)/2])
	f.Add([]byte("DSHTRACE"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			if _, err := tr.Next(); err != nil {
				return
			}
		}
	})
}
