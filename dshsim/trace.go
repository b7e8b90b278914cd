package dshsim

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"dsh/internal/eport"
	"dsh/internal/packet"
	"dsh/internal/wire"
	"dsh/units"
)

// Trace capture and replay. A capture attaches a wire.TraceWriter to every
// port of a named scenario and streams each departure as a packed frame; a
// replay re-runs the scenario named in the file header (same seed, same
// schedule) and byte-compares every live departure against the captured
// stream. Because the simulator is deterministic on the classic engine,
// the two must match bit for bit — any divergence is a positioned error
// naming the first differing frame.

// traceScenario is a named, self-contained run that a trace file can
// reference by name: the header stores (scenario, seed) and replay rebuilds
// the run from just that pair.
type traceScenario struct {
	about string
	run   func(seed int64, tr eport.Tracer)
}

var traceScenarios = map[string]traceScenario{
	"fig11point": {
		about: "full-scale Fig. 11 burst point: DSH, 60% burst on the 32×100G Tomahawk",
		run: func(seed int64, tr eport.Tracer) {
			nc := NetworkConfig{Scheme: DSH, Transport: TransportNone, Buffer: fig11Buffer, Seed: seed}
			net := NewSingleSwitch(nc, fig11Hosts, fig11Rate)
			specs, horizon := fig11Schedule(60)
			Run(net, RunConfig{Specs: specs, Duration: horizon, Trace: tr})
		},
	},
	"incast": {
		about: "16:1 incast of 64 KB flows into one port, drained to completion",
		run: func(seed int64, tr eport.Tracer) {
			const (
				senders = 16
				rate    = 100 * units.Gbps
				size    = 64 * units.KB
			)
			nc := NetworkConfig{Scheme: DSH, Transport: TransportNone, Buffer: 16 * units.MB, Seed: seed}
			net := NewSingleSwitch(nc, senders+1, rate)
			specs := make([]FlowSpec, senders)
			for i := range specs {
				specs[i] = FlowSpec{ID: 1 + i, Src: i, Dst: senders, Size: size, Start: 0, Class: 0, Tag: "incast"}
			}
			horizon := 4*units.TransmissionTime(senders*size, rate) + units.Millisecond
			Run(net, RunConfig{Specs: specs, Duration: horizon, Trace: tr})
		},
	},
	"forwarding": {
		about: "two hosts, one switch, a single 1 MB line-rate flow",
		run: func(seed int64, tr eport.Tracer) {
			const rate = 100 * units.Gbps
			nc := NetworkConfig{Scheme: DSH, Transport: TransportNone, Buffer: 16 * units.MB, Seed: seed}
			net := NewSingleSwitch(nc, 2, rate)
			specs := []FlowSpec{{ID: 1, Src: 0, Dst: 1, Size: units.MB, Start: 0, Class: 0, Tag: "fwd"}}
			horizon := 4*units.TransmissionTime(units.MB, rate) + units.Millisecond
			Run(net, RunConfig{Specs: specs, Duration: horizon, Trace: tr})
		},
	},
}

// TraceScenarios lists the capturable scenario names, sorted.
func TraceScenarios() []string {
	names := make([]string, 0, len(traceScenarios))
	for name := range traceScenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CaptureTrace runs the named scenario with the given seed and streams
// every packet departure to w as a .dshtrace file. It returns the number of
// frames captured. If w is an io.WriteSeeker (a file), the header's frame
// count is patched in on close; otherwise it is left as the streaming
// sentinel and readers fall back to trusting the stream length.
func CaptureTrace(scenario string, seed int64, w io.Writer) (uint64, error) {
	sc, ok := traceScenarios[scenario]
	if !ok {
		return 0, fmt.Errorf("dshsim: unknown trace scenario %q (have: %s)",
			scenario, strings.Join(TraceScenarios(), ", "))
	}
	tw, err := wire.NewTraceWriter(w, scenario, seed)
	if err != nil {
		return 0, err
	}
	sc.run(seed, tw)
	if err := tw.Err(); err != nil {
		return tw.Frames(), err
	}
	return tw.Frames(), tw.Close()
}

// ReplayReport summarises a completed replay.
type ReplayReport struct {
	Scenario string
	Seed     int64
	// Frames is the number of frames verified bit-identical.
	Frames uint64
}

// ReplayTrace re-runs the scenario recorded in the trace and verifies that
// every departure the live run produces is bit-identical to the captured
// stream, in order. It returns a *wire.PosError naming the first divergent
// or corrupt frame (with its byte offset) on mismatch; corrupt or truncated
// files fail with a positioned error, never a panic.
func ReplayTrace(r io.Reader) (ReplayReport, error) {
	tr, err := wire.NewTraceReader(r)
	if err != nil {
		return ReplayReport{}, err
	}
	rep := ReplayReport{Scenario: tr.Scenario(), Seed: tr.Seed()}
	sc, ok := traceScenarios[rep.Scenario]
	if !ok {
		return rep, fmt.Errorf("dshsim: trace names unknown scenario %q (have: %s)",
			rep.Scenario, strings.Join(TraceScenarios(), ", "))
	}
	v := &traceVerifier{tr: tr}
	sc.run(rep.Seed, v)
	rep.Frames = v.frames
	if v.err != nil {
		return rep, v.err
	}
	// The live run is done; the file must be exactly exhausted too.
	if _, err := tr.Next(); err != io.EOF {
		if err == nil {
			return rep, &wire.PosError{
				Frame:  tr.FramesRead() - 1,
				Offset: tr.FrameOffset(),
				Err: fmt.Errorf("%w: trace has more frames than the replay produced (replay ended after %d)",
					wire.ErrReplayDiverged, v.frames),
			}
		}
		return rep, err
	}
	return rep, nil
}

// traceVerifier is the replay-side eport.Tracer: it packs each live
// departure exactly like the capture-side writer and byte-compares against
// the next frame of the file. The first mismatch latches err; the run is
// left to finish (stopping a simulation mid-event is not worth the
// plumbing — subsequent departures are ignored).
type traceVerifier struct {
	tr      *wire.TraceReader
	frames  uint64
	err     error
	scratch [wire.MaxFrameSize]byte
}

func (v *traceVerifier) TraceDeparture(port int32, at units.Time, pkt *packet.Packet) {
	if v.err != nil {
		return
	}
	n, err := wire.PackPacket(v.scratch[wire.FrameOverhead:], pkt)
	if err != nil {
		v.err = fmt.Errorf("dshsim: replay could not pack live departure %d: %w", v.frames, err)
		return
	}
	start, flen, err := wire.FramePacker{}.PackInPlace(v.scratch[:], at, port, wire.FrameDeparture, wire.FrameOverhead, n)
	if err != nil {
		v.err = fmt.Errorf("dshsim: replay could not frame live departure %d: %w", v.frames, err)
		return
	}
	f, err := v.tr.Next()
	if err == io.EOF {
		v.err = &wire.PosError{
			Frame:  v.frames,
			Offset: v.tr.FrameOffset(),
			Err: fmt.Errorf("%w: replay produced more departures than the trace holds (%d captured)",
				wire.ErrReplayDiverged, v.tr.FramesRead()),
		}
		return
	}
	if err != nil {
		v.err = err
		return
	}
	live := v.scratch[start : start+flen]
	if !bytes.Equal(live, f.Raw) {
		v.err = &wire.PosError{
			Frame:  v.tr.FramesRead() - 1,
			Offset: v.tr.FrameOffset(),
			Err: fmt.Errorf("%w: frame differs from live run at byte %d (trace %d bytes, live %d bytes)",
				wire.ErrReplayDiverged, firstDiff(f.Raw, live), len(f.Raw), len(live)),
		}
		return
	}
	v.frames++
}

// firstDiff returns the index of the first differing byte (or the shorter
// length if one is a prefix of the other).
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
