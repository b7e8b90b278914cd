package fault

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dsh/internal/topology"
	"dsh/units"
)

func testNet(t testing.TB) *topology.Network {
	t.Helper()
	return topology.SingleSwitch(topology.Config{}, 8, 100*units.Gbps)
}

// twoTier gives rewire validation a switch-facing port to target.
func twoTier(t testing.TB) *topology.LeafSpineTopo {
	t.Helper()
	return topology.LeafSpine(topology.Config{}, 2, 2, 4, 100*units.Gbps, 100*units.Gbps)
}

func TestGoldenRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "scenario.golden.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if sc.Name != "golden-all-kinds" || sc.Seed != 42 || len(sc.Events) != 6 {
		t.Fatalf("golden decoded to %q seed %d with %d events", sc.Name, sc.Seed, len(sc.Events))
	}
	got, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("scenario format drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Exercise every kind at least once so field renames cannot hide.
	kinds := map[Kind]bool{}
	for _, ev := range sc.Events {
		kinds[ev.Kind] = true
	}
	for _, k := range []Kind{LinkFlap, PauseStorm, SlowNIC, LatencySkew, RewireLoop} {
		if !kinds[k] {
			t.Errorf("golden scenario missing kind %q", k)
		}
	}
}

// TestParseRejectsUnknownFields also pins that a valid scenario followed
// by more input is rejected, never silently truncated to its first value.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(bytes.NewReader([]byte(`{"name":"x","events":[{"kind":"link-flap","node":0,"bogus":1}]}`)))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	for _, doc := range []string{
		`{"name":"x","events":[]} {"name":"y","events":[]}`,
		`{"name":"x","events":[]} garbage`,
		`{"name":"x","events":[]}]`,
	} {
		if sc, err := Parse(bytes.NewReader([]byte(doc))); err == nil {
			t.Errorf("Parse(%q) = %+v, want a trailing-data error", doc, sc)
		}
	}
	if _, err := Parse(bytes.NewReader([]byte("{\"name\":\"x\",\"events\":[]}\n"))); err != nil {
		t.Errorf("trailing newline rejected: %v", err)
	}
}

func TestValidate(t *testing.T) {
	net := testNet(t)
	sw := net.SwitchNode(0)
	us := units.Microsecond
	ok := func(ev Event) Scenario { return Scenario{Name: "t", Events: []Event{ev}} }

	valid := []Event{
		{Kind: LinkFlap, At: 0, Duration: 10 * us, Node: sw, Port: 3},
		{Kind: LinkFlap, At: 5 * us, Node: 2, Port: 0}, // persistent, host side
		{Kind: PauseStorm, At: 0, Duration: 10 * us, Node: sw, Port: 0, Class: -1},
		{Kind: PauseStorm, At: 0, Duration: 10 * us, Period: 10 * us, Count: 2, Node: sw, Port: 0, Class: 7},
		{Kind: SlowNIC, At: 0, Duration: 100 * us, Node: 3, DrainFraction: 0.5},
		{Kind: LatencySkew, At: 0, Duration: 10 * us, Node: 1, Port: 0, ExtraDelay: 2 * us},
	}
	for i, ev := range valid {
		if err := ok(ev).Validate(net); err != nil {
			t.Errorf("valid event %d rejected: %v", i, err)
		}
	}

	invalid := []Event{
		{Kind: "melt-down", Node: 0},
		{Kind: LinkFlap, At: -1, Node: 0},
		{Kind: LinkFlap, Node: 99},
		{Kind: LinkFlap, Node: sw, Port: 64},
		{Kind: LinkFlap, Node: 0, Port: 1},                           // host has only port 0
		{Kind: LinkFlap, Duration: 10 * us, Period: 5 * us, Node: 0}, // period < duration
		{Kind: LinkFlap, Period: 5 * us, Node: 0},                    // periodic without duration
		{Kind: PauseStorm, Duration: 10 * us, Node: sw, Port: 0, Class: 8},
		{Kind: PauseStorm, Duration: 10 * us, Node: sw, Port: 0, Class: -2},
		{Kind: SlowNIC, Duration: 10 * us, Node: sw}, // not a host
		{Kind: SlowNIC, Duration: 10 * us, Node: 0, DrainFraction: 1},
		{Kind: LatencySkew, Duration: 10 * us, Node: 0},            // no delay
		{Kind: RewireLoop, Duration: 10 * us, Node: 0, ToPort: 0},  // not a switch
		{Kind: RewireLoop, Duration: 10 * us, Node: sw, ToPort: 2}, // toPort faces a host
	}
	for i, ev := range invalid {
		if err := ok(ev).Validate(net); err == nil {
			t.Errorf("invalid event %d accepted: %+v", i, ev)
		}
	}
}

func TestRewireValidatesOnSwitchFacingPort(t *testing.T) {
	ls := twoTier(t)
	// Leaf 0's uplink port 4 faces spine 0: a legal rewire target.
	sc := Scenario{Name: "t", Events: []Event{{
		Kind: RewireLoop, At: 0, Duration: 10 * units.Microsecond,
		Node: ls.LeafNode[0], Dst: 0, ToPort: 4,
	}}}
	if err := sc.Validate(ls.Network); err != nil {
		t.Fatalf("legal rewire rejected: %v", err)
	}
}

func TestInjectorCompilesAndRuns(t *testing.T) {
	net := testNet(t)
	sw := net.SwitchNode(0)
	us := units.Microsecond
	sc := Scenario{Name: "smoke", Events: []Event{
		{Kind: LinkFlap, At: 10 * us, Duration: 20 * us, Period: 100 * us, Count: 3, Node: sw, Port: 0},
		{Kind: PauseStorm, At: 5 * us, Duration: 50 * us, Node: sw, Port: 1, Class: -1},
		{Kind: LatencySkew, At: 0, Duration: 40 * us, Node: sw, Port: 2, ExtraDelay: 3 * us},
		{Kind: SlowNIC, At: 0, Duration: 100 * us, Node: 3, DrainFraction: 0.5, Slice: 25 * us},
	}}
	inj, err := NewInjector(net, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(1 * units.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(1 * units.Millisecond); err == nil {
		t.Error("second Start accepted")
	}

	flapPort := net.PortOf(sw, 0)
	// Mid-flap the link is down; after the flap it is up again.
	net.Sim.At(15*us, func() {
		if flapPort.Up() {
			t.Error("link up during flap")
		}
	})
	net.Sim.At(35*us, func() {
		if !flapPort.Up() {
			t.Error("link down after flap ended")
		}
	})
	stormPort := net.PortOf(sw, 1)
	net.Sim.At(20*us, func() {
		if !stormPort.PortPaused() {
			t.Error("port not paused during storm")
		}
	})
	skewPort := net.PortOf(sw, 2)
	net.Sim.At(10*us, func() {
		if skewPort.ExtraDelay() != 3*us {
			t.Error("skew not applied")
		}
	})
	net.Sim.At(50*us, func() {
		if skewPort.ExtraDelay() != 0 {
			t.Error("skew not removed")
		}
	})
	net.RunUntil(1 * units.Millisecond)

	st := inj.Stats()
	if st.Flaps != 3 {
		t.Errorf("Flaps = %d, want 3", st.Flaps)
	}
	if st.PauseStorms != 1 || st.StormPaused != 50*us {
		t.Errorf("storms = %d/%v, want 1/50µs", st.PauseStorms, st.StormPaused)
	}
	if st.Skews != 1 {
		t.Errorf("Skews = %d, want 1", st.Skews)
	}
	// 4 slices × 12.5 µs stall each.
	if st.SlowNICPaused != 50*us {
		t.Errorf("SlowNICPaused = %v, want 50µs", st.SlowNICPaused)
	}
	if stormPort.PortPaused() {
		t.Error("storm still paused after its off op")
	}
}

func TestRandomScenariosValidate(t *testing.T) {
	net := testNet(t)
	ls := twoTier(t)
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []struct {
			net  *topology.Network
			name string
		}{{net, "single"}, {ls.Network, "leafspine"}} {
			sc := Random(n.net, seed, units.Millisecond, 8)
			if err := sc.Validate(n.net); err != nil {
				t.Errorf("%s seed %d: random scenario invalid: %v", n.name, seed, err)
			}
			if len(sc.Events) != 8 {
				t.Errorf("%s seed %d: got %d events", n.name, seed, len(sc.Events))
			}
		}
	}
}
