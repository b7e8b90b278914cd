// Package fault is the scriptable fault-injection layer (ROADMAP item 4):
// a declarative, seeded scenario of timed or periodic fault events — link
// flaps, forced PFC pause storms, slow-receiver NICs, one-way latency skew,
// routing-loop rewires — compiled onto the simulator's timer machinery and
// eport's SetUp/pause/delay seams.
//
// Determinism rules: every fault action is scheduled on the network's
// coordinator simulator (Network.Sim). In a partitioned run coordinator
// events execute single-threaded at epoch barriers, with every LP quiescent
// and clocks advanced to the event time, and sort before any LP event at the
// same timestamp — so a scenario produces bit-identical results regardless
// of LPWorkers. Within one timestamp, ops fire in compile order (scenario
// event order, then occurrence order, then on-before-off).
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"

	"dsh/internal/topology"
	"dsh/units"
)

// Kind names a class of injected fault.
type Kind string

// The five fault classes of the scenario format.
const (
	// LinkFlap takes the link at (Node, Port) down in both directions for
	// Duration; in-flight packets are discarded (eport wire-epoch guard) and
	// packets serialized into the dead link are dropped at txDone.
	LinkFlap Kind = "link-flap"
	// PauseStorm forces PAUSE on the egress port at (Node, Port) — on class
	// Class, or the whole port when Class is -1 — for Duration, as if a storm
	// of PFC frames arrived from the peer. The forced resume at the end may
	// cancel an organic MMU pause; the congested queue re-pauses on its next
	// arrival (same semantics as a pause-timer expiry).
	PauseStorm Kind = "pause-storm"
	// SlowNIC throttles the drain rate of host Node's receive side: the
	// switch egress port facing the host is duty-cycled (port-level pause)
	// so it transmits only DrainFraction of each Slice for Duration.
	SlowNIC Kind = "slow-nic"
	// LatencySkew adds ExtraDelay of one-way propagation delay to the egress
	// port at (Node, Port) for Duration. Shrinking the skew back never
	// reorders the wire (eport clamps deliveries to stay FIFO).
	LatencySkew Kind = "latency-skew"
	// RewireLoop rewrites switch Node's forwarding so packets destined to
	// host Dst exit via ToPort for Duration, restoring the original route
	// after. Pointing ToPort back toward an upstream switch creates the
	// routing loop the name promises.
	RewireLoop Kind = "rewire-loop"
)

// Event is one scripted fault. Times are units.Time (int64 picoseconds) in
// JSON. A zero Duration means the fault persists to the end of the run.
// Period > 0 repeats the event every Period (Count occurrences, or until the
// run horizon when Count is 0); Period must be ≥ Duration so occurrences do
// not overlap themselves.
type Event struct {
	Kind     Kind       `json:"kind"`
	At       units.Time `json:"at"`
	Duration units.Time `json:"duration,omitempty"`
	Period   units.Time `json:"period,omitempty"`
	Count    int        `json:"count,omitempty"`

	// Node and Port select the target egress port (LinkFlap, PauseStorm,
	// LatencySkew), the target host (SlowNIC, Port ignored), or the target
	// switch (RewireLoop, Port ignored).
	Node int `json:"node"`
	Port int `json:"port,omitempty"`

	// Class selects the paused class for PauseStorm; -1 pauses the whole
	// port. (JSON default 0 is class 0.)
	Class int `json:"class,omitempty"`

	// ExtraDelay is the added one-way delay (LatencySkew).
	ExtraDelay units.Time `json:"extraDelay,omitempty"`

	// DrainFraction ∈ [0,1) is the fraction of each Slice the slowed NIC
	// still drains (SlowNIC). 0 stops the drain entirely for Duration.
	DrainFraction float64 `json:"drainFraction,omitempty"`
	// Slice is the duty-cycle granularity (SlowNIC); default 10 µs.
	Slice units.Time `json:"slice,omitempty"`

	// Dst and ToPort define the rewire: packets to host Dst leave switch
	// Node via ToPort (RewireLoop). ToPort's peer must be a switch.
	Dst    int `json:"dst,omitempty"`
	ToPort int `json:"toPort,omitempty"`
}

// Scenario is a named, seeded fault script. Seed records the generator seed
// the scenario was derived from (provenance; the injector itself is fully
// deterministic and does not consume randomness).
type Scenario struct {
	Name   string  `json:"name"`
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Parse decodes a scenario from JSON, rejecting unknown fields so format
// drift is caught loudly (the CI golden test relies on this), and anything
// but whitespace after the scenario object.
func Parse(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("fault: parse scenario: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Scenario{}, errors.New("fault: parse scenario: trailing data after the scenario object")
	}
	return sc, nil
}

// ParseFile loads a scenario spec from a JSON file.
func ParseFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("fault: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Marshal encodes the scenario as indented JSON.
func (sc Scenario) Marshal() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// Validate checks every event against the wired topology. It catches what
// JSON cannot: out-of-range nodes and ports, unlinked endpoints, rewires
// that would forward into a host, and self-overlapping periodic events.
func (sc Scenario) Validate(net *topology.Network) error {
	for i, ev := range sc.Events {
		if err := ev.validate(net); err != nil {
			return fmt.Errorf("fault: scenario %q event %d (%s): %w", sc.Name, i, ev.Kind, err)
		}
	}
	return nil
}

func (ev Event) validate(net *topology.Network) error {
	if ev.At < 0 || ev.Duration < 0 || ev.Period < 0 || ev.Count < 0 {
		return fmt.Errorf("negative time or count")
	}
	if ev.Period > 0 {
		if ev.Duration == 0 {
			return fmt.Errorf("periodic event needs a finite duration")
		}
		if ev.Period < ev.Duration {
			return fmt.Errorf("period %v shorter than duration %v", ev.Period, ev.Duration)
		}
	}
	switch ev.Kind {
	case LinkFlap, PauseStorm, LatencySkew:
		if err := checkPort(net, ev.Node, ev.Port); err != nil {
			return err
		}
		if _, _, ok := net.Peer(ev.Node, ev.Port); !ok {
			return fmt.Errorf("no link at node %d port %d", ev.Node, ev.Port)
		}
		switch ev.Kind {
		case PauseStorm:
			if ev.Class < -1 || ev.Class >= net.PortOf(ev.Node, ev.Port).Classes() {
				return fmt.Errorf("class %d out of range", ev.Class)
			}
		case LatencySkew:
			if ev.ExtraDelay <= 0 {
				return fmt.Errorf("extraDelay must be positive")
			}
		}
	case SlowNIC:
		if ev.Node < 0 || ev.Node >= len(net.Hosts) {
			return fmt.Errorf("host %d out of range", ev.Node)
		}
		if ev.DrainFraction < 0 || ev.DrainFraction >= 1 {
			return fmt.Errorf("drainFraction %v outside [0,1)", ev.DrainFraction)
		}
		if ev.Slice < 0 {
			return fmt.Errorf("negative slice")
		}
	case RewireLoop:
		if !net.IsSwitchNode(ev.Node) {
			return fmt.Errorf("node %d is not a switch", ev.Node)
		}
		sw := net.SwitchByNode(ev.Node)
		if ev.ToPort < 0 || ev.ToPort >= sw.Ports() {
			return fmt.Errorf("toPort %d out of range", ev.ToPort)
		}
		peer, _, ok := net.Peer(ev.Node, ev.ToPort)
		if !ok {
			return fmt.Errorf("no link at toPort %d", ev.ToPort)
		}
		if !net.IsSwitchNode(peer) {
			return fmt.Errorf("toPort %d faces host %d; rewire targets must face a switch", ev.ToPort, peer)
		}
		if ev.Dst < 0 || ev.Dst >= len(net.Hosts) {
			return fmt.Errorf("dst host %d out of range", ev.Dst)
		}
	default:
		return fmt.Errorf("unknown kind %q", ev.Kind)
	}
	return nil
}

func checkPort(net *topology.Network, node, port int) error {
	if node < 0 || node >= net.NumNodes() {
		return fmt.Errorf("node %d out of range", node)
	}
	if net.IsSwitchNode(node) {
		if port < 0 || port >= net.SwitchByNode(node).Ports() {
			return fmt.Errorf("port %d out of range on switch node %d", port, node)
		}
	} else if port != 0 {
		return fmt.Errorf("host %d has only port 0", node)
	}
	return nil
}

// Random generates a reproducible scenario of n events drawn over the wired
// links of net: flaps, pause storms, slow NICs, and latency skews (rewires
// are excluded — they need hand-picked loops to be meaningful). Event times
// land in [0, 3·horizon/4] with durations up to horizon/4, so every fault
// both starts and ends inside the run. The property tests drive this.
func Random(net *topology.Network, seed int64, horizon units.Time, n int) Scenario {
	rng := rand.New(rand.NewSource(seed))
	// Candidate egress endpoints: every wired (node, port).
	type ep struct{ node, port int }
	var eps []ep
	for h := range net.Hosts {
		eps = append(eps, ep{h, 0})
	}
	for i, sw := range net.Switches {
		node := net.SwitchNode(i)
		for p := 0; p < sw.Ports(); p++ {
			if _, _, ok := net.Peer(node, p); ok {
				eps = append(eps, ep{node, p})
			}
		}
	}
	sc := Scenario{Name: fmt.Sprintf("random-%d", seed), Seed: seed}
	for i := 0; i < n; i++ {
		e := eps[rng.Intn(len(eps))]
		ev := Event{
			At:       units.Time(rng.Int63n(int64(3 * horizon / 4))),
			Duration: units.Time(1 + rng.Int63n(int64(horizon/4))),
			Node:     e.node,
			Port:     e.port,
		}
		switch rng.Intn(4) {
		case 0:
			ev.Kind = LinkFlap
		case 1:
			ev.Kind = PauseStorm
			cls := net.PortOf(e.node, e.port).Classes()
			ev.Class = rng.Intn(cls+1) - 1 // -1 = port-level
		case 2:
			ev.Kind = SlowNIC
			ev.Node = rng.Intn(len(net.Hosts))
			ev.Port = 0
			ev.DrainFraction = rng.Float64() * 0.9
		case 3:
			ev.Kind = LatencySkew
			ev.ExtraDelay = units.Time(1+rng.Int63n(20)) * units.Microsecond
		}
		sc.Events = append(sc.Events, ev)
	}
	return sc
}
