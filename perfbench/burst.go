package main

import (
	"fmt"
	"math/rand"

	"dsh/dshsim"
	"dsh/units"
)

const (
	burstHosts  = 32
	burstRate   = 100 * units.Gbps
	burstBuffer = 16 * units.MB
	burstAt     = units.Millisecond
	// Ranges the seed draws from. Shares and fan-in degrees are stratified
	// over the points of a repetition, so every seed covers each whole
	// range. Background flow counts are permuted within each run of
	// burstMaxBgFlows neighbouring share strata: background work grows with
	// count × horizon, and this keeps a repetition's total work nearly
	// independent of the seed.
	burstMinShare, burstMaxShare = 0.05, 0.50
	burstMinFanIn, burstMaxFanIn = 4, 24
	burstMaxBgFlows              = 4
)

// burstPoint is one drawn Fig. 11 point.
type burstPoint struct {
	fanIn   int
	share   float64 // burst size as a share of the switch buffer
	bgFlows int     // long background flows into the last port
}

func drawBurstPoints(rng *rand.Rand, n int) []burstPoint {
	fan := rng.Perm(n)
	var bg []int
	for len(bg) < n {
		bg = append(bg, rng.Perm(burstMaxBgFlows)...)
	}
	pts := make([]burstPoint, n)
	for i := range pts {
		pts[i] = burstPoint{
			share:   burstMinShare + (burstMaxShare-burstMinShare)*(float64(i)+rng.Float64())/float64(n),
			fanIn:   burstMinFanIn + int(float64(burstMaxFanIn-burstMinFanIn+1)*(float64(fan[i])+rng.Float64())/float64(n)),
			bgFlows: 1 + bg[i],
		}
	}
	return pts
}

// burstSchedule builds a point's flows: bgFlows long-lived flows from
// hosts 0.. into the last host, plus one fan-in burst drawn by
// dshsim.Incast among the remaining hosts at burstAt. The horizon covers
// the burst's drain at line rate plus slack, as in Fig. 11.
func burstSchedule(rng *rand.Rand, pt burstPoint) ([]dshsim.FlowSpec, units.Time, error) {
	total := units.ByteSize(float64(burstBuffer) * pt.share)
	horizon := burstAt + 4*units.TransmissionTime(total, burstRate) + 4*units.Millisecond
	bgSize := units.BytesInTime(2*horizon, burstRate)
	var specs []dshsim.FlowSpec
	for i := 0; i < pt.bgFlows; i++ {
		specs = append(specs, dshsim.FlowSpec{ID: 1 + i, Src: i, Dst: burstHosts - 1,
			Size: bgSize, Class: 1, Tag: "background"})
	}
	var rack []int
	for h := pt.bgFlows; h < burstHosts-1; h++ {
		rack = append(rack, h)
	}
	// The generator draws a Poisson sequence of fan-in events; the first
	// one is the point's burst. Generating over 64 mean gaps makes an empty
	// draw (probability e^-64) impossible in practice.
	ic := dshsim.Incast{Racks: [][]int{rack}, FanIn: pt.fanIn,
		FlowSize: total / units.ByteSize(pt.fanIn), Load: 0.5, HostRate: burstRate}
	gap := units.TransmissionTime(total, burstRate) * units.Time(2) / units.Time(len(rack))
	burst := ic.Generate(rng, 64*gap, 100)
	if len(burst) < pt.fanIn {
		return nil, 0, fmt.Errorf("incast generator drew no burst")
	}
	for _, sp := range burst[:pt.fanIn] {
		sp.Start = burstAt
		specs = append(specs, sp)
	}
	return specs, horizon, nil
}

// newBurst returns the burst workload for one seed: points Fig. 11 points
// per repetition on one Tomahawk-like switch (32×100 GbE, 16 MB, no
// congestion control), each run under SIH and DSH.
func newBurst(points int, seed int64) *simWorkload {
	prepare := func(tr *tracer, parent int) ([]simPoint, error) {
		rng := rand.New(rand.NewSource(seed))
		pts := drawBurstPoints(rng, points)
		out := make([]simPoint, 0, len(pts))
		for _, pt := range pts {
			id := tr.start("workload.gen_s", parent)
			specs, horizon, err := burstSchedule(rng, pt)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			job := func(scheme dshsim.Scheme) simJob {
				nc := dshsim.NetworkConfig{Scheme: scheme, Transport: dshsim.TransportNone,
					Buffer: burstBuffer, Seed: seed}
				id := tr.start("topology.build_s", parent)
				net := dshsim.NewSingleSwitch(nc, burstHosts, burstRate)
				tr.end(id)
				return simJob{scheme: scheme, net: net, rc: dshsim.RunConfig{Specs: specs, Duration: horizon}}
			}
			var fanin []int
			for _, sp := range specs {
				if sp.Tag == "fanin" {
					fanin = append(fanin, sp.Src)
				}
			}
			out = append(out, simPoint{sih: job(dshsim.SIH), dsh: job(dshsim.DSH), fanin: fanin})
		}
		return out, nil
	}
	return &simWorkload{prepare: prepare, sihLossless: true}
}
