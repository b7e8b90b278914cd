package main

import (
	"math/rand"

	"dsh/dshsim"
	"dsh/units"
)

// fabricConfig sizes the fabric workload: the §V-B evaluation shape on a
// k-ary fat-tree, run under SIH and DSH and drained.
type fabricConfig struct {
	k        int
	duration units.Time // schedule horizon; the drain runs to 4× this
	fanIn    int
}

const (
	fabricRate = 100 * units.Gbps
	// fabricSIHReserved sizes every switch's buffer so SIH's worst-case
	// reservation is this share of it: the pressure of the repository's
	// fat-tree experiments (16-port switches of the paper-scale fabric).
	fabricSIHReserved = 0.42
	fabricBgLoad      = 0.5
	fabricTotalLoad   = 0.9
)

// fabricScheduleSeed fixes the generators' draw of the fabric schedule.
const fabricScheduleSeed = 1

// newFabric returns the fabric workload for one seed: DCQCN, web-search
// background at load 0.5 on classes 1–6, plus 64 KB fan-in bursts up to
// 0.9 total load.
//
// Flow sizes, start times, classes and fan-in groups are one fixed draw of
// dshsim.Background and dshsim.Incast. The seed relabels the hosts, with a
// random order of the pods and a random order of hosts within each pod, so
// every fan-in still comes from other pods. It also draws the ECN coin
// flips. Which hosts talk, which paths ECMP takes and where queues build
// then vary with the seed, while the offered bytes do not. A fresh draw
// per seed would swing the work of a run by ±20% (web-search sizes are
// heavy-tailed), which would hide host-time changes across seeds.
func newFabric(cfg fabricConfig, seed int64) *simWorkload {
	prepare := func(tr *tracer, parent int) ([]simPoint, error) {
		var topos [2]*dshsim.FatTreeTopo
		for i, scheme := range []dshsim.Scheme{dshsim.SIH, dshsim.DSH} {
			nc := dshsim.NetworkConfig{Scheme: scheme, Transport: dshsim.TransportDCQCN,
				SIHReservedFraction: fabricSIHReserved, Seed: seed}
			id := tr.start("topology.build_s", parent)
			topos[i] = dshsim.NewFatTree(nc, cfg.k, fabricRate)
			tr.end(id)
		}

		id := tr.start("workload.gen_s", parent)
		racks := topos[0].PodHosts
		var hosts []int
		for _, r := range racks {
			hosts = append(hosts, r...)
		}
		rng := rand.New(rand.NewSource(fabricScheduleSeed))
		bg := dshsim.Background{Hosts: hosts, Dist: dshsim.WebSearch(), Load: fabricBgLoad,
			HostRate: fabricRate, Classes: []dshsim.Class{1, 2, 3, 4, 5, 6}}
		specs := bg.Generate(rng, cfg.duration, 0)
		ic := dshsim.Incast{Racks: racks, FanIn: cfg.fanIn, FlowSize: 64 * units.KB,
			Load: fabricTotalLoad - fabricBgLoad, HostRate: fabricRate}
		specs = append(specs, ic.Generate(rng, cfg.duration, 1_000_000)...)
		label := relabelPods(rand.New(rand.NewSource(seed)), racks)
		for i := range specs {
			specs[i].Src, specs[i].Dst = label[specs[i].Src], label[specs[i].Dst]
		}
		tr.end(id)

		rc := dshsim.RunConfig{Specs: specs, Duration: cfg.duration, Drain: true}
		return []simPoint{{
			sih: simJob{scheme: dshsim.SIH, net: topos[0].Network, rc: rc},
			dsh: simJob{scheme: dshsim.DSH, net: topos[1].Network, rc: rc},
		}}, nil
	}
	return &simWorkload{prepare: prepare}
}

// relabelPods maps every host to a new ID: pod p becomes a random pod, and
// the hosts of a pod are shuffled within it.
func relabelPods(rng *rand.Rand, pods [][]int) map[int]int {
	order := rng.Perm(len(pods))
	label := map[int]int{}
	for p, hs := range pods {
		to := pods[order[p]]
		for i, j := range rng.Perm(len(hs)) {
			label[hs[i]] = to[j]
		}
	}
	return label
}
