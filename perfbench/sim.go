package main

import (
	"fmt"
	"time"

	"dsh/dshsim"
	"dsh/units"
)

// simJob is one prepared simulation: a network built by a dshsim.New*
// constructor and the run that drives it.
type simJob struct {
	scheme dshsim.Scheme
	net    *dshsim.Network
	rc     dshsim.RunConfig
}

// simPoint pairs the two schemes on one schedule, the comparison every
// figure of the paper makes.
type simPoint struct {
	sih, dsh simJob
	// fanin lists the hosts whose summed pause time is the point's fan-in
	// pause (burst only).
	fanin []int
}

// simWorkload runs a fixed list of paired simulation points per
// repetition: set-up (network build and schedule generation) first, then
// every run. One operation is one dshsim.Run.
type simWorkload struct {
	// prepare builds the repetition's points from the workload seed.
	prepare func(tr *tracer, parent int) ([]simPoint, error)
	// sihLossless makes an SIH drop a failure (burst); on the fabric SIH
	// drops are reported, not failed.
	sihLossless bool
}

// simCounters are a repetition's deterministic work counters, read through
// public accessors after each run.
type simCounters struct {
	events, txBytes, pauseFrames, marks, sentPackets int64
	heapMax, unfinished                              int
	hostPaused                                       units.Time
	// By scheme: SIH, DSH.
	faninPaused    [2]units.Time
	drops          [2]int64
	fctP50, fctP99 [2][]float64
}

func (c *simCounters) metrics() map[string]float64 {
	m := map[string]float64{
		"sim.events":                float64(c.events),
		"sim.heap_max":              float64(c.heapMax),
		"eport.tx_mb":               float64(c.txBytes) / 1e6,
		"eport.pause_frames":        float64(c.pauseFrames),
		"eport.host_paused_ms":      c.hostPaused.Milliseconds(),
		"eport.fanin_paused_us.sih": c.faninPaused[0].Microseconds(),
		"eport.fanin_paused_us.dsh": c.faninPaused[1].Microseconds(),
		"core.drops.sih":            float64(c.drops[0]),
		"core.drops.dsh":            float64(c.drops[1]),
		"switchdev.ecn_marks":       float64(c.marks),
		"host.sent_packets":         float64(c.sentPackets),
		"host.unfinished":           float64(c.unfinished),
	}
	for i, s := range []string{"sih", "dsh"} {
		m["metrics.fct_p50_us."+s] = median(c.fctP50[i])
		m["metrics.fct_p99_us."+s] = median(c.fctP99[i])
	}
	return m
}

func (w *simWorkload) rep(tr *tracer) repResult {
	var r repResult
	root := tr.start("rep", 0)
	defer tr.end(root)

	t0 := time.Now()
	points, err := w.prepare(tr, root)
	r.setup = time.Since(t0)
	if err != nil {
		r.problems = append(r.problems, fmt.Sprintf("set-up: %v", err))
		r.attempted, r.failed = 1, 1
		return r
	}

	var c simCounters
	t0 = time.Now()
	for pi, pt := range points {
		var paused [2]units.Time
		var failed [2]bool
		for si, j := range []simJob{pt.sih, pt.dsh} {
			r.attempted++
			res, d, err := simulate(tr, root, j)
			if err != nil {
				r.problems = append(r.problems, fmt.Sprintf("point %d %s: %v", pi, j.scheme, err))
				failed[si] = true
				continue
			}
			r.ops = append(r.ops, d)
			c.add(si, j.net, res)
			id := tr.start("metrics.reduce_s", root)
			c.fctP50[si] = append(c.fctP50[si], res.FCT.Percentile("fanin", 0.50).Microseconds())
			c.fctP99[si] = append(c.fctP99[si], res.FCT.Percentile("fanin", 0.99).Microseconds())
			tr.end(id)
			for _, h := range pt.fanin {
				p := j.net.Hosts[h].Port()
				paused[si] += p.ClassPausedTime(0) + p.PortPausedTime()
			}
			c.faninPaused[si] += paused[si]
			if f := checkRun(j.scheme, res.Drops, w.sihLossless); f != "" {
				r.problems = append(r.problems, fmt.Sprintf("point %d: %s", pi, f))
				failed[si] = true
			}
		}
		if pt.fanin != nil && !failed[0] && !failed[1] {
			if f := checkFaninPause(paused[0], paused[1]); f != "" {
				r.problems = append(r.problems, fmt.Sprintf("point %d: %s", pi, f))
				failed[1] = true
			}
		}
		for _, f := range failed {
			if f {
				r.failed++
			}
		}
	}
	r.wall = time.Since(t0)
	r.counters = c.metrics()
	return r
}

func (w *simWorkload) finish(*tracer) (int, int, []string) { return 0, 0, nil }

// simulate is the timed dshsim.Run call; a panic is a failed operation.
func simulate(tr *tracer, parent int, j simJob) (res *dshsim.Result, d time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("dshsim.Run panicked: %v", p)
		}
	}()
	id := tr.start("dshsim.run_s", parent)
	t := time.Now()
	res = dshsim.Run(j.net, j.rc)
	d = time.Since(t)
	tr.end(id)
	return res, d, nil
}

// add folds one finished run into the counters; si indexes the scheme.
func (c *simCounters) add(si int, net *dshsim.Network, res *dshsim.Result) {
	c.events += int64(res.Events)
	c.heapMax = max(c.heapMax, res.HeapMax)
	c.pauseFrames += res.PauseFrames
	c.hostPaused += res.HostPausedTime
	c.drops[si] += res.Drops
	c.unfinished += res.Unfinished
	for _, h := range net.Hosts {
		c.txBytes += int64(h.Port().TxBytes())
		c.sentPackets += h.SentPackets()
	}
	for _, sw := range net.Switches {
		c.marks += sw.Marks()
		for i := 0; i < sw.Ports(); i++ {
			c.txBytes += int64(sw.Port(i).TxBytes())
		}
	}
}
