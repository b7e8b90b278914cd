// Command perfbench is the repository benchmark: it drives the simulator
// (dshsim) and the sweep service (serve) from outside, through their public
// entry points, on three workloads, and prints end-to-end metrics (an
// untraced run) or per-layer metrics (a traced run) as one JSON object on
// the last line of standard output. See README.md; run it through run.sh,
// which builds it from the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"dsh/units"
)

// benchDir is this benchmark's directory, relative to the checkout root.
const benchDir = "perfbench"

// repResult is one repetition of a workload's fixed work.
type repResult struct {
	setup, wall time.Duration
	// ops are the latencies of the user-visible operations; hits (serve)
	// those of submissions answered from the cache.
	ops, hits         []time.Duration
	attempted, failed int
	// counters are the deterministic work counters; every repetition of a
	// seed must reproduce them exactly.
	counters map[string]float64
	problems []string

	traced           bool
	allocMB, gcCycle float64
}

type workload interface {
	rep(tr *tracer) repResult
	// finish runs once after the measured repetitions: output checks that
	// need the whole run and, when traced, direct calls into single layers.
	finish(tr *tracer) (attempted, failed int, problems []string)
}

// size selects the workload dimensions: "full" for measurement, "tiny"
// for the benchmark's own tests.
func newWorkload(name, size string, seed int64, scratch string) (workload, error) {
	tiny := size == "tiny"
	switch name {
	case "burst":
		points := 12
		if tiny {
			points = 2
		}
		return newBurst(points, seed), nil
	case "fabric":
		cfg := fabricConfig{k: 8, duration: 150 * units.Microsecond, fanIn: 16}
		if tiny {
			cfg = fabricConfig{k: 4, duration: 20 * units.Microsecond, fanIn: 8}
		}
		return newFabric(cfg, seed), nil
	case "serve":
		cfg := serveConfig{clients: min(max(runtime.NumCPU(), 1), 4), iters: 10, lag: 5, memEntries: 4, checks: 2}
		if tiny {
			cfg = serveConfig{clients: 2, iters: 3, lag: 2, memEntries: 1, checks: 1}
		}
		return newServe(cfg, seed, scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want burst, fabric or serve)", name)
}

type runConfig struct {
	workload string
	size     string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // profiles, spans and server state; inside the checkout
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record precedes the result line: what was measured, where, and the raw
// per-repetition figures behind the medians.
type record struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Traced     bool      `json:"trace"`
	Reps       int       `json:"reps"`
	Host       hostInfo  `json:"host"`
	FailedFrac float64   `json:"failed_frac"`
	WallS      []float64 `json:"wall_s"`
	SetupS     []float64 `json:"setup_s"`
	Ops        int       `json:"ops"`
	Problems   []string  `json:"problems,omitempty"`
}

// run builds the configured workload and measures it.
func run(cfg runConfig) (result, record, error) {
	w, err := newWorkload(cfg.workload, cfg.size, cfg.seed, cfg.scratch)
	if err != nil {
		return result{}, record{}, err
	}
	return measure(w, cfg)
}

// measure runs repetitions of a workload's fixed work until the time budget
// is spent (at least minReps), the output checks, and the metrics of the
// selected mode. A traced run alternates untraced and traced repetitions;
// the untraced ones give the base of tracing.overhead_frac.
func measure(w workload, cfg runConfig) (result, record, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return result{}, record{}, err
	}
	minReps := 3
	if cfg.trace {
		minReps = 4
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var reps []repResult
	var profiles []string
	defer func() {
		for _, p := range profiles {
			os.Remove(p)
		}
	}()
	start := time.Now()
	for r := 0; r < minReps || time.Since(start).Seconds() < cfg.seconds; r++ {
		traced := cfg.trace && r%2 == 1
		var rt *tracer
		var prof *os.File
		if traced {
			rt, tr.rep = tr, r
			path := filepath.Join(cfg.scratch, fmt.Sprintf("cpu-%d-%d.pprof", os.Getpid(), r))
			var err error
			if prof, err = startProfile(path); err != nil {
				return result{}, record{}, err
			}
			profiles = append(profiles, path)
		}
		// Every repetition starts from a collected heap, so GC pacing, and
		// with it peak memory, does not depend on the previous one.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := w.rep(rt)
		runtime.ReadMemStats(&m1)
		if prof != nil {
			pprof.StopCPUProfile()
			if err := prof.Close(); err != nil {
				return result{}, record{}, err
			}
		}
		res.traced = traced
		res.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		res.gcCycle = float64(m1.NumGC - m0.NumGC)
		reps = append(reps, res)
	}

	out := result{Metrics: map[string]metricValue{}}
	rec := record{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Reps: len(reps)}
	for i, r := range reps {
		out.Attempted += r.attempted
		out.Failed += r.failed
		rec.Problems = append(rec.Problems, r.problems...)
		if i > 0 && r.failed == 0 {
			if f := checkCounters(reps[0].counters, r.counters); f != "" {
				rec.Problems = append(rec.Problems, fmt.Sprintf("rep %d: %s", i, f))
				out.Failed += r.attempted
			}
		}
	}
	a, f, problems := w.finish(tr)
	out.Attempted += a
	out.Failed += f
	rec.Problems = append(rec.Problems, problems...)
	out.Correct = out.Failed == 0 && len(rec.Problems) == 0
	if out.Attempted > 0 {
		rec.FailedFrac = float64(out.Failed) / float64(out.Attempted)
	}

	var untraced []repResult
	var wall, setup, tracedWall []float64
	for _, r := range reps {
		rec.WallS = append(rec.WallS, r.wall.Seconds())
		rec.SetupS = append(rec.SetupS, r.setup.Seconds())
		if r.traced {
			tracedWall = append(tracedWall, r.wall.Seconds())
			continue
		}
		untraced = append(untraced, r)
		wall = append(wall, r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
	}
	var ops, hits []float64
	for _, r := range untraced {
		ops = append(ops, msAll(r.ops)...)
		hits = append(hits, msAll(r.hits)...)
	}
	rec.Ops = len(ops)

	values := map[string]float64{}
	if !cfg.trace {
		values["wall_s"] = median(wall)
		values["setup_s"] = median(setup)
		values["max_rss_mb"] = maxRSSMB()
		values["op_p50_ms"] = percentile(ops, 0.50)
		values["op_p90_ms"] = percentile(ops, 0.90)
	} else {
		for k, v := range reps[0].counters {
			values[k] = v
		}
		var alloc, gc []float64
		for _, r := range untraced {
			alloc = append(alloc, r.allocMB)
			gc = append(gc, r.gcCycle)
		}
		values["runtime.alloc_mb"] = median(alloc)
		values["runtime.gc_cycles"] = median(gc)
		for _, name := range []string{"topology.build_s", "workload.gen_s", "dshsim.run_s", "metrics.reduce_s"} {
			values[name] = tr.perRepSumS(name)
		}
		if ev := values["sim.events"]; ev > 0 {
			values["sim.ns_per_event"] = values["dshsim.run_s"] / ev * 1e9
		}
		for _, name := range []string{"serve.submit_ms", "serve.wait_ms", "serve.fetch_ms",
			"serve.execute_ms", "serve.cache_put_ms", "serve.cache_get_ms"} {
			values[name] = tr.medianMS(name)
		}
		values["serve.hit_p50_ms"] = percentile(hits, 0.50)
		values["serve.hit_p90_ms"] = percentile(hits, 0.90)
		values["tracing.overhead_frac"] = median(tracedWall)/median(wall) - 1
		shares, err := cpuShares(profiles)
		if err != nil {
			return result{}, record{}, err
		}
		for layer, v := range shares {
			values[layer+".cpu_share"] = v
		}
		if err := writeSpans(filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)), tr.spans); err != nil {
			return result{}, record{}, err
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out, rec, nil
}

// startProfile starts the CPU profiler writing to a new file at path.
func startProfile(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func main() {
	name := flag.String("workload", "", "workload: burst, fabric or serve")
	seed := flag.Int64("seed", 1, "workload seed (inputs are generated from it)")
	seconds := flag.Float64("seconds", 10, "measurement time budget in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	root := flag.String("root", ".", "checkout root: the module under test")
	scratch := flag.String("scratch", ".bench_build", "scratch directory for profiles, spans and server state")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, rec, err := run(runConfig{workload: *name, size: "full", seed: *seed, seconds: *seconds,
		trace: *trace == 1, scratch: *scratch})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.Host = fingerprint(*root)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]record{"record": rec}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}
