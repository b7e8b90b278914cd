package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dsh/dshsim"
)

// TestTinyRunsEmitEveryMetric runs each workload at tiny size, untraced and
// traced, and checks the run is correct and prints every metric of its
// mode with the registered unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, wl := range []string{"burst", "fabric", "serve"} {
		for _, trace := range []bool{false, true} {
			res, rec, err := run(runConfig{workload: wl, size: "tiny", seed: 3, trace: trace, scratch: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					wl, trace, res.Correct, res.Attempted, res.Failed, rec.Problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, d.Name, m, d.Unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", wl, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestCountersRepeatAcrossRuns: two traced runs of one seed report the
// same deterministic counters, and the fabric's SIH drops are reported as
// they are, not failed.
func TestCountersRepeatAcrossRuns(t *testing.T) {
	counters := []string{"sim.events", "sim.heap_max", "eport.tx_mb", "eport.pause_frames",
		"eport.host_paused_ms", "core.drops.sih", "core.drops.dsh", "switchdev.ecn_marks",
		"host.sent_packets", "host.unfinished", "metrics.fct_p50_us.sih", "metrics.fct_p99_us.dsh"}
	var runs [2]result
	for i := range runs {
		res, rec, err := run(runConfig{workload: "fabric", size: "tiny", seed: 5, trace: true, scratch: t.TempDir()})
		if err != nil || !res.Correct {
			t.Fatalf("run %d: err=%v problems=%v", i, err, rec.Problems)
		}
		runs[i] = res
	}
	for _, name := range counters {
		if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
	if runs[0].Metrics["sim.events"].Value == 0 {
		t.Error("no events counted")
	}
}

func TestChecksRejectCorruptedOutputs(t *testing.T) {
	good := []byte(`{"rows":[1,2,3]}`)
	bad := append([]byte(nil), good...)
	bad[9] ^= 1
	if checkBytes("x", good, good) != "" || checkBytes("x", good, bad) == "" {
		t.Error("checkBytes does not catch a flipped result byte")
	}
	if checkRun(dshsim.DSH, 0, false) != "" || checkRun(dshsim.DSH, 1, false) == "" {
		t.Error("checkRun does not catch a DSH drop")
	}
	if checkRun(dshsim.SIH, 7, false) != "" {
		t.Error("fabric SIH drops must be reported, not failed")
	}
	if checkRun(dshsim.SIH, 7, true) == "" {
		t.Error("checkRun does not catch a burst SIH drop")
	}
	if checkFaninPause(10, 10) != "" || checkFaninPause(10, 11) == "" {
		t.Error("checkFaninPause does not catch DSH pausing longer than SIH")
	}
	c := map[string]float64{"sim.events": 10, "core.drops.sih": 3}
	if checkCounters(c, map[string]float64{"sim.events": 10, "core.drops.sih": 3}) != "" {
		t.Error("equal counters reported as different")
	}
	if checkCounters(c, map[string]float64{"sim.events": 11, "core.drops.sih": 3}) == "" {
		t.Error("checkCounters does not catch a changed counter")
	}
	if checkCounters(c, map[string]float64{"sim.events": 10}) == "" {
		t.Error("checkCounters does not catch a missing counter")
	}
}

// TestServeRecordRejectsFlippedByte: a hit whose bytes differ from the
// miss that computed the result is a failed submission.
func TestServeRecordRejectsFlippedByte(t *testing.T) {
	w := newServe(serveConfig{}, 1, t.TempDir())
	data := []byte("result\n")
	if f := w.record("k", data, true); f != "" {
		t.Fatal(f)
	}
	if f := w.record("k", []byte("result\n"), false); f != "" {
		t.Errorf("identical hit rejected: %s", f)
	}
	if f := w.record("k", []byte("resulT\n"), false); f == "" {
		t.Error("flipped hit byte accepted")
	}
}

// flakyWorkload reports a different counter on every repetition.
type flakyWorkload struct{ n int }

func (w *flakyWorkload) rep(*tracer) repResult {
	w.n++
	return repResult{attempted: 1, counters: map[string]float64{"sim.events": float64(w.n)}}
}

func (w *flakyWorkload) finish(*tracer) (int, int, []string) { return 0, 0, nil }

// TestRunFailsOnNondeterministicCounters: repetitions whose counters
// differ from the first fail their operations and make the run incorrect.
func TestRunFailsOnNondeterministicCounters(t *testing.T) {
	res, rec, err := measure(&flakyWorkload{}, runConfig{workload: "flaky", scratch: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted-1 || len(rec.Problems) == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, rec.Problems)
	}
}

// TestRegistryMatchesBenchmarkJSON pins the metric tables to the
// repository's BENCHMARK.json.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, registry %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, registry %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestUsesOnlyKeptSurfaces: the benchmark must not depend on surfaces the
// roadmap may remove (the packed wire result format and its cache files,
// packet trace capture, the partitioned-engine knob, the scaled load-point
// harnesses, the benchkit gate), so removing them is measured by the
// benchmark instead of breaking it.
func TestUsesOnlyKeptSurfaces(t *testing.T) {
	retired := regexp.MustCompile(`format=wire|\.dshz|GetWire|\bTrace:|\.Trace\b|LPWorkers|LoadPointAt2|LoadPointScaled|benchkit`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "run.sh")
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := retired.FindString(line); m != "" {
				t.Errorf("%s:%d uses %q", f, i+1, m)
			}
		}
	}
}
