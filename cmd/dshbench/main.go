// Command dshbench regenerates every table and figure of the paper's
// evaluation. Each subcommand prints the rows/series the corresponding
// figure plots.
//
// Usage:
//
//	dshbench [flags] <experiment>
//
// Experiments: fig4, fig5, fig6, fig11, fig12, fig13, fig14, fig15,
// theorem, fig10, ablation, faults, scale, all.
//
// Flags:
//
//	-full      run at the paper's scale (much slower)
//	-seed N    workload seed (default 1)
//	-workers N sweep points run concurrently (default: all cores; results
//	           are identical for any value — see README "Running sweeps in
//	           parallel")
//	-lp-workers N  partition each simulation into logical processes and run
//	           them on N workers (0 = classic single-heap engine; results
//	           are identical for any N ≥ 1 — see DESIGN.md §9)
//	-fidelity F    simulation granularity for the scale experiment: packet,
//	           flow (the default), or hybrid — see DESIGN.md §13
//	-quiet     suppress progress lines
//	-json      print the experiment's canonical result JSON (the dshserve
//	           result format) instead of tables
//	-cpuprofile F  write a pprof CPU profile of the run to F
//	-memprofile F  write a pprof heap profile (taken at exit) to F
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"dsh/dshsim"
	"dsh/dshsim/benchkit"
	"dsh/internal/serve"
	"dsh/units"
)

func main() {
	full := flag.Bool("full", false, "run at the paper's scale")
	seed := flag.Int64("seed", 1, "workload seed")
	workers := flag.Int("workers", 0, "concurrent sweep points (0 = all cores)")
	lpWorkers := flag.Int("lp-workers", 0, "intra-run LP workers per simulation (0 = classic engine)")
	faultsSpec := flag.String("faults", "", "fault scenario JSON for the faults experiment (default: built-in fault classes)")
	fidelity := flag.String("fidelity", "", "simulation granularity for the scale experiment: packet, flow (the default), or hybrid")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	jsonOut := flag.Bool("json", false, "print the experiment's canonical result JSON (the dshserve result format) instead of tables")
	benchJSON := flag.String("bench-json", "", "run the perf kernel suite and write the JSON report to this path ('-' for stdout)")
	benchDiff := flag.Bool("bench-diff", false, "compare two bench reports: dshbench -bench-diff OLD.json NEW.json (exit 1 on regression)")
	benchTol := flag.Float64("bench-tolerance", 0.3, "relative ns/op slowdown tolerated by -bench-diff")
	benchStrict := flag.Bool("strict", false, "with -bench-diff: also fail on allocs/op, events/op, or heap budget violations in the new report")
	tracePath := flag.String("trace", "", "with the capture subcommand: write the .dshtrace packet trace to this path")
	version := flag.Bool("version", false, "print the build-info code version (the one baked into dshserve cache keys) and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (at exit) to this path")
	flag.Usage = usage
	flag.Parse()
	if *version {
		fmt.Println(serve.CodeVersion())
		return
	}
	for _, bad := range []struct {
		name string
		neg  bool
	}{
		{"-workers", *workers < 0},
		{"-lp-workers", *lpWorkers < 0},
		{"-seed", *seed < 0},
	} {
		if bad.neg {
			fmt.Fprintf(os.Stderr, "dshbench: %s must be non-negative\n\n", bad.name)
			usage()
			os.Exit(2)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "bench-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchDiff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench-diff: want exactly two report paths (old new)")
			os.Exit(2)
		}
		ok, err := runBenchDiff(flag.Arg(0), flag.Arg(1), *benchTol, *benchStrict)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-diff: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		switch flag.Arg(0) {
		case "capture":
			if flag.NArg() != 2 || *tracePath == "" {
				fmt.Fprintln(os.Stderr, "capture: want dshbench -trace FILE capture <scenario>")
				fmt.Fprintf(os.Stderr, "scenarios: %s\n", strings.Join(dshsim.TraceScenarios(), ", "))
				os.Exit(2)
			}
			if err := runCapture(flag.Arg(1), *seed, *tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "capture: %v\n", err)
				os.Exit(1)
			}
			return
		case "replay":
			if flag.NArg() != 2 {
				fmt.Fprintln(os.Stderr, "replay: want dshbench replay <file.dshtrace>")
				os.Exit(2)
			}
			if err := runReplay(flag.Arg(1)); err != nil {
				fmt.Fprintf(os.Stderr, "replay: %v\n", err)
				os.Exit(1)
			}
			return
		}
	}
	if *tracePath != "" {
		fmt.Fprintln(os.Stderr, "dshbench: -trace only applies to the capture subcommand")
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}

	opt := dshsim.ExpOptions{Full: *full, Seed: *seed, Workers: *workers, LPWorkers: *lpWorkers, Fidelity: *fidelity}
	if !*quiet {
		// One mutex serialises result lines and progress lines: with
		// -workers > 1 the progress callback fires from worker goroutines.
		var mu sync.Mutex
		opt.Log = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
		opt.Progress = func(p dshsim.SweepProgress) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "# %s: %d/%d jobs done (%v elapsed, ~%v left) — %s\n",
				p.Experiment, p.Done, p.Total,
				p.Elapsed.Round(time.Millisecond), p.Remaining.Round(time.Millisecond), p.Job)
		}
		fmt.Fprintf(os.Stderr, "# workers: %d\n", dshsim.ResolveWorkers(*workers))
		if *lpWorkers > 0 {
			fmt.Fprintf(os.Stderr, "# lp-workers: %d\n", *lpWorkers)
		}
	}

	experiments := map[string]func(dshsim.ExpOptions){
		"fig4":     runFig4,
		"fig5":     runFig5,
		"fig6":     runFig6,
		"fig11":    runFig11,
		"fig12":    runFig12,
		"fig13":    runFig13,
		"fig14":    runFig14,
		"fig15":    runFig15,
		"theorem":  runTheorem,
		"fig10":    runFig10,
		"ablation": runAblation,
		"faults":   func(opt dshsim.ExpOptions) { runFaults(opt, *faultsSpec) },
		"scale":    runScale,
	}
	name := flag.Arg(0)
	if *faultsSpec != "" && name != "faults" && name != "all" {
		fmt.Fprintf(os.Stderr, "dshbench: -faults only applies to the faults experiment\n\n")
		usage()
		os.Exit(2)
	}
	if *fidelity != "" {
		if !dshsim.ValidFidelity(*fidelity) {
			fmt.Fprintf(os.Stderr, "dshbench: unknown fidelity %q (want packet, flow, or hybrid)\n\n", *fidelity)
			usage()
			os.Exit(2)
		}
		if name != "scale" && name != "all" {
			fmt.Fprintf(os.Stderr, "dshbench: -fidelity only applies to the scale experiment\n\n")
			usage()
			os.Exit(2)
		}
	}
	if *jsonOut {
		// The canonical JSON path is serve.Execute — the exact function the
		// dshserve workers run — so this output is byte-identical to the
		// server's /results body for the same spec.
		if name == "all" {
			fmt.Fprintln(os.Stderr, "dshbench: -json takes a single experiment family, not 'all'")
			os.Exit(2)
		}
		if !dshsim.IsFamily(name) {
			fmt.Fprintf(os.Stderr, "dshbench: unknown experiment %q\n\n", name)
			usage()
			os.Exit(2)
		}
		sp := serve.Spec{Family: name, Full: *full, Seed: *seed, Workers: *workers, LPWorkers: *lpWorkers, Fidelity: *fidelity}
		if *faultsSpec != "" {
			sc, err := dshsim.ParseFaultScenario(*faultsSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dshbench: faults: %v\n", err)
				os.Exit(1)
			}
			sp.Faults = &sc
		}
		data, err := serve.Execute(sp, serve.CodeVersion(), opt.Progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshbench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	if name == "all" {
		for _, n := range []string{"fig4", "theorem", "fig10", "fig11", "fig13", "fig6", "fig5", "fig12", "fig14", "fig15", "ablation", "faults", "scale"} {
			runOne(n, experiments[n], opt)
		}
		return
	}
	fn, ok := experiments[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		usage()
		os.Exit(2)
	}
	runOne(name, fn, opt)
}

// runBenchJSON runs the perf kernel suite (dshsim/benchkit) and writes the
// schema-stable report CI trends across PRs.
func runBenchJSON(path string) error {
	rep := benchkit.Collect()
	if path == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBenchDiff compares two bench reports and prints the table; it returns
// false when any kernel regressed beyond the tolerance or, with strict set,
// when the new report violates its own checked-in alloc/event/heap budgets
// or dropped a kernel the baseline still carries.
func runBenchDiff(oldPath, newPath string, tol float64, strict bool) (bool, error) {
	load := func(path string) (benchkit.Report, error) {
		f, err := os.Open(path)
		if err != nil {
			return benchkit.Report{}, err
		}
		defer f.Close()
		return benchkit.ReadReport(f)
	}
	oldR, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newR, err := load(newPath)
	if err != nil {
		return false, err
	}
	lines := benchkit.Diff(oldR, newR, tol)
	fmt.Printf("bench-diff %s → %s (tolerance %.0f%%)\n", oldPath, newPath, 100*tol)
	fmt.Print(benchkit.FormatDiff(oldR, newR, lines, tol))
	ok := len(benchkit.Regressions(lines)) == 0
	if strict {
		// Budgets travel inside the report, so strict mode re-validates the
		// new side: a report generated before a budget regression slipped in
		// would pass WriteJSON but must still fail the gate here.
		if err := newR.Validate(); err != nil {
			fmt.Printf("strict: new report violates budgets: %v\n", err)
			ok = false
		}
		// A kernel present in the baseline but gone from the candidate took
		// its budgets with it — a gate that silently stopped running. Strict
		// mode fails on that; removing a kernel requires refreshing the
		// committed baseline in the same change.
		for _, name := range benchkit.MissingFromNew(lines) {
			fmt.Printf("strict: kernel %s is in the baseline but missing from the candidate report — its budgets are no longer enforced\n", name)
			ok = false
		}
		// A single-core runner cannot measure parallel speedup, so the
		// ≥1.8x lp_speedup floor is not attached there. Passing silently
		// would look like the floor held; say out loud that it never ran.
		for _, note := range benchkit.UngatedNotes(newR) {
			fmt.Printf("strict: %s\n", note)
		}
	}
	return ok, nil
}

// runCapture records the named scenario as a packed .dshtrace file. The
// file is an io.WriteSeeker, so the header's frame count is patched in on
// close — readers of a complete capture can detect truncation exactly.
func runCapture(scenario string, seed int64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	frames, err := dshsim.CaptureTrace(scenario, seed, f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("captured %d frames of scenario %q (seed %d) to %s\n", frames, scenario, seed, path)
	return nil
}

// runReplay re-runs the scenario named in the trace header and verifies
// the live run reproduces the captured stream bit for bit.
func runReplay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := dshsim.ReplayTrace(f)
	if err != nil {
		return err
	}
	fmt.Printf("replayed scenario %q (seed %d): %d frames bit-identical\n", rep.Scenario, rep.Seed, rep.Frames)
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `dshbench regenerates the DSH paper's evaluation figures.

usage: dshbench [-full] [-seed N] [-workers N] [-lp-workers N] [-quiet]
                [-faults spec.json] [-cpuprofile F] [-memprofile F] <experiment>
       dshbench -json <experiment>   print the canonical result JSON (the
                                     dshserve result format; byte-identical
                                     to the server's /results body)
       dshbench -bench-json <path>   run the perf kernels, write a JSON report
       dshbench -bench-diff [-bench-tolerance T] [-strict] <old.json> <new.json>
                                     compare two reports, exit 1 on ns/op
                                     regression (-strict also enforces the
                                     new report's alloc/event/heap budgets)
       dshbench -trace F [-seed N] capture <scenario>
                                     record a packed .dshtrace of a named
                                     scenario (fig11point, forwarding, incast)
       dshbench replay <file.dshtrace>
                                     re-run the captured scenario and verify
                                     every departure is bit-identical; exit 1
                                     with the first divergent frame otherwise
       dshbench -version             print the build-info code version

experiments:
  fig4     Broadcom chip buffer/headroom trends (table)
  fig5     average FCT vs switch buffer size (SIH, PowerTCP, web search)
  fig6     headroom utilization CDF at local maxima (SIH, DCQCN)
  fig11    PFC avoidance: pause duration vs burst size (DSH vs SIH)
  fig12    deadlock avoidance: onset CDF over repeated runs
  fig13    collateral damage: innocent-flow goodput time series
  fig14    FCT vs background load, DCQCN & PowerTCP (DSH/SIH normalized)
  fig15    FCT across workloads and topologies (DCQCN)
  theorem  Theorem 1/2 burst-absorption bounds vs fluid model
  fig10    queue/threshold evolution of the burst-absorption analysis
  ablation design-choice ablations (insurance headroom, DT α, queue count)
  faults   fault-injection sweep: DSH vs SIH under link flaps, pause storms,
           slow NICs, latency skew, and routing loops (-faults F replaces the
           built-in classes with a scenario JSON)
  scale    FCT distributions at 10⁴→10⁶ flows, DSH vs SIH (-fidelity selects
           packet, flow, or hybrid granularity; flow is the default and the
           only one that reaches 10⁶ flows in reasonable time)
  all      everything above
`)
}

func runOne(name string, fn func(dshsim.ExpOptions), opt dshsim.ExpOptions) {
	start := time.Now()
	fmt.Printf("==== %s ====\n", name)
	fn(opt)
	fmt.Printf("---- %s done in %v ----\n\n", name, time.Since(start).Round(time.Millisecond))
}

func runFig4(opt dshsim.ExpOptions) {
	fmt.Printf("%-10s %5s %10s %8s %14s %12s %9s\n",
		"chip", "year", "capacity", "buffer", "buffer/capac.", "headroom", "fraction")
	for _, r := range dshsim.Fig4(opt) {
		fmt.Printf("%-10s %5d %10v %8v %14v %12v %8.1f%%\n",
			r.Chip, r.Year, r.Capacity, r.Buffer, r.BufferPerCapacity,
			r.HeadroomSize, 100*r.HeadroomFraction)
	}
}

func runFig5(opt dshsim.ExpOptions) {
	rows := dshsim.Fig5(opt)
	fmt.Printf("%-10s %12s %10s %12s %10s\n", "buffer", "avg FCT", "vs widest", "p99 FCT", "pauses")
	base := rows[len(rows)-1].AvgFCT
	for _, r := range rows {
		fmt.Printf("%-10v %12v %+9.1f%% %12v %10d\n", r.Buffer, r.AvgFCT,
			100*(float64(r.AvgFCT)/float64(base)-1), r.P99FCT, r.PauseFrames)
	}
}

func runFig6(opt dshsim.ExpOptions) {
	res := dshsim.Fig6(opt)
	cdf := res.Utilization
	fmt.Printf("headroom-utilization local maxima: %d samples\n", cdf.Len())
	for _, p := range []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		fmt.Printf("  p%-4g %6.2f%%\n", p*100, 100*cdf.Quantile(p))
	}
}

func runFig11(opt dshsim.ExpOptions) {
	fmt.Printf("%-12s %14s %14s\n", "burst(%buf)", "SIH paused", "DSH paused")
	for _, r := range dshsim.Fig11(opt) {
		fmt.Printf("%-12d %14v %14v\n", r.BurstPct, r.SIHPaused, r.DSHPaused)
	}
}

func runFig12(opt dshsim.ExpOptions) {
	fmt.Printf("%-6s %-9s %10s %12s %12s\n", "scheme", "cc", "deadlocks", "median onset", "p90 onset")
	for _, r := range dshsim.Fig12(opt) {
		med, p90 := "-", "-"
		if len(r.Onsets) > 0 {
			vals := make([]float64, len(r.Onsets))
			for i, o := range r.Onsets {
				vals[i] = o.Milliseconds()
			}
			cdf := dshsim.NewCDF(vals)
			med = fmt.Sprintf("%.2fms", cdf.Quantile(0.5))
			p90 = fmt.Sprintf("%.2fms", cdf.Quantile(0.9))
		}
		fmt.Printf("%-6s %-9s %6d/%-3d %12s %12s\n",
			r.Scheme, r.Transport, r.Deadlocks, r.Runs, med, p90)
	}
}

func runFig13(opt dshsim.ExpOptions) {
	rows := dshsim.Fig13(opt)
	for _, r := range rows {
		fmt.Printf("%s/%s: burst at %v, min F0 goodput after burst %v\n",
			r.Scheme, r.Transport, r.BurstAt, r.MinDuringBurst())
	}
	fmt.Println("\nF0 goodput series (Gbps per 10us bin, from 100us before burst):")
	for _, r := range rows {
		start := int(r.BurstAt/r.Bin) - 10
		if start < 0 {
			start = 0
		}
		fmt.Printf("%3s/%-9s", r.Scheme, r.Transport)
		for i := start; i < len(r.Series) && i < start+60; i += 4 {
			fmt.Printf(" %5.1f", float64(r.Series[i])/float64(units.Gbps))
		}
		fmt.Println()
	}
}

func runFig14(opt dshsim.ExpOptions) {
	for _, row := range dshsim.Fig14(opt) {
		fmt.Printf("[%s]\n", row.Transport)
		fmt.Printf("  %-8s %12s %12s %12s %12s\n", "bg load", "bg DSH/SIH", "fanin D/S", "SIH bg FCT", "DSH bg FCT")
		for _, p := range row.Points {
			fmt.Printf("  %-8.1f %12.3f %12.3f %12v %12v\n",
				p.BgLoad, p.NormBg(), p.NormFanin(), p.SIHBg, p.DSHBg)
		}
	}
}

func runFig15(opt dshsim.ExpOptions) {
	for _, row := range dshsim.Fig15(opt) {
		fmt.Printf("[%s on %s]\n", row.Name, row.Topology)
		fmt.Printf("  %-8s %12s %12s\n", "bg load", "bg DSH/SIH", "fanin D/S")
		for _, p := range row.Points {
			fmt.Printf("  %-8.1f %12.3f %12.3f\n", p.BgLoad, p.NormBg(), p.NormFanin())
		}
	}
}

func runFig10(opt dshsim.ExpOptions) {
	for _, series := range dshsim.Fig10(opt) {
		fmt.Printf("[%s, R=%.1f] pause at %.0f normalized bytes\n", series.Scheme, series.R, series.PauseAt)
		fmt.Printf("  %-12s %12s %12s %12s %12s\n", "t(bytes)", "T(t)", "Xoff(t)", "q_congested", "q_burst")
		pts := series.Points
		stride := len(pts) / 8
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < len(pts); i += stride {
			p := pts[i]
			fmt.Printf("  %-12.0f %12.0f %12.0f %12.0f %12.0f\n", p.T, p.Threshold, p.XOff, p.QCongested, p.QBurst)
		}
	}
}

func runAblation(opt dshsim.ExpOptions) {
	fmt.Println("insurance headroom (losslessness under shared-buffer exhaustion):")
	fmt.Printf("  %-12s %8s %8s %10s\n", "variant", "drops", "pauses", "completed")
	for _, r := range dshsim.AblationInsurance(opt) {
		fmt.Printf("  %-12s %8d %8d %10d\n", r.Variant, r.Drops, r.PauseFrames, r.Completed)
	}
	fmt.Println("\nDT alpha sweep (largest pause-free burst, % of buffer):")
	fmt.Printf("  %-8s %10s %10s\n", "alpha", "SIH", "DSH")
	for _, r := range dshsim.AblationAlpha(opt) {
		fmt.Printf("  %-8.4f %9d%% %9d%%\n", r.Alpha, r.SIHMaxPct, r.DSHMaxPct)
	}
	fmt.Println("\nqueue-count scalability (largest pause-free burst, % of buffer):")
	fmt.Printf("  %-8s %10s %10s\n", "classes", "SIH", "DSH")
	for _, r := range dshsim.AblationQueueCount(opt) {
		fmt.Printf("  %-8d %9d%% %9d%%\n", r.Classes, r.SIHMaxPct, r.DSHMaxPct)
	}
}

func runFaults(opt dshsim.ExpOptions, specPath string) {
	var rows []dshsim.FaultsRow
	if specPath != "" {
		sc, err := dshsim.ParseFaultScenario(specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(1)
		}
		rows = dshsim.FaultsWith(opt, &sc)
	} else {
		rows = dshsim.Faults(opt)
	}
	fmt.Printf("%-9s %-6s %12s %12s %12s %6s %9s %9s %8s %10s\n",
		"fault", "scheme", "avg bg FCT", "p99 bg FCT", "avg fanin", "unfin", "drops", "wiredrops", "deadlock", "onset")
	for _, r := range rows {
		onset := "-"
		if r.Onset >= 0 {
			onset = fmt.Sprintf("%.2fms", r.Onset.Milliseconds())
		}
		fmt.Printf("%-9s %-6s %12v %12v %12v %6d %9d %9d %8v %10s\n",
			r.Fault, r.Scheme, r.AvgBgFCT, r.P99BgFCT, r.AvgFaninFCT,
			r.Unfinished, r.Drops, r.WireDrops, r.Deadlocked, onset)
	}
}

func runScale(opt dshsim.ExpOptions) {
	rows := dshsim.Scale(opt)
	fmt.Printf("%-9s %-8s %10s %6s | %12s %12s %12s | %12s %12s %12s\n",
		"target", "fidelity", "flows", "unfin",
		"SIH p50", "SIH p99", "SIH paused", "DSH p50", "DSH p99", "DSH paused")
	for _, r := range rows {
		fmt.Printf("%-9d %-8s %10d %6d | %12v %12v %12v | %12v %12v %12v\n",
			r.TargetFlows, r.Fidelity, r.Flows, r.SIH.Unfinished+r.DSH.Unfinished,
			r.SIH.P50, r.SIH.P99, r.SIH.PausedTime,
			r.DSH.P50, r.DSH.P99, r.DSH.PausedTime)
	}
}

func runTheorem(opt dshsim.ExpOptions) {
	fmt.Printf("%-6s %12s %12s %12s %12s %8s\n",
		"R", "DSH bound", "SIH bound", "DSH fluid", "SIH fluid", "gain")
	for _, r := range dshsim.Theorem(opt) {
		fmt.Printf("%-6.1f %12v %12v %12v %12v %7.2fx\n",
			r.R, r.DSHBound, r.SIHBound, r.DSHFluid, r.SIHFluid, r.Gain)
	}
}
