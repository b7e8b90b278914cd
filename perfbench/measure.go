package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(float64(len(s))*p+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// span is one timed call from the benchmark into a layer. Spans of one
// repetition share Rep; Parent links a call to the span that caused it
// (0 = a root).
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Rep    int           `json:"rep"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are aggregated into per-layer metrics
// and written out when the run ends. A nil *tracer records nothing, which
// is how untraced repetitions run.
type tracer struct {
	t0  time.Time
	rep int

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Rep: t.rep, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the closed spans named name, grouped by repetition.
func (t *tracer) durations(name string) map[int][]time.Duration {
	out := map[int][]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out[s.Rep] = append(out[s.Rep], s.End-s.Start)
		}
	}
	return out
}

// perRepSumS is the median over repetitions of the summed span time, in s.
func (t *tracer) perRepSumS(name string) float64 {
	var sums []float64
	for _, ds := range t.durations(name) {
		var s time.Duration
		for _, d := range ds {
			s += d
		}
		sums = append(sums, s.Seconds())
	}
	return median(sums)
}

// medianMS is the median single span, in ms.
func (t *tracer) medianMS(name string) float64 {
	var all []float64
	for _, ds := range t.durations(name) {
		all = append(all, msAll(ds)...)
	}
	return median(all)
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostInfo fingerprints the host and code a record was measured on, so
// medians are never compared across machines or commits.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	// SourceSHA256 hashes the simulator's sources (every .go file and
	// go.mod of the module under test): the code identity when the
	// checkout carries no VCS metadata.
	SourceSHA256 string `json:"source_sha256"`
}

func fingerprint(root string) hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	h.SourceSHA256 = sourceHash(root)
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests go.mod and every .go file of the module rooted at
// root, skipping this benchmark's directory and build output.
func sourceHash(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == benchDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(sum, "%s %d\n", filepath.ToSlash(rel), len(data))
		sum.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// cpuShares aggregates flat CPU-profile samples by the package of the leaf
// frame, using `go tool pprof -top` over all profiles at once. Keys are the
// layer names of perLayer ("eport", "runtime", ...); packages outside the
// simulator and the runtime are left out, so shares need not sum to 1.
func cpuShares(profiles []string) (map[string]float64, error) {
	if len(profiles) == 0 {
		return map[string]float64{}, nil
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000"}, profiles...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parsePprofTop(out), nil
}

// parsePprofTop reads `pprof -top` rows ("flat flat% sum% cum cum% name").
func parsePprofTop(out []byte) map[string]float64 {
	shares := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		if layer := layerOf(strings.Join(f[5:], " ")); layer != "" {
			shares[layer] += pct / 100
		}
	}
	return shares
}

// layerOf maps a fully qualified function name to its layer: the internal
// package of the module under test (transport subpackages fold into
// transport), or "runtime" for the Go runtime.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "dsh/internal/transport"):
		return "transport"
	case strings.HasPrefix(pkg, "dsh/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "dsh/internal/"), "/", 2)[0]
	}
	return ""
}
