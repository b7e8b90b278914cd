package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dsh/internal/serve"
)

// serveConfig sizes the serve workload: an in-process dshserve driven over
// loopback HTTP by a closed loop of clients, each waiting for its result
// before it submits again.
type serveConfig struct {
	clients int
	// iters is the number of cache-missing submissions per client per
	// repetition. After each one the client resubmits the same spec (a
	// memory-tier hit) and, from iteration lag on, the spec it computed lag
	// iterations earlier (a disk-tier hit).
	iters, lag int
	// memEntries is the server's in-memory LRU front. It is below the
	// number of distinct results, and lag ≥ memEntries: the client's own
	// lag newer results have evicted the old one by the time it asks again,
	// while the hot resubmission follows its miss within a few requests.
	memEntries int
	// checks is how many sampled specs are re-executed directly through
	// serve.Execute and compared with the server's bytes.
	checks int
}

// serveVersion pins the code version in content keys, so the keys and
// the result envelopes are identical across builds and repetitions.
const serveVersion = "perfbench"

type serveWorkload struct {
	cfg     serveConfig
	seed    int64
	scratch string
	reps    int

	mu sync.Mutex
	// results holds the bytes of every spec's first computation, keyed by
	// content key; later repetitions and hits are compared against them.
	results map[string][]byte
}

func newServe(cfg serveConfig, seed int64, scratch string) *serveWorkload {
	return &serveWorkload{cfg: cfg, seed: seed, scratch: scratch, results: map[string][]byte{}}
}

// spec is client c's i-th cache-missing submission: a scale-family sweep
// at flow fidelity with a seed of its own, run on one sweep worker.
func (w *serveWorkload) spec(c, i int) serve.Spec {
	return serve.Spec{Family: "scale", Fidelity: "flow", Seed: specSeed(w.seed, c, i), Workers: 1}
}

// specSeed derives a positive spec seed from the workload seed (splitmix64).
func specSeed(seed int64, c, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(c)<<32 + uint64(i) + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>24) + 1
}

// server is one running in-process dshserve on a loopback port.
type server struct {
	srv  *serve.Server
	http *http.Server
	base string
	dir  string
	done chan error
}

func startServer(dir string, memEntries int) (*server, error) {
	srv, err := serve.New(serve.Config{DataDir: dir, JobWorkers: 1, MemCacheEntries: memEntries, Version: serveVersion})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// The listen error is the one to report; the idle server drains
		// without error.
		_, _ = srv.Drain()
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, waits for Serve to return,
// drains the job queue and removes the server's data directory.
func (s *server) stop() error {
	err := s.http.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if _, derr := s.srv.Drain(); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *serveWorkload) rep(tr *tracer) repResult {
	var r repResult
	w.reps++
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.cfg.clients}, Timeout: time.Minute}
	defer client.CloseIdleConnections()

	t0 := time.Now()
	s, err := startServer(filepath.Join(w.scratch, fmt.Sprintf("serve-%d-rep%d", os.Getpid(), w.reps)), w.cfg.memEntries)
	if err == nil {
		err = waitHealthy(client, s.base)
	}
	r.setup = time.Since(t0)
	if err != nil {
		r.problems = append(r.problems, fmt.Sprintf("server start: %v", err))
		if s != nil {
			if serr := s.stop(); serr != nil {
				r.problems = append(r.problems, fmt.Sprintf("server stop: %v", serr))
			}
		}
		r.attempted, r.failed = 1, 1
		return r
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 = time.Now()
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := w.runClient(tr, client, s.base, c)
			mu.Lock()
			r.ops = append(r.ops, cl.ops...)
			r.hits = append(r.hits, cl.hits...)
			r.attempted += cl.attempted
			r.failed += cl.failed
			r.problems = append(r.problems, cl.problems...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(t0)

	r.counters, err = scrapeCounters(client, s.base)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		r.counters = map[string]float64{}
	}
	var size, n int
	for c := 0; c < w.cfg.clients; c++ {
		for i := 0; i < w.cfg.iters; i++ {
			if b, ok := w.result(w.spec(c, i).Normalized().Key(serveVersion)); ok {
				size += len(b)
				n++
			}
		}
	}
	if n > 0 {
		r.counters["serve.result_kb"] = float64(size) / float64(n) / 1024
	}
	if err := s.stop(); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("server stop: %v", err))
	}
	return r
}

func waitHealthy(client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// clientResult is one client's share of a repetition.
type clientResult struct {
	ops, hits         []time.Duration
	attempted, failed int
	problems          []string
}

// runClient is one closed-loop client.
func (w *serveWorkload) runClient(tr *tracer, client *http.Client, base string, c int) clientResult {
	var cr clientResult
	do := func(sp serve.Spec, miss bool) {
		cr.attempted++
		d, err := w.submit(tr, client, base, sp, miss)
		if err != nil {
			cr.failed++
			cr.problems = append(cr.problems, fmt.Sprintf("client %d seed %d: %v", c, sp.Seed, err))
			return
		}
		if miss {
			cr.ops = append(cr.ops, d)
		} else {
			cr.hits = append(cr.hits, d)
		}
	}
	for i := 0; i < w.cfg.iters; i++ {
		do(w.spec(c, i), true)
		do(w.spec(c, i), false)
		if i >= w.cfg.lag {
			do(w.spec(c, i-w.cfg.lag), false)
		}
	}
	return cr
}

// submit POSTs a spec, waits for its job when it was not cached, and
// fetches the result: the latency of one submission, from the POST to
// the last result byte. The result must be byte-identical to the spec's
// first computation.
func (w *serveWorkload) submit(tr *tracer, client *http.Client, base string, sp serve.Spec, miss bool) (time.Duration, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return 0, err
	}
	root := tr.start("serve.request", 0)
	defer tr.end(root)
	t0 := time.Now()

	id := tr.start("serve.submit_ms", root)
	var st struct {
		Key    string `json:"key"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
	}
	code, err := doJSON(client, http.MethodPost, base+"/jobs", body, &st)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return 0, fmt.Errorf("POST /jobs: status %d: %s", code, st.Error)
	}
	if miss == st.Cached {
		return 0, fmt.Errorf("POST /jobs: cached=%v, want %v", st.Cached, !miss)
	}

	if st.Status != "done" {
		id = tr.start("serve.wait_ms", root)
		for st.Status != "done" {
			if st.Status == "failed" {
				tr.end(id)
				return 0, fmt.Errorf("job failed: %s", st.Error)
			}
			time.Sleep(time.Millisecond)
			if code, err = doJSON(client, http.MethodGet, base+"/jobs/"+st.Key, nil, &st); err != nil || code != http.StatusOK {
				tr.end(id)
				return 0, fmt.Errorf("GET /jobs: status %d: %v", code, err)
			}
		}
		tr.end(id)
	}

	id = tr.start("serve.fetch_ms", root)
	resp, err := client.Get(base + "/results/" + st.Key)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /results: %s", resp.Status)
		}
	}
	tr.end(id)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if f := w.record(st.Key, data, miss); f != "" {
		return 0, errors.New(f)
	}
	return d, nil
}

// record keeps a spec's first result and checks every later one against it.
func (w *serveWorkload) record(key string, data []byte, miss bool) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.results[key]
	if !ok {
		w.results[key] = data
		return ""
	}
	what := "cache hit vs miss"
	if miss {
		what = "repetition vs first computation"
	}
	return checkBytes(what, first, data)
}

func (w *serveWorkload) result(key string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b, ok := w.results[key]
	return b, ok
}

func doJSON(client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// scrapeCounters reads the cache and queue counters from GET /metrics.
func scrapeCounters(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	names := map[string]string{
		"dshserve_cache_misses_total":              "serve.misses",
		`dshserve_cache_hits_total{tier="memory"}`: "serve.hits.mem",
		`dshserve_cache_hits_total{tier="disk"}`:   "serve.hits.disk",
		"dshserve_jobs_rejected_total":             "serve.rejected",
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if m, want := names[name]; want && ok {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("GET /metrics: %s: %w", name, err)
			}
			out[m] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if len(out) != len(names) {
		return nil, fmt.Errorf("GET /metrics: found %d of %d counters", len(out), len(names))
	}
	return out, nil
}

// finish compares sampled server results with a direct serve.Execute of
// the same spec (timed as serve.execute_ms), and, when traced, times the
// result cache's Put and a cold Get on a scratch store.
func (w *serveWorkload) finish(tr *tracer) (attempted, failed int, problems []string) {
	for n := 0; n < w.cfg.checks; n++ {
		// Spread the samples over clients and iterations.
		sp := w.spec(n%w.cfg.clients, (n*7)%w.cfg.iters).Normalized()
		key := sp.Key(serveVersion)
		attempted++
		id := tr.start("serve.execute_ms", 0)
		direct, err := serve.Execute(sp, serveVersion, nil)
		tr.end(id)
		got, ok := w.result(key)
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("serve.Execute seed %d: %v", sp.Seed, err))
		case !ok:
			problems = append(problems, fmt.Sprintf("seed %d: no server result to compare", sp.Seed))
		default:
			if f := checkBytes("server vs serve.Execute", direct, got); f != "" {
				problems = append(problems, f)
			} else {
				continue
			}
		}
		failed++
	}
	if tr != nil {
		if err := w.timeCache(tr); err != nil {
			problems = append(problems, err.Error())
		}
	}
	return attempted, failed, problems
}

// timeCache stores every result of the run in a scratch cache, then reads
// each back through a fresh Cache (empty memory front, so Get reads disk).
func (w *serveWorkload) timeCache(tr *tracer) error {
	dir := filepath.Join(w.scratch, fmt.Sprintf("cache-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	put, err := serve.NewCache(dir, w.cfg.memEntries)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for key, data := range w.results {
		id := tr.start("serve.cache_put_ms", 0)
		err := put.Put(key, data)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	get, err := serve.NewCache(dir, w.cfg.memEntries)
	if err != nil {
		return err
	}
	for key, data := range w.results {
		id := tr.start("serve.cache_get_ms", 0)
		got, _, ok := get.Get(key)
		tr.end(id)
		if !ok {
			return fmt.Errorf("scratch cache lost %s", key)
		}
		if f := checkBytes("scratch cache", data, got); f != "" {
			return errors.New(f)
		}
	}
	return nil
}
