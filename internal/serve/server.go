package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dsh/dshsim"
)

// CheckpointSchema versions the drained-queue file format.
const CheckpointSchema = "dshserve-queue/v1"

// Config sizes a Server.
type Config struct {
	// DataDir roots the on-disk state: results/ (the content-addressed
	// store) and queue.json (the drain checkpoint). Default "dshserve-data".
	DataDir string
	// JobWorkers is the number of jobs executed concurrently (each job is
	// itself a sweep that fans out over Spec.Workers). Default 1: sweeps
	// already saturate the machine, so running jobs serially maximizes
	// per-job throughput and keeps progress monotone.
	JobWorkers int
	// QueueCap bounds the accepted-but-not-running backlog; a full queue
	// rejects submissions with 429 rather than buffering unboundedly.
	// Default 256.
	QueueCap int
	// MemCacheEntries bounds the in-memory LRU front (default 128).
	MemCacheEntries int
	// Version overrides the code version baked into content keys; empty
	// means CodeVersion(). Tests pin it so keys are reproducible.
	Version string
	// RunFunc overrides the job executor (tests count or gate executions);
	// nil means Execute.
	RunFunc func(sp Spec, codeVersion string, progress func(dshsim.SweepProgress)) ([]byte, error)
}

// jobState is the lifecycle of a submitted job.
type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

// job is one queued/running/finished submission, keyed by content key (so
// identical specs dedupe onto a single job object).
type job struct {
	key  string
	spec Spec

	mu        sync.Mutex
	state     jobState
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	progDone  int
	progTotal int
	progLast  string
}

func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		Key:    j.key,
		Family: j.spec.Family,
		Status: string(j.state),
		Error:  j.err,
	}
	if j.state == jobDone {
		st.Result = "/results/" + j.key
	}
	if j.progTotal > 0 {
		st.Progress = &progressStatus{Done: j.progDone, Total: j.progTotal, LastJob: j.progLast}
	}
	switch j.state {
	case jobRunning:
		st.ElapsedMS = time.Since(j.started).Milliseconds()
	case jobDone, jobFailed:
		st.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	}
	return st
}

// jobStatus is the wire form of a job (POST /jobs and GET /jobs/{key}).
type jobStatus struct {
	Key    string `json:"key"`
	Family string `json:"family"`
	Status string `json:"status"`
	// Cached is set on submissions answered straight from the cache
	// without enqueueing anything.
	Cached    bool            `json:"cached,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    string          `json:"result,omitempty"`
	Progress  *progressStatus `json:"progress,omitempty"`
	ElapsedMS int64           `json:"elapsedMs,omitempty"`
}

type progressStatus struct {
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	LastJob string `json:"lastJob,omitempty"`
}

// checkpointFile is the drained-queue format: the specs that were accepted
// but not finished when the server drained. Results already computed live
// in the content-addressed store, so the checkpoint never carries them.
type checkpointFile struct {
	Schema string `json:"schema"`
	Jobs   []Spec `json:"jobs"`
}

// Server is the sweep service: a bounded job queue in front of the dshsim
// sweep executor, a content-addressed result cache, and the HTTP surface.
type Server struct {
	cfg     Config
	version string
	cache   *Cache
	metrics *Metrics
	run     func(sp Spec, codeVersion string, progress func(dshsim.SweepProgress)) ([]byte, error)

	mu   sync.Mutex
	jobs map[string]*job

	queue    chan *job
	stop     chan struct{} // closed by Drain: workers exit after their current job
	wg       sync.WaitGroup
	draining bool // guarded by mu; POST rejects once set
	drained  chan struct{}
}

// New builds a Server, restores any drain checkpoint left in DataDir
// (re-enqueueing every checkpointed spec whose result is still uncached),
// and starts the job workers.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		cfg.DataDir = "dshserve-data"
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	cache, err := NewCache(filepath.Join(cfg.DataDir, "results"), cfg.MemCacheEntries)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		version: cfg.Version,
		cache:   cache,
		metrics: NewMetrics(),
		run:     cfg.RunFunc,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, cfg.QueueCap),
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	if s.version == "" {
		s.version = CodeVersion()
	}
	if s.run == nil {
		s.run = Execute
	}
	if err := s.resume(); err != nil {
		return nil, err
	}
	for w := 0; w < cfg.JobWorkers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics exposes the counter set (smoke tests assert on it directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Version returns the code version baked into this server's content keys.
func (s *Server) Version() string { return s.version }

// checkpointPath is the drained-queue file inside DataDir.
func (s *Server) checkpointPath() string { return filepath.Join(s.cfg.DataDir, "queue.json") }

// resume loads a drain checkpoint, if present, and re-enqueues every spec
// whose result is not already in the cache (a spec that completed between
// checkpointing and the crash/restart is deduped by its content key — the
// "computed once" guarantee survives restarts). The file is removed after
// a successful load; Drain rewrites it.
func (s *Server) resume() error {
	data, err := os.ReadFile(s.checkpointPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: read checkpoint: %w", err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("serve: parse checkpoint %s: %w", s.checkpointPath(), err)
	}
	if cp.Schema != CheckpointSchema {
		return fmt.Errorf("serve: checkpoint schema %q, want %q", cp.Schema, CheckpointSchema)
	}
	for _, sp := range cp.Jobs {
		sp = sp.Normalized()
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("serve: checkpointed spec invalid: %w", err)
		}
		key := sp.Key(s.version)
		if s.cache.Has(key) {
			continue // finished before the restart; nothing to redo
		}
		if _, ok := s.jobs[key]; ok {
			continue // duplicate inside the checkpoint itself
		}
		j := &job{key: key, spec: sp, state: jobQueued, submitted: time.Now()}
		select {
		case s.queue <- j:
			s.jobs[key] = j
			s.metrics.resumed.Add(1)
			s.metrics.queueDepth.Add(1)
		default:
			return fmt.Errorf("serve: checkpoint holds more jobs than QueueCap=%d", s.cfg.QueueCap)
		}
	}
	return os.Remove(s.checkpointPath())
}

// worker executes queued jobs until Drain. The non-blocking stop check
// runs first so a drain with a backlog checkpoints the backlog instead of
// racing the workers for it.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.metrics.queueDepth.Add(-1)
			s.exec(j)
		}
	}
}

// exec runs one job and stores its result.
func (s *Server) exec(j *job) {
	j.mu.Lock()
	j.state = jobRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)

	data, err := s.run(j.spec, s.version, func(p dshsim.SweepProgress) {
		j.mu.Lock()
		j.progDone, j.progTotal, j.progLast = p.Done, p.Total, p.Job
		j.mu.Unlock()
	})
	if err == nil {
		err = s.cache.Put(j.key, data)
	}
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = jobFailed
		j.err = err.Error()
	} else {
		j.state = jobDone
	}
	elapsed := j.finished.Sub(j.started).Seconds()
	family := j.spec.Family
	j.mu.Unlock()
	if err != nil {
		s.metrics.completedErr.Add(1)
	} else {
		s.metrics.completedOK.Add(1)
	}
	s.metrics.ObserveJob(family, elapsed)
}

// Drain stops the intake, lets running jobs finish, checkpoints the
// still-queued backlog to DataDir/queue.json, and returns the number of
// checkpointed jobs. It is idempotent; the first call wins. The server
// keeps answering reads (GET endpoints) during and after a drain — only
// POST /jobs is refused.
func (s *Server) Drain() (int, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.drained
		return 0, nil
	}
	s.draining = true
	s.mu.Unlock()
	defer close(s.drained)

	close(s.stop)
	s.wg.Wait()

	var pending []Spec
	for {
		select {
		case j := <-s.queue:
			s.metrics.queueDepth.Add(-1)
			pending = append(pending, j.spec)
		default:
			cp := checkpointFile{Schema: CheckpointSchema, Jobs: pending}
			data, err := json.MarshalIndent(cp, "", "  ")
			if err != nil {
				return 0, fmt.Errorf("serve: encode checkpoint: %w", err)
			}
			data = append(data, '\n')
			tmp := s.checkpointPath() + ".tmp"
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				return 0, fmt.Errorf("serve: write checkpoint: %w", err)
			}
			if err := os.Rename(tmp, s.checkpointPath()); err != nil {
				return 0, fmt.Errorf("serve: write checkpoint: %w", err)
			}
			return len(pending), nil
		}
	}
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{key}", s.handleJob)
	mux.HandleFunc("GET /results/{key}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /families", s.handleFamilies)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /jobs: parse, normalize, key, then (in order)
// answer from cache, dedupe onto a live job, or enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	sp, err := ParseSpec(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp = sp.Normalized()
	if err := sp.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := sp.Key(s.version)

	// Cache first: a repeated sweep never touches the queue.
	if _, tier, ok := s.cache.Get(key); ok {
		s.metrics.submitted.Add(1)
		s.metrics.CacheHit(tier)
		writeJSON(w, http.StatusOK, jobStatus{
			Key: key, Family: sp.Family, Status: string(jobDone),
			Cached: true, Result: "/results/" + key,
		})
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining; job not accepted")
		return
	}
	if j, ok := s.jobs[key]; ok {
		st := j.snapshot()
		if st.Status != string(jobFailed) {
			s.mu.Unlock()
			s.metrics.submitted.Add(1)
			s.metrics.deduped.Add(1)
			writeJSON(w, http.StatusOK, st)
			return
		}
		// A failed job may be resubmitted: fall through to re-enqueue the
		// same job object (its key has not changed).
		delete(s.jobs, key)
	}
	j := &job{key: key, spec: sp, state: jobQueued, submitted: time.Now()}
	select {
	case s.queue <- j:
		s.jobs[key] = j
		s.mu.Unlock()
		s.metrics.submitted.Add(1)
		s.metrics.misses.Add(1)
		s.metrics.queueDepth.Add(1)
		writeJSON(w, http.StatusAccepted, j.snapshot())
	default:
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests, "queue full (cap %d)", s.cfg.QueueCap)
	}
}

// handleJob is GET /jobs/{key}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.mu.Lock()
	j, ok := s.jobs[key]
	s.mu.Unlock()
	if ok {
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	// Results can outlive job records (e.g. computed before a restart):
	// a cached key is a done job as far as clients are concerned.
	if s.cache.Has(key) {
		writeJSON(w, http.StatusOK, jobStatus{
			Key: key, Status: string(jobDone), Cached: true, Result: "/results/" + key,
		})
		return
	}
	writeError(w, http.StatusNotFound, "unknown job %q", key)
}

// handleResult is GET /results/{key}: the canonical result bytes.
// ?format=json is accepted as an explicit spelling of the default; any
// other format is a 400.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if format := r.URL.Query().Get("format"); format != "" && format != "json" {
		writeError(w, http.StatusBadRequest, "unknown format %q (want json)", format)
		return
	}
	data, tier, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no result for key %q", key)
		return
	}
	s.metrics.CacheHit(tier)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-DSH-Cache", tier)
	w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": draining,
		"version":  s.version,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}

func (s *Server) handleFamilies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"families": dshsim.Families()})
}
