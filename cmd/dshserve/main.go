// Command dshserve is the sweep service: a long-running, cache-backed
// job-queue server over the dshsim experiment families. Clients POST
// experiment specs to /jobs; the server schedules them on the existing
// sweep executor and content-addresses the results, so a repeated or
// overlapping sweep is a cache hit served from memory or disk instead of
// a re-run. Results are byte-identical to `dshbench -json` for the same
// spec.
//
// Endpoints:
//
//	POST /jobs            submit a spec {"family":"fig11","seed":1,...}
//	GET  /jobs/{key}      job status + sweep progress
//	GET  /results/{key}   canonical result JSON
//	GET  /healthz         liveness + drain flag
//	GET  /metrics         Prometheus text (queue depth, cache hits, ...)
//	GET  /families        registered experiment families
//
// On SIGTERM/SIGINT the server drains: it stops accepting jobs, finishes
// the running ones, checkpoints the still-queued backlog to
// <data-dir>/queue.json, and exits 0. A restart resumes the checkpoint,
// skipping any job whose result landed in the cache meanwhile.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dsh/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts driving a random port)")
	dataDir := flag.String("data-dir", "dshserve-data", "root of the result store and queue checkpoint")
	jobWorkers := flag.Int("job-workers", 1, "jobs executed concurrently (each job is a sweep that fans out on its own)")
	queueCap := flag.Int("queue-cap", 256, "accepted-but-not-running backlog bound")
	memCache := flag.Int("mem-cache", 128, "results held in the in-memory LRU front")
	version := flag.Bool("version", false, "print the build-info code version (the one baked into result cache keys) and exit")
	flag.Parse()
	if *version {
		fmt.Println(serve.CodeVersion())
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "dshserve: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		DataDir:         *dataDir,
		JobWorkers:      *jobWorkers,
		QueueCap:        *queueCap,
		MemCacheEntries: *memCache,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dshserve: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dshserve: listen: %v\n", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	fmt.Printf("dshserve: listening on http://%s (version %s, data %s)\n", bound, srv.Version(), *dataDir)
	if *addrFile != "" {
		// Write-then-rename so a watcher never reads a half-written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err == nil {
			err = os.Rename(tmp, *addrFile)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshserve: addr-file: %v\n", err)
			os.Exit(1)
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "dshserve: serve: %v\n", err)
		os.Exit(1)
	}

	// Drain: refuse new jobs, finish running ones, checkpoint the backlog.
	fmt.Println("dshserve: draining (finishing running jobs, checkpointing the queue)")
	n, err := srv.Drain()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dshserve: drain: %v\n", err)
		os.Exit(1)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dshserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("dshserve: drained cleanly, %d job(s) checkpointed\n", n)
}
