// Command taserved serves the repository's whole analysis stack over HTTP:
// architecture descriptions (archcheck's JSON format) and timed-automata
// networks (tacheck's .ta format) are submitted as jobs, explored by the
// multi-query engine under a global CPU budget, and answered with the same
// wire types the CLIs' -json modes emit — bit-identical to a local run.
//
// Usage:
//
//	taserved [-addr host:port] [-cpu-tokens n] [-max-jobs n] [-keep-jobs n]
//	         [-deadline-ms n] [-memory-budget bytes] [-shutdown-timeout d]
//	         [-pprof-addr host:port]
//
// -pprof-addr (off by default) exposes net/http/pprof on a DEDICATED mux at
// a separate address, so live CPU/heap/goroutine profiles of a loaded server
// never share a listener with the public API; bind it to loopback.
//
// The binary is always a single node. The fleet backends
// (internal/serve/pubsub) run over an in-process broker only, so a fleet is
// formed by the program that creates its nodes — the tests,
// scripts/servesmoke -cluster and the benchmark — not by flags here.
//
// The server prints "taserved: listening on http://HOST:PORT" once ready
// (with -addr :0 the kernel picks the port; the line is the way to learn
// it). SIGINT/SIGTERM trigger a graceful shutdown: intake closes, every
// running job is cooperatively canceled mid-sweep (a client waiting on one
// reads "canceled"), the listener drains, and the process exits 0.
//
// See the README's "Serving API" section for the API and curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7420", "listen address (use :0 for a kernel-assigned port)")
		cpuTokens   = flag.Int("cpu-tokens", runtime.NumCPU(), "global admission budget: sweeps that run at once, one CPU token each (a breadth-first sweep past 1,024 expansions also runs its lookahead helper on a second core, without a second token, so a token costs up to two cores)")
		maxJobs     = flag.Int("max-jobs", 64, "max jobs queued or running; beyond it submissions get 429")
		keepJobs    = flag.Int("keep-jobs", 256, "finished jobs retained as the result cache (LRU)")
		deadlineMS  = flag.Int64("deadline-ms", 0, "default per-job wall-clock budget in ms (0 = unbounded)")
		shutTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "graceful shutdown drain budget")
		memBudget   = flag.Int64("memory-budget", 0, "global zone-memory budget in bytes; jobs hold a slice of it while running and fail alone past their grant (0 = unmetered)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	)
	flag.Parse()
	defaultDeadline, err := deadline(*deadlineMS)
	if err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		// A dedicated mux: the profiling endpoints never touch the API
		// handler, and registering them does not rely on the default mux.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		go func() {
			if err := http.Serve(pln, pm); err != nil {
				fmt.Fprintln(os.Stderr, "taserved: pprof:", err)
			}
		}()
		fmt.Printf("taserved: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	srv := serve.New(serve.Config{
		CPUTokens:       *cpuTokens,
		MaxActiveJobs:   *maxJobs,
		MaxFinishedJobs: *keepJobs,
		DefaultDeadline: defaultDeadline,
		MemoryBudget:    *memBudget,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Printf("taserved: listening on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case s := <-sig:
		fmt.Printf("taserved: %v, shutting down\n", s)
	}

	// Graceful shutdown, jobs first: cancel the running sweeps through the
	// engine's cooperative cancellation and let them drain while the listener
	// still answers, so a client parked in a status wait reads its job's final
	// "canceled" rather than a dropped connection, and a new submission is told
	// 503 shutting_down. Shutdown ends whatever waits are left, so the
	// listener's own drain below never sits out a parked handler.
	drainErr := srv.Shutdown(*shutTimeout)
	closeCtx, cancel := context.WithTimeout(context.Background(), *shutTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(closeCtx); err != nil {
		fmt.Fprintln(os.Stderr, "taserved: http shutdown:", err)
	}
	if drainErr != nil {
		fatal(drainErr)
	}
	fmt.Println("taserved: drained, bye")
}

// deadline converts -deadline-ms into the default deadline, refusing a value
// whose nanoseconds a time.Duration cannot hold: it would overflow into the
// past and fail every job at once.
func deadline(ms int64) (time.Duration, error) {
	if limit := math.MaxInt64 / int64(time.Millisecond); ms > limit {
		return 0, fmt.Errorf("-deadline-ms %d is beyond the largest, %d", ms, limit)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "taserved:", err)
	os.Exit(1)
}
