// Command rsmd is the model-serving daemon: it holds a versioned registry
// of fitted sparse response-surface models and serves batched prediction,
// parametric-yield and asynchronous fitting over a JSON HTTP API. Models
// survive restarts when -store points at a directory.
//
// Example session:
//
//	rsmd -addr :8080 -store ./models &
//	mcgen -circuit synthetic -n 300 -seed 1 > train.csv
//	curl -s -X POST localhost:8080/v1/fit \
//	     -d "$(jq -n --rawfile csv train.csv '{name:"demo", solver:"omp", csv:$csv}')"
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s -X POST localhost:8080/v1/models/demo/predict -d '{"points":[[0.1,0,...]]}'
//	curl -s localhost:8080/metrics
//	curl -s -H 'Accept: text/plain' localhost:8080/metrics   # Prometheus exposition
//
// Observability: logs are structured (-log-format text|json, -log-level
// debug|info|warn|error) and every request/log line carries an
// X-Request-Id; -pprof-addr starts an opt-in net/http/pprof endpoint on a
// separate listener so profiling is never exposed on the serving port.
//
// On SIGINT/SIGTERM the daemon drains gracefully: /healthz flips to 503 so
// load balancers rotate it out, the listener stops accepting, and in-flight
// fit jobs get the -drain-timeout budget to finish before being canceled.
//
// Horizontal serving: -peers lists every shard's base URL and -self names
// this node in that list; model names shard across the ring by consistent
// hashing, any node proxies requests to the owning shard, and shards pull
// published versions from each other so replicas can serve pinned reads.
// A -proxy node joins the ring as a router that owns nothing:
//
//	rsmd -addr :8081 -self http://h1:8081 -peers http://h1:8081,http://h2:8082
//	rsmd -addr :8082 -self http://h2:8082 -peers http://h1:8081,http://h2:8082
//	rsmd -addr :8080 -proxy -peers http://h1:8081,http://h2:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rsmd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: it parses args, opens the store, serves
// until ctx is canceled, then drains within the -drain-timeout budget.
// ready, when non-nil, is called with the bound listen address once the
// daemon is accepting connections (tests use it with -addr 127.0.0.1:0).
func run(ctx context.Context, args []string, logw io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("rsmd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		store        = fs.String("store", "", "model persistence directory (empty = in-memory only)")
		fitJobs      = fs.Int("fit-jobs", 2, "async fit worker pool size (concurrent fit jobs)")
		fitWorkers   = fs.Int("fit-workers", 0, "solver engine correlation-sweep goroutines per fit (0 = max(1, GOMAXPROCS-1), leaving predicts a core)")
		queueDepth   = fs.Int("queue", 16, "max pending fit jobs")
		predWorkers  = fs.Int("predict-workers", 0, "prediction fan-out per request (0 = GOMAXPROCS)")
		maxBatch     = fs.Int("max-batch", 100000, "max points per predict request")
		predCache    = fs.Int("predict-cache", 64, "compiled predictors kept in the serving LRU cache (0 disables caching)")
		batchWindow  = fs.Duration("batch-window", 0, "predict micro-batching window: concurrent requests for the same model version coalesce for up to this long (0 disables)")
		batchMax     = fs.Int("batch-max", 4096, "max points coalesced into one micro-batch flush")
		reqTimeout   = fs.Duration("request-timeout", 30*time.Second, "per-request handler deadline")
		fitTimeout   = fs.Duration("fit-timeout", 5*time.Minute, "per-job fit deadline")
		pipeTimeout  = fs.Duration("pipeline-timeout", 10*time.Minute, "end-to-end deadline per netlist-in, model-out pipeline job")
		simWorkers   = fs.Int("sim-workers", 0, "simulator goroutines per pipeline sampling stage (0 = max(1, GOMAXPROCS-1), leaving predicts a core)")
		journalDir   = fs.String("journal-dir", "", "durable job-journal directory: fit/pipeline jobs survive crashes and are re-run on boot (empty = no journal)")
		recoveryMax  = fs.Int("recovery-max-attempts", 3, "quarantine a journaled job as failed after it crashed the daemon this many times")
		traceStore   = fs.Int("trace-store", 256, "completed traces kept in memory for /v1/traces (0 disables tracing)")
		traceSlow    = fs.Duration("trace-slow", time.Second, "slow-trace threshold: traces at or over it are always kept and their requests logged at warn")
		traceSample  = fs.Float64("trace-sample", 1.0, "keep probability for fast, successful HTTP traces (errors, slow traces and jobs are always kept; 0 keeps only those)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight work")
		logLevel     = fs.String("log-level", "info", "log verbosity: debug|info|warn|error (debug includes per-request access logs)")
		logFormat    = fs.String("log-format", "text", "log encoding: text|json")
		pprofAddr    = fs.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled)")
		faults       = fs.String("faults", os.Getenv("RSMD_FAULTS"),
			"fault-injection spec for chaos testing, e.g. server.fit=panic#1 (default $RSMD_FAULTS)")
		peers        = fs.String("peers", "", "comma-separated base URLs of every shard in the ring (enables cluster mode)")
		self         = fs.String("self", "", "this node's own base URL as it appears in -peers (required with -peers unless -proxy)")
		proxyOnly    = fs.Bool("proxy", false, "proxy-only node: route requests to the owning shards in -peers without owning any models")
		vnodes       = fs.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default)")
		syncInterval = fs.Duration("sync-interval", 0, "replication pull period between shards (0 = default, negative disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("-log-format: unknown format %q (want text|json)", *logFormat)
	}
	logger := obs.NewLogger(logw, level, *logFormat)
	if *faults != "" {
		if err := faultinject.Configure(*faults); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		logger.Warn("fault injection armed", "spec", *faults)
	}

	reg, err := registry.OpenWith(*store, logger)
	if err != nil {
		return err
	}

	// Cluster mode: -peers lists every shard; -self names this node in that
	// list (or -proxy makes it a routing-only member that owns nothing).
	var clu *cluster.Cluster
	if *peers != "" || *self != "" || *proxyOnly {
		if *peers == "" {
			return errors.New("-self/-proxy require -peers")
		}
		if *proxyOnly && *self != "" {
			return errors.New("-proxy and -self are mutually exclusive")
		}
		if !*proxyOnly && *self == "" {
			return errors.New("-peers requires -self (or -proxy for a routing-only node)")
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		clu, err = cluster.New(reg, cluster.Config{
			Self:         *self,
			Peers:        peerList,
			VNodes:       *vnodes,
			SyncInterval: *syncInterval,
			Logger:       logger,
		})
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		logger.Info("cluster mode", "self", clu.SelfName(), "shards", len(peerList), "proxy_only", *proxyOnly)
	}
	cacheSize := *predCache
	if cacheSize == 0 {
		cacheSize = -1 // flag 0 = disabled; Config 0 = default
	}
	traceCap := *traceStore
	if traceCap == 0 {
		traceCap = -1 // flag 0 = disabled; Config 0 = default
	}
	sampleRate := *traceSample
	if sampleRate == 0 {
		sampleRate = -1 // flag 0 = tail-only; Config 0 = default (keep all)
	}
	srv, err := server.New(reg, server.Config{
		FitWorkers:          *fitJobs,
		FitParallel:         *fitWorkers,
		QueueDepth:          *queueDepth,
		PredictWorkers:      *predWorkers,
		MaxBatch:            *maxBatch,
		PredictCacheSize:    cacheSize,
		BatchWindow:         *batchWindow,
		BatchMaxPoints:      *batchMax,
		RequestTimeout:      *reqTimeout,
		FitTimeout:          *fitTimeout,
		PipelineTimeout:     *pipeTimeout,
		SimWorkers:          *simWorkers,
		JournalDir:          *journalDir,
		RecoveryMaxAttempts: *recoveryMax,
		TraceStoreSize:      traceCap,
		TraceSlow:           *traceSlow,
		TraceSample:         sampleRate,
		Cluster:             clu,
		Logger:              logger,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}

	// Profiling is opt-in and on its own listener: the serving port never
	// exposes pprof, and the endpoint dies with the daemon.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("-pprof-addr: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Handler: pmux}
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "error", err)
			}
		}()
		logger.Info("pprof enabled", "addr", pln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("serving", "models", reg.Len(), "addr", ln.Addr().String(), "store", *store,
		"log_level", level.String(), "log_format", *logFormat)
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		srv.Close()
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		return err
	case <-ctx.Done():
	}

	// Drain: readiness first (new traffic routes elsewhere), then the
	// listener and in-flight requests, then the fit workers — all under one
	// shared budget. Jobs still running when it expires are canceled and
	// land in state canceled.
	logger.Info("shutting down")
	srv.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	httpErr := httpSrv.Shutdown(shutCtx)
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("drain budget exhausted; canceled remaining fit jobs", "error", err)
	}
	if pprofSrv != nil {
		pprofSrv.Close()
	}
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
