// Command rsmload is the cluster load generator: it drives a mixed
// predict/fit/yield/refine workload against an rsmd shard ring and reports
// throughput, latency percentiles and failure accounting as JSON. It is
// the cluster chaos check behind `make cluster-smoke`; the repository's
// performance numbers come from bench/ instead.
//
// With -spawn N it builds the cluster itself: N separate rsmd shard
// processes (re-execs of this binary in a hidden node mode) on local
// ports, each with its own store and job journal, plus a single-node
// baseline run so the cluster-vs-single throughput ratio lands in the
// report. With -targets it load-tests an already-running ring instead.
//
// Phases:
//
//	single   closed-loop predict throughput against one plain node
//	cluster  the same closed-loop mixed workload against the ring
//	open     fixed-arrival-rate (open-loop) latency against the ring
//	chaos    (-chaos) SIGKILL one shard mid-traffic: goodput must come
//	         only out of the dead shard's models, and every accepted job
//	         must finish after the shard restarts and replays its journal
//
// The chaos phase is also a check: requests failing for models owned by
// live shards, or accepted jobs that never reach a terminal state, exit
// non-zero — `make cluster-smoke` runs exactly that.
//
//	rsmload -spawn 3 -duration 5s -conc 8 -chaos -out report.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/rsm"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-node" {
		if err := runNode(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "rsmload node:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rsmload:", err)
		os.Exit(1)
	}
}

// runNode is the hidden shard mode: one rsmd serving process wired for
// cluster duty, dying on SIGTERM. The parent re-execs this binary so the
// ring is made of real OS processes, not goroutines sharing a scheduler.
func runNode(args []string) error {
	fs := flag.NewFlagSet("rsmload -node", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "listen address")
		selfURL = fs.String("self", "", "this node's URL in -peers (empty with -peers unset = standalone)")
		peers   = fs.String("peers", "", "comma-separated ring URLs")
		store   = fs.String("store", "", "model store directory")
		journal = fs.String("journal", "", "job journal directory")
		syncInt = fs.Duration("sync-interval", 250*time.Millisecond, "replication pull period")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, _ := obs.ParseLevel("warn")
	logger := obs.NewLogger(os.Stderr, level, "text")
	reg, err := registry.OpenWith(*store, logger)
	if err != nil {
		return err
	}
	var clu *cluster.Cluster
	if *peers != "" {
		clu, err = cluster.New(reg, cluster.Config{
			Self: *selfURL, Peers: splitURLs(*peers), SyncInterval: *syncInt, Logger: logger,
		})
		if err != nil {
			return err
		}
	}
	srv, err := server.New(reg, server.Config{
		FitWorkers: 2, JournalDir: *journal, Cluster: clu, Logger: logger,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	hs.Close()
	srv.Close()
	return nil
}

func splitURLs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// shard is one spawned ring member: its identity survives kill/restart so
// the journal-replay contract can be exercised on the same store.
type shard struct {
	addr, url      string
	store, journal string
	cmd            *exec.Cmd
}

// opMix maps operation name to probability weight.
type opMix map[string]float64

func parseMix(s string) (opMix, error) {
	mix := opMix{}
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix term %q: want op=weight", part)
		}
		var w float64
		if _, err := fmt.Sscanf(v, "%g", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("mix weight %q", v)
		}
		switch k {
		case "predict", "fit", "yield", "refine":
		default:
			return nil, fmt.Errorf("unknown op %q (want predict|fit|yield|refine)", k)
		}
		mix[k] = w
		total += w
	}
	if total <= 0 {
		return nil, errors.New("mix has zero total weight")
	}
	for k := range mix {
		mix[k] /= total
	}
	return mix, nil
}

// phaseReport is one measured load phase in the output JSON.
type phaseReport struct {
	Name          string         `json:"name"`
	Nodes         int            `json:"nodes"`
	Mode          string         `json:"mode"` // closed | open
	DurationS     float64        `json:"duration_s"`
	Requests      int            `json:"requests"`
	Errors        int            `json:"errors"`
	Rejects       int            `json:"rejects"` // definitive 4xx (e.g. refine races): workload semantics, not failures
	ThroughputRPS float64        `json:"throughput_rps"`
	P50Ms         float64        `json:"p50_ms"`
	P95Ms         float64        `json:"p95_ms"`
	P99Ms         float64        `json:"p99_ms"`
	Ops           map[string]int `json:"ops"`
	OpErrors      map[string]int `json:"op_errors,omitempty"`
	OpRejects     map[string]int `json:"op_rejects,omitempty"`
}

// chaosReport pins the one-shard-kill contract in the output JSON.
type chaosReport struct {
	KilledShard         string  `json:"killed_shard"`
	WindowS             float64 `json:"window_s"`
	GoodputRPS          float64 `json:"goodput_rps"`
	DeadShardErrors     int     `json:"dead_shard_errors"`
	NonOwnedShardErrors int     `json:"non_owned_shard_errors"`
	JobsSubmitted       int     `json:"jobs_submitted"`
	JobsLost            int     `json:"jobs_lost"`
	CanaryJob           string  `json:"canary_job"`
	CanaryState         string  `json:"canary_state"`
}

type report struct {
	Bench                string        `json:"bench"`
	CPUs                 int           `json:"cpus"`
	Note                 string        `json:"note,omitempty"`
	Nodes                int           `json:"nodes"`
	Mix                  opMix         `json:"mix"`
	Phases               []phaseReport `json:"phases"`
	ClusterVsSingleRatio float64       `json:"cluster_vs_single_predict_ratio,omitempty"`
	Chaos                *chaosReport  `json:"chaos,omitempty"`
}

// loadStats accumulates one phase's measurements across workers.
type loadStats struct {
	mu        sync.Mutex
	latMs     []float64
	ops       map[string]int
	opErrs    map[string]int
	opRejects map[string]int
	deadErrs  int // failed ops on models the dead shard owns (expected)
	otherErrs int // failed ops on live-shard models (a bug)
	jobs      []string
}

func newLoadStats() *loadStats {
	return &loadStats{ops: map[string]int{}, opErrs: map[string]int{}, opRejects: map[string]int{}}
}

func (st *loadStats) record(op string, d time.Duration, err error, deadOwned bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ops[op]++
	if err != nil {
		// A definitive 4xx is the workload racing itself (e.g. two refines
		// of the same model), not the ring failing — keep it out of the
		// error budget but visible in the report.
		if code := rsm.StatusCode(err); code >= 400 && code < 500 {
			st.opRejects[op]++
			return
		}
		st.opErrs[op]++
		if deadOwned {
			st.deadErrs++
		} else {
			st.otherErrs++
		}
		return
	}
	st.latMs = append(st.latMs, float64(d)/float64(time.Millisecond))
}

func (st *loadStats) addJob(id string) {
	st.mu.Lock()
	st.jobs = append(st.jobs, id)
	st.mu.Unlock()
}

func (st *loadStats) phase(name, mode string, nodes int, window time.Duration) phaseReport {
	st.mu.Lock()
	defer st.mu.Unlock()
	total, errs, rejects := 0, 0, 0
	for _, n := range st.ops {
		total += n
	}
	for _, n := range st.opErrs {
		errs += n
	}
	for _, n := range st.opRejects {
		rejects += n
	}
	sort.Float64s(st.latMs)
	return phaseReport{
		Name: name, Nodes: nodes, Mode: mode,
		DurationS: window.Seconds(),
		Requests:  total, Errors: errs, Rejects: rejects,
		ThroughputRPS: float64(len(st.latMs)) / window.Seconds(),
		P50Ms:         percentile(st.latMs, 0.50),
		P95Ms:         percentile(st.latMs, 0.95),
		P99Ms:         percentile(st.latMs, 0.99),
		Ops:           st.ops, OpErrors: st.opErrs, OpRejects: st.opRejects,
	}
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// loader holds everything a worker needs to issue one operation.
type loader struct {
	targets []string
	clients []*rsm.Client
	mix     opMix
	order   []string // mix keys in fixed pick order
	cum     []float64
	models  []string // uploaded predict/yield targets
	fitted  []string // server-fitted models with checkpoints (refine targets)
	dim     int
	fitSeq  func() int
	jobCap  int              // max jobs submitted per phase, so the generator can't saturate the fit queue into shedding
	oracle  *cluster.Cluster // ownership lookups; nil outside cluster runs
	deadURL func() string    // URL of the currently-dead shard ("" = none)
}

// client picks the worker's target, skipping a dead shard the way a load
// balancer rotates out an unhealthy backend: the chaos contract is about
// requests routed *through live nodes*, not about connecting to a corpse.
func (l *loader) client(worker int) (*rsm.Client, string) {
	dead := l.deadURL()
	n := len(l.clients)
	for i := 0; i < n; i++ {
		if idx := (worker + i) % n; l.targets[idx] != dead {
			return l.clients[idx], l.targets[idx]
		}
	}
	return l.clients[worker%n], l.targets[worker%n]
}

func newLoader(targets []string, mix opMix, models, fitted []string, dim int, oracle *cluster.Cluster) *loader {
	l := &loader{
		targets: targets, mix: mix, models: models, fitted: fitted, dim: dim,
		oracle: oracle, deadURL: func() string { return "" },
	}
	for _, t := range targets {
		c := rsm.NewClient(t)
		c.Retry = rsm.RetryPolicy{MaxAttempts: 1} // measure the ring, not the client's persistence
		l.clients = append(l.clients, c)
	}
	for _, op := range []string{"predict", "fit", "yield", "refine"} {
		if w := mix[op]; w > 0 {
			l.order = append(l.order, op)
			prev := 0.0
			if len(l.cum) > 0 {
				prev = l.cum[len(l.cum)-1]
			}
			l.cum = append(l.cum, prev+w)
		}
	}
	var seq int64
	var mu sync.Mutex
	l.fitSeq = func() int {
		mu.Lock()
		defer mu.Unlock()
		seq++
		return int(seq)
	}
	return l
}

func (l *loader) pick(r *rand.Rand) string {
	x := r.Float64() * l.cum[len(l.cum)-1]
	for i, c := range l.cum {
		if x <= c {
			return l.order[i]
		}
	}
	return l.order[len(l.order)-1]
}

func (l *loader) point(r *rand.Rand) []float64 {
	p := make([]float64, l.dim)
	for i := range p {
		p[i] = 2*r.Float64() - 1
	}
	return p
}

// ownedByDead reports whether the model currently routes to a dead shard,
// so its failures count as expected unavailability, not as collateral.
func (l *loader) ownedByDead(name string) bool {
	dead := l.deadURL()
	if dead == "" || l.oracle == nil {
		return false
	}
	_, url, _ := l.oracle.Owner(name)
	return url == dead
}

// doOp issues one operation of the mix and records it.
func (l *loader) doOp(ctx context.Context, r *rand.Rand, worker int, st *loadStats) {
	op := l.pick(r)
	if op == "fit" || op == "refine" {
		st.mu.Lock()
		full := len(st.jobs) >= l.jobCap
		st.mu.Unlock()
		if full {
			op = "predict" // job budget spent; keep the serving pressure up instead
		}
	}
	cl, target := l.client(worker)
	var name string
	start := time.Now()
	var err error
	switch op {
	case "predict":
		name = l.models[r.Intn(len(l.models))]
		_, err = cl.Predict(ctx, name, [][]float64{l.point(r)})
	case "yield":
		name = l.models[r.Intn(len(l.models))]
		lo := -1.0
		_, err = cl.Yield(ctx, name, rsm.YieldRequest{Low: &lo, N: 2000, Seed: int64(worker + 1)})
	case "fit":
		name = fmt.Sprintf("load-fit-%d", l.fitSeq())
		pts := make([][]float64, 8)
		vals := make([]float64, len(pts))
		for i := range pts {
			pts[i] = l.point(r)
			vals[i] = 1 + 2*pts[i][0] - pts[i][1]
		}
		var id string
		id, err = cl.SubmitFit(ctx, rsm.FitRequest{
			Name: name, Points: pts, Values: vals, Folds: 2, MaxLambda: 3,
		})
		if err == nil {
			st.addJob(id)
		}
	case "refine":
		name = l.fitted[r.Intn(len(l.fitted))]
		pts := make([][]float64, 12)
		vals := make([]float64, len(pts))
		for i := range pts {
			pts[i] = l.point(r)
			vals[i] = 1 + 2*pts[i][0] - pts[i][1]
		}
		var id string
		id, err = cl.Refine(ctx, name, rsm.RefineRequest{Points: pts, Values: vals})
		if err == nil {
			st.addJob(id)
		}
	}
	if ctx.Err() != nil && err != nil {
		return // the window closed mid-call; don't count a truncated op
	}
	// Failures are excused when the model is owned by the dead shard OR the
	// request was already in flight to the node that just got killed — the
	// kill races requests the balancer had dispatched before it noticed.
	st.record(op, time.Since(start), err, l.ownedByDead(name) || target == l.deadURL())
}

// runClosed drives conc workers, each issuing the next operation as soon as
// the previous one returns, for the window.
func (l *loader) runClosed(parent context.Context, conc int, window time.Duration, seed int64, st *loadStats) {
	ctx, cancel := context.WithTimeout(parent, window)
	defer cancel()
	l.jobCap = 25 * int(window/time.Second+1)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			for ctx.Err() == nil {
				l.doOp(ctx, r, w, st)
			}
		}(w)
	}
	wg.Wait()
}

// runOpen issues operations at a fixed arrival rate regardless of response
// times (open loop), so queueing delay shows up in the percentiles instead
// of throttling the generator. Arrivals beyond the in-flight cap are
// dropped and counted.
func (l *loader) runOpen(parent context.Context, rate int, conc int, window time.Duration, seed int64, st *loadStats) {
	ctx, cancel := context.WithTimeout(parent, window)
	defer cancel()
	l.jobCap = 25 * int(window/time.Second+1)
	tick := time.NewTicker(time.Second / time.Duration(rate))
	defer tick.Stop()
	sem := make(chan struct{}, conc*8)
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-tick.C:
		}
		select {
		case sem <- struct{}{}:
		default:
			st.mu.Lock()
			st.ops["dropped"]++
			st.opErrs["dropped"]++
			st.otherErrs++ // the generator overran itself; visible, not hidden
			st.mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			defer func() { <-sem }()
			wr := rand.New(rand.NewSource(seed))
			l.doOp(ctx, wr, i, st)
		}(i, seed+int64(i)+1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rsmload", flag.ContinueOnError)
	var (
		targets  = fs.String("targets", "", "comma-separated URLs of an existing ring to load (empty = -spawn a local one)")
		spawn    = fs.Int("spawn", 3, "shard processes to spawn when -targets is empty")
		duration = fs.Duration("duration", 5*time.Second, "measurement window per phase")
		conc     = fs.Int("conc", 8, "closed-loop worker count")
		rate     = fs.Int("rate", 40, "open-loop arrivals per second (0 skips the open phase)")
		models   = fs.Int("models", 12, "predict/yield models preloaded across the ring")
		dim      = fs.Int("dim", 4, "model dimensionality")
		mixSpec  = fs.String("mix", "predict=0.90,fit=0.03,yield=0.04,refine=0.03", "operation mix weights")
		chaos    = fs.Bool("chaos", false, "run the one-shard-kill phase (needs a spawned ring of >= 2)")
		baseline = fs.Bool("baseline", true, "also measure a single plain node for the cluster-vs-single ratio (spawned runs only)")
		seed     = fs.Int64("seed", 1, "workload RNG seed")
		out      = fs.String("out", "-", "report path (- = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return fmt.Errorf("-mix: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := &report{Bench: "rsmload", CPUs: runtime.NumCPU(), Mix: mix}
	if rep.CPUs == 1 {
		rep.Note = "single-CPU host: all shard processes share one core, so the cluster ratio " +
			"measures coordination overhead, not horizontal capacity; expect >= #shards ratio only on multi-core hosts"
	}

	var urls []string
	var shards []*shard
	spawned := false
	if *targets != "" {
		urls = splitURLs(*targets)
	} else {
		if *spawn < 1 {
			return errors.New("-spawn must be >= 1 when -targets is empty")
		}
		spawned = true
		work, err := os.MkdirTemp("", "rsmload-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(work)

		// The single-node baseline first, on its own throwaway store.
		if *baseline {
			single := &shard{store: filepath.Join(work, "single", "models"), journal: filepath.Join(work, "single", "journal")}
			if err := allocAddr(single); err != nil {
				return err
			}
			if err := startShard(single, nil); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "rsmload: single-node baseline on %s (%s window)\n", single.url, *duration)
			st := newLoadStats()
			base, err := preload(ctx, []string{single.url}, *models, *dim, mix)
			if err != nil {
				stopShard(single)
				return fmt.Errorf("single-node preload: %w", err)
			}
			l := newLoader([]string{single.url}, mix, base.models, base.fitted, *dim, nil)
			l.runClosed(ctx, *conc, *duration, *seed, st)
			lost, submitted := drainJobs(ctx, single.url, st, 60*time.Second)
			stopShard(single)
			ph := st.phase("single", "closed", 1, *duration)
			rep.Phases = append(rep.Phases, ph)
			if lost > 0 {
				return fmt.Errorf("single-node run lost %d of %d jobs", lost, submitted)
			}
		}

		for i := 0; i < *spawn; i++ {
			s := &shard{
				store:   filepath.Join(work, fmt.Sprintf("s%d", i), "models"),
				journal: filepath.Join(work, fmt.Sprintf("s%d", i), "journal"),
			}
			if err := allocAddr(s); err != nil {
				return err
			}
			shards = append(shards, s)
			urls = append(urls, s.url)
		}
		for _, s := range shards {
			if err := startShard(s, urls); err != nil {
				return err
			}
		}
		defer func() {
			for _, s := range shards {
				stopShard(s)
			}
		}()
	}
	rep.Nodes = len(urls)

	// Ownership oracle: a proxy-only ring view, never started, used to
	// classify chaos-window failures by owning shard.
	quiet, _ := obs.ParseLevel("error")
	oracle, err := cluster.New(registry.New(), cluster.Config{
		Peers: urls, SyncInterval: -1, Logger: obs.NewLogger(os.Stderr, quiet, "text"),
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "rsmload: preloading %d models across %d node(s)\n", *models, len(urls))
	pre, err := preload(ctx, urls, *models, *dim, mix)
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	l := newLoader(urls, mix, pre.models, pre.fitted, *dim, oracle)

	// Closed-loop cluster phase.
	fmt.Fprintf(os.Stderr, "rsmload: closed loop, %d workers, %s window\n", *conc, *duration)
	st := newLoadStats()
	l.runClosed(ctx, *conc, *duration, *seed+1000, st)
	lost, submitted := drainJobs(ctx, urls[0], st, 60*time.Second)
	ph := st.phase("cluster", "closed", len(urls), *duration)
	rep.Phases = append(rep.Phases, ph)
	if lost > 0 {
		return fmt.Errorf("cluster run lost %d of %d jobs", lost, submitted)
	}
	if ph.Errors > 0 {
		return fmt.Errorf("cluster run saw %d errors with all shards up", ph.Errors)
	}
	for _, p := range rep.Phases {
		if p.Name == "single" && p.ThroughputRPS > 0 {
			rep.ClusterVsSingleRatio = round3(ph.ThroughputRPS / p.ThroughputRPS)
		}
	}

	// Open-loop phase: fixed arrivals, latency includes queueing.
	if *rate > 0 {
		fmt.Fprintf(os.Stderr, "rsmload: open loop, %d req/s, %s window\n", *rate, *duration)
		st = newLoadStats()
		l.runOpen(ctx, *rate, *conc, *duration, *seed+2000, st)
		lost, submitted = drainJobs(ctx, urls[0], st, 60*time.Second)
		rep.Phases = append(rep.Phases, st.phase("open", "open", len(urls), *duration))
		if lost > 0 {
			return fmt.Errorf("open-loop run lost %d of %d jobs", lost, submitted)
		}
	}

	if *chaos {
		if !spawned || len(shards) < 2 {
			return errors.New("-chaos needs a spawned ring of at least 2 shards")
		}
		cr, err := runChaos(ctx, l, shards, urls, oracle, *conc, *duration, *seed+3000)
		if err != nil {
			return err
		}
		rep.Chaos = cr
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rsmload: report written to %s\n", *out)
	return nil
}

func round3(x float64) float64 { return float64(int(x*1000+0.5)) / 1000 }

// runChaos kills the last shard one fifth into a traffic window and holds
// the load: the contract is that only that shard's models fail, and that
// every accepted job — including a canary fit owned by the victim — reaches
// a terminal state once the shard restarts and replays its journal.
func runChaos(ctx context.Context, l *loader, shards []*shard, urls []string, oracle *cluster.Cluster, conc int, window time.Duration, seed int64) (*chaosReport, error) {
	victim := shards[len(shards)-1]
	fmt.Fprintf(os.Stderr, "rsmload: chaos phase, killing %s mid-window\n", victim.url)

	canaryName := ""
	for i := 0; i < 10000 && canaryName == ""; i++ {
		n := fmt.Sprintf("chaos-canary-%d", i)
		if _, u, _ := oracle.Owner(n); u == victim.url {
			canaryName = n
		}
	}
	// The canary is a deliberately heavy fit (quadratic dictionary, CV
	// sweep) so it is still mid-run when the shard dies: its completion
	// after restart is the journal-replay proof.
	c0 := rsm.NewClient(urls[0])
	r := rand.New(rand.NewSource(seed))
	const canaryDim = 16
	pts := make([][]float64, 500)
	vals := make([]float64, len(pts))
	for i := range pts {
		pts[i] = make([]float64, canaryDim)
		for j := range pts[i] {
			pts[i][j] = 2*r.Float64() - 1
		}
		vals[i] = 1 + 2*pts[i][0] - 3*pts[i][2] + pts[i][1]*pts[i][4] + 0.01*r.NormFloat64()
	}
	canaryID, err := c0.SubmitFit(ctx, rsm.FitRequest{
		Name: canaryName, Points: pts, Values: vals, Degree: 2, Folds: 4, MaxLambda: 30,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos canary submit: %w", err)
	}
	for deadline := time.Now().Add(15 * time.Second); ; {
		jst, err := c0.Job(ctx, canaryID)
		if err != nil {
			return nil, fmt.Errorf("chaos canary poll: %w", err)
		}
		if jst.State == rsm.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("chaos canary never started running (state %s)", jst.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	st := newLoadStats()
	st.addJob(canaryID)
	var deadMu sync.Mutex
	dead := ""
	l.deadURL = func() string {
		deadMu.Lock()
		defer deadMu.Unlock()
		return dead
	}
	defer func() { l.deadURL = func() string { return "" } }()

	killTimer := time.AfterFunc(300*time.Millisecond, func() {
		deadMu.Lock()
		dead = victim.url
		deadMu.Unlock()
		victim.cmd.Process.Kill() //nolint:errcheck // SIGKILL a child we own
	})
	defer killTimer.Stop()
	l.runClosed(ctx, conc, window, seed, st)

	// Restart the victim on the same port, store and journal.
	victim.cmd.Wait() //nolint:errcheck // reap the SIGKILLed child
	if err := startShard(victim, urls); err != nil {
		return nil, fmt.Errorf("chaos restart: %w", err)
	}
	deadMu.Lock()
	dead = ""
	deadMu.Unlock()

	lost, submitted := drainJobs(ctx, urls[0], st, 120*time.Second)
	canary, err := c0.WaitJob(ctx, canaryID, 50*time.Millisecond)
	canaryState := "unknown"
	if err == nil {
		canaryState = string(canary.State)
	}
	ph := st.phase("chaos", "closed", len(urls), window)
	cr := &chaosReport{
		KilledShard: victim.url, WindowS: window.Seconds(),
		GoodputRPS:      round3(ph.ThroughputRPS),
		DeadShardErrors: st.deadErrs, NonOwnedShardErrors: st.otherErrs,
		JobsSubmitted: submitted, JobsLost: lost,
		CanaryJob: canaryID, CanaryState: canaryState,
	}
	if st.otherErrs > 0 {
		return cr, fmt.Errorf("chaos: %d errors on models owned by live shards", st.otherErrs)
	}
	if lost > 0 {
		return cr, fmt.Errorf("chaos: %d of %d accepted jobs never reached a terminal state", lost, submitted)
	}
	if canaryState != "done" {
		return cr, fmt.Errorf("chaos: canary fit %s ended %s, want done after journal replay", canaryID, canaryState)
	}
	return cr, nil
}

// preloadSet is the fixed model population the load phases run against.
type preloadSet struct {
	models []string // uploaded: predict/yield targets
	fitted []string // fitted through the API: refine targets with checkpoints
}

// preload uploads the predict/yield models and fits the refine targets
// through the ring, so every phase starts from the same served state.
func preload(ctx context.Context, urls []string, models, dim int, mix opMix) (*preloadSet, error) {
	c := rsm.NewClient(urls[0])
	b := rsm.LinearBasis(dim)
	env := &rsm.Envelope{
		Model: &rsm.Model{M: b.Size(), Support: []int{1, 2}, Coef: []float64{2, -3}},
		Basis: b.Desc,
		Prov:  rsm.Provenance{Solver: "OMP", Lambda: 2, Metric: "f"},
	}
	set := &preloadSet{}
	for i := 0; i < models; i++ {
		name := fmt.Sprintf("load-model-%d", i)
		if _, err := c.UploadModel(ctx, name, env); err != nil {
			return nil, fmt.Errorf("upload %s: %w", name, err)
		}
		set.models = append(set.models, name)
	}
	if mix["refine"] <= 0 {
		return set, nil
	}
	r := rand.New(rand.NewSource(99))
	nFit := models/4 + 2
	ids := make([]string, 0, nFit)
	for i := 0; i < nFit; i++ {
		name := fmt.Sprintf("load-fitted-%d", i)
		pts := make([][]float64, 10)
		vals := make([]float64, len(pts))
		for j := range pts {
			pts[j] = make([]float64, dim)
			for k := range pts[j] {
				pts[j][k] = 2*r.Float64() - 1
			}
			vals[j] = 1 + 2*pts[j][0] - pts[j][1]
		}
		id, err := c.SubmitFit(ctx, rsm.FitRequest{
			Name: name, Points: pts, Values: vals, Folds: 2, MaxLambda: 3,
		})
		if err != nil {
			return nil, fmt.Errorf("preload fit %s: %w", name, err)
		}
		ids = append(ids, id)
		set.fitted = append(set.fitted, name)
	}
	for i, id := range ids {
		st, err := c.WaitJob(ctx, id, 20*time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("preload fit %s: %w", set.fitted[i], err)
		}
		if st.State != rsm.JobDone {
			return nil, fmt.Errorf("preload fit %s ended %s: %s", set.fitted[i], st.State, st.Error)
		}
	}
	return set, nil
}

// drainJobs waits every job the phase submitted to a terminal state and
// returns how many never got there — the "lost jobs" count that must be
// zero for the run to pass. Jobs that terminate unsuccessfully (a refine
// the publish gate rejected, say) are accounted for, not lost: lost means
// the ring can no longer say what happened to an accepted job.
func drainJobs(ctx context.Context, target string, st *loadStats, budget time.Duration) (lost, submitted int) {
	st.mu.Lock()
	jobs := append([]string(nil), st.jobs...)
	st.mu.Unlock()
	if len(jobs) == 0 {
		return 0, 0
	}
	c := rsm.NewClient(target)
	dctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	for _, id := range jobs {
		jst, err := c.WaitJob(dctx, id, 50*time.Millisecond)
		if err == nil {
			continue
		}
		terminal := jst != nil &&
			(jst.State == rsm.JobDone || jst.State == rsm.JobFailed ||
				jst.State == rsm.JobCanceled || jst.State == rsm.JobTimedOut)
		if !terminal {
			lost++
		}
	}
	return lost, len(jobs)
}

// allocAddr reserves a listen address for a shard. The port is released
// before the child binds it; the race window is harmless for local runs.
func allocAddr(s *shard) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.url = "http://" + s.addr
	return ln.Close()
}

// startShard launches (or relaunches) a shard process and waits until its
// health endpoint answers. peers == nil starts a plain standalone node.
func startShard(s *shard, peers []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-node", "-addr", s.addr, "-store", s.store, "-journal", s.journal}
	if peers != nil {
		args = append(args, "-self", s.url, "-peers", strings.Join(peers, ","))
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	s.cmd = cmd
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck
			return fmt.Errorf("shard %s never became healthy", s.url)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stopShard terminates a shard process, escalating from SIGTERM to SIGKILL.
func stopShard(s *shard) {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }() //nolint:errcheck
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck
		<-done
	}
}
