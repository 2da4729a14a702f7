package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/registry"
	"repro/rsm"
)

// shardEnv marks a re-exec of this test binary as one rsmd shard process:
// TestMain then runs the daemon body on the command line instead of the
// tests, so TestDaemonClusterShardKill's ring is made of real OS processes
// that a SIGKILL takes down mid-request.
const shardEnv = "RSMD_TEST_SHARD"

func TestMain(m *testing.M) {
	if os.Getenv(shardEnv) == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
		err := run(ctx, os.Args[1:], os.Stderr, nil)
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsmd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// shardProc is one ring member running as a child process. Its address,
// store and journal survive a kill, so a restart replays the same state.
type shardProc struct {
	addr, url, dir string
	cmd            *exec.Cmd
	log            syncBuffer
}

// start launches the shard with rsmd's own cluster flags, plus extra, and
// waits until /healthz answers 200.
func (s *shardProc) start(t *testing.T, peers string, extra ...string) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-addr", s.addr, "-self", s.url, "-peers", peers,
		"-store", filepath.Join(s.dir, "models"), "-journal-dir", filepath.Join(s.dir, "journal"),
		"-sync-interval", "250ms", "-log-level", "warn"}, extra...)
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), shardEnv+"=1")
	cmd.Stderr = &s.log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s.cmd = cmd
	for deadline := time.Now().Add(15 * time.Second); ; {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %s never became healthy:\n%s", s.url, s.log.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop sends SIGTERM (the daemon drains) and escalates to SIGKILL.
func (s *shardProc) stop() {
	if s.cmd == nil || s.cmd.ProcessState != nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // the child may already be gone
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }() //nolint:errcheck
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck
		<-done
	}
}

// shardKillLoad is the closed-loop predict/fit/yield/refine mix driven
// against the ring, with every failure classified by the shard that owns
// its model.
type shardKillLoad struct {
	urls    []string
	clients []*rsm.Client
	models  []string // uploaded predict/yield targets
	fitted  []string // server-fitted refine targets (they carry checkpoints)
	oracle  *cluster.Cluster
	jobCap  int

	mu       sync.Mutex
	dead     string // URL of the killed shard while it is down
	fitSeq   int
	jobs     []string
	ops      int
	rejects  int      // definitive 4xx: the mix racing itself, e.g. two refines of one model
	excused  int      // failures on the dead shard's models or in flight to it
	liveErrs []string // failures on models owned by live shards
}

// shardKillMix is the cumulative operation mix: predict .90, fit .03,
// yield .04, refine .03.
var shardKillMix = []struct {
	op  string
	cum float64
}{{"predict", 0.90}, {"fit", 0.93}, {"yield", 0.97}, {"refine", 1}}

func (l *shardKillLoad) deadURL() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

func (l *shardKillLoad) setDead(url string) {
	l.mu.Lock()
	l.dead = url
	l.mu.Unlock()
}

// client picks the worker's node, skipping a dead shard the way a load
// balancer rotates out an unhealthy backend: the contract covers requests
// routed through live nodes, not connections to a dead one.
func (l *shardKillLoad) client(worker int) (*rsm.Client, string) {
	dead := l.deadURL()
	for i := range l.clients {
		if idx := (worker + i) % len(l.clients); l.urls[idx] != dead {
			return l.clients[idx], l.urls[idx]
		}
	}
	return l.clients[0], l.urls[0]
}

func linearData(r *rand.Rand, n, dim int) ([][]float64, []float64) {
	pts := make([][]float64, n)
	vals := make([]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = 2*r.Float64() - 1
		}
		vals[i] = 1 + 2*pts[i][0] - pts[i][1]
	}
	return pts, vals
}

// doOp issues one operation of the mix and classifies its outcome.
func (l *shardKillLoad) doOp(ctx context.Context, r *rand.Rand, worker int) {
	x, op := r.Float64(), "predict"
	for _, m := range shardKillMix {
		if x <= m.cum {
			op = m.op
			break
		}
	}
	l.mu.Lock()
	if (op == "fit" || op == "refine") && len(l.jobs) >= l.jobCap {
		op = "predict" // job budget spent: keep the serving pressure up instead
	}
	l.fitSeq++
	seq := l.fitSeq
	l.mu.Unlock()

	cl, target := l.client(worker)
	var name, id string
	var err error
	switch op {
	case "predict":
		name = l.models[r.Intn(len(l.models))]
		pts, _ := linearData(r, 1, 4)
		_, err = cl.Predict(ctx, name, pts)
	case "yield":
		name = l.models[r.Intn(len(l.models))]
		lo := -1.0
		_, err = cl.Yield(ctx, name, rsm.YieldRequest{Low: &lo, N: 2000, Seed: int64(worker + 1)})
	case "fit":
		name = fmt.Sprintf("load-fit-%d", seq)
		pts, vals := linearData(r, 8, 4)
		id, err = cl.SubmitFit(ctx, rsm.FitRequest{Name: name, Points: pts, Values: vals, Folds: 2, MaxLambda: 3})
	case "refine":
		name = l.fitted[r.Intn(len(l.fitted))]
		pts, vals := linearData(r, 12, 4)
		id, err = cl.Refine(ctx, name, rsm.RefineRequest{Points: pts, Values: vals})
	}
	if ctx.Err() != nil && err != nil {
		return // the window closed mid-call; a truncated op proves nothing
	}
	_, owner, _ := l.oracle.Owner(name)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	switch code := rsm.StatusCode(err); {
	case err == nil:
		if id != "" {
			l.jobs = append(l.jobs, id)
		}
	case code >= 400 && code < 500:
		l.rejects++
	case l.dead != "" && (owner == l.dead || target == l.dead):
		// Owned by the dead shard, or already in flight to it when the
		// kill landed: expected unavailability, not collateral damage.
		l.excused++
	default:
		l.liveErrs = append(l.liveErrs, fmt.Sprintf("%s %s via %s (owner %s): %v", op, name, target, owner, err))
	}
}

// runClosed drives conc workers, each issuing its next operation as soon
// as the previous one returns, for the window.
func (l *shardKillLoad) runClosed(ctx context.Context, conc int, window time.Duration, seed int64) {
	ctx, cancel := context.WithTimeout(ctx, window)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			for ctx.Err() == nil {
				l.doOp(ctx, r, w)
			}
		}(w)
	}
	wg.Wait()
}

// TestDaemonClusterShardKill is the process-level cluster chaos check: a
// ring of three rsmd shard processes (this test binary re-exec'd, booted
// through rsmd's own flags) serves a mixed predict/fit/yield/refine load
// while the last shard is SIGKILLed 300 ms into the window, with a heavy
// canary fit it owns still running. After the victim restarts on the same
// port, store and journal:
//
//	(a) no request failed on a model owned by a live shard;
//	(b) every accepted job reached a terminal state;
//	(c) the canary replayed from the journal to done.
func TestDaemonClusterShardKill(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	shards := make([]*shardProc, 3)
	var urls []string
	for i := range shards {
		addr := pickPort(t)
		shards[i] = &shardProc{addr: addr, url: "http://" + addr, dir: t.TempDir()}
		urls = append(urls, shards[i].url)
	}
	peers := strings.Join(urls, ",")
	t.Cleanup(func() {
		for i, s := range shards {
			s.stop()
			if log := s.log.String(); t.Failed() && log != "" {
				t.Logf("shard %d (%s) log:\n%s", i, s.url, log)
			}
		}
	})
	// The victim's first boot holds its first fit job (the canary) at the
	// start of its run, so the canary is certainly mid-run at the kill; the
	// restart boots without the fault and the journal re-runs it for real.
	victim := shards[len(shards)-1]
	for _, s := range shards {
		if s == victim {
			s.start(t, peers, "-faults", "server.fit=delay:1m#1")
		} else {
			s.start(t, peers)
		}
	}

	// Ownership oracle: a routing-only view of the same ring, never
	// started, that classifies each failure by the shard owning its model.
	oracle, err := cluster.New(registry.New(), cluster.Config{
		Peers: urls, SyncInterval: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	l := &shardKillLoad{urls: urls, oracle: oracle, jobCap: 75}
	for _, u := range urls {
		c := rsm.NewClient(u)
		c.Retry = rsm.RetryPolicy{MaxAttempts: 1} // measure the ring, not the client's persistence
		l.clients = append(l.clients, c)
	}

	// The canary is a heavy fit owned by the victim (quadratic dictionary
	// over 16 variables, K=500, 4-fold CV sweep to λ=30), running when the
	// shard dies: its completion after the restart is the journal-replay
	// proof.
	c0 := l.clients[0]
	canaryName := ""
	for i := 0; i < 10000 && canaryName == ""; i++ {
		n := fmt.Sprintf("chaos-canary-%d", i)
		if _, u, _ := oracle.Owner(n); u == victim.url {
			canaryName = n
		}
	}
	r := rand.New(rand.NewSource(3001))
	pts := make([][]float64, 500)
	vals := make([]float64, len(pts))
	for i := range pts {
		pts[i] = make([]float64, 16)
		for j := range pts[i] {
			pts[i][j] = 2*r.Float64() - 1
		}
		vals[i] = 1 + 2*pts[i][0] - 3*pts[i][2] + pts[i][1]*pts[i][4] + 0.01*r.NormFloat64()
	}
	canaryID, err := c0.SubmitFit(ctx, rsm.FitRequest{
		Name: canaryName, Points: pts, Values: vals, Degree: 2, Folds: 4, MaxLambda: 30,
	})
	if err != nil {
		t.Fatalf("canary submit: %v", err)
	}
	for deadline := time.Now().Add(15 * time.Second); ; {
		st, err := c0.Job(ctx, canaryID)
		if err != nil {
			t.Fatalf("canary poll: %v", err)
		}
		if st.State == rsm.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canary never started running (state %s)", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	l.jobs = append(l.jobs, canaryID)

	// Preload through the ring: 9 dim-4 models to predict and yield on,
	// and 4 fitted models (with checkpoints) to refine.
	b := rsm.LinearBasis(4)
	env := &rsm.Envelope{
		Model: &rsm.Model{M: b.Size(), Support: []int{1, 2}, Coef: []float64{2, -3}},
		Basis: b.Desc,
		Prov:  rsm.Provenance{Solver: "OMP", Lambda: 2, Metric: "f"},
	}
	for i := 0; i < 9; i++ {
		name := fmt.Sprintf("load-model-%d", i)
		if _, err := c0.UploadModel(ctx, name, env); err != nil {
			t.Fatalf("preload upload %s: %v", name, err)
		}
		l.models = append(l.models, name)
	}
	r = rand.New(rand.NewSource(99))
	var preIDs []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("load-fitted-%d", i)
		pts, vals := linearData(r, 10, 4)
		id, err := c0.SubmitFit(ctx, rsm.FitRequest{Name: name, Points: pts, Values: vals, Folds: 2, MaxLambda: 3})
		if err != nil {
			t.Fatalf("preload fit %s: %v", name, err)
		}
		preIDs = append(preIDs, id)
		l.fitted = append(l.fitted, name)
	}
	for _, id := range preIDs {
		if _, err := c0.WaitJob(ctx, id, 20*time.Millisecond); err != nil {
			t.Fatalf("preload fit: %v", err)
		}
	}

	proc := victim.cmd.Process
	kill := time.AfterFunc(300*time.Millisecond, func() {
		l.setDead(victim.url)
		proc.Kill() //nolint:errcheck // SIGKILL a child we own
	})
	defer kill.Stop()
	l.runClosed(ctx, 4, 2*time.Second, 3001)
	victim.cmd.Wait() //nolint:errcheck // reap the SIGKILLed child
	victim.start(t, peers)
	l.setDead("")

	// (a) Only the dead shard's models may fail.
	t.Logf("window: %d ops, %d rejected (4xx), %d excused on the dead shard, %d jobs accepted",
		l.ops, l.rejects, l.excused, len(l.jobs))
	if len(l.liveErrs) > 0 {
		t.Errorf("(a) %d requests failed on models owned by live shards, first: %s",
			len(l.liveErrs), l.liveErrs[0])
	}

	// (b) Every accepted job reaches a terminal state. One that ends failed
	// (a refine the publish gate rejected, say) is accounted for; a lost job
	// is one the ring can no longer report on.
	dctx, dcancel := context.WithTimeout(ctx, 2*time.Minute)
	defer dcancel()
	var lost []string
	for _, id := range l.jobs {
		st, err := c0.WaitJob(dctx, id, 50*time.Millisecond)
		if err != nil && (st == nil || !terminal(st.State)) {
			lost = append(lost, fmt.Sprintf("%s: %v", id, err))
		}
	}
	if len(lost) > 0 {
		t.Errorf("(b) %d of %d accepted jobs never reached a terminal state, first: %s",
			len(lost), len(l.jobs), lost[0])
	}

	// (c) The canary replays to done.
	st, err := c0.WaitJob(dctx, canaryID, 50*time.Millisecond)
	if err != nil || st.State != rsm.JobDone {
		t.Errorf("(c) canary fit %s did not replay to done after the restart: %v", canaryID, err)
	} else if st.RecoveryAttempt != 1 {
		t.Errorf("(c) canary fit %s done with recovery_attempt %d, want 1 (a journal replay)", canaryID, st.RecoveryAttempt)
	}
}

func terminal(s string) bool {
	return s == rsm.JobDone || s == rsm.JobFailed || s == rsm.JobCanceled || s == rsm.JobTimedOut
}
