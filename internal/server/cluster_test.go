package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/registry"
)

// clusterHarness runs an n-node rsmd shard ring in-process on real
// listeners — real ports, real cross-node HTTP, one faultinject namespace.
type clusterHarness struct {
	t     *testing.T
	urls  []string
	nodes []*harnessNode
}

// harnessNode is one ring member plus everything needed to kill and
// restart it on the same address (the crash/recovery tests' contract).
type harnessNode struct {
	url  string
	addr string
	dir  string // disk root for registry+journal; "" = in-memory, no journal
	srv  *Server
	cl   *cluster.Cluster
	hs   *http.Server
	ln   net.Listener
	done chan struct{}
}

// newClusterHarness reserves n listeners up front — every node must know
// the full peer list before any server exists — then boots each node.
// durable nodes persist registry and journal under per-node temp dirs, so
// a killed node can be restarted with its disk state intact.
func newClusterHarness(t *testing.T, n int, durable bool, cfg Config) *clusterHarness {
	t.Helper()
	h := &clusterHarness{t: t}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node := &harnessNode{addr: ln.Addr().String(), url: "http://" + ln.Addr().String(), ln: ln}
		if durable {
			node.dir = t.TempDir()
		}
		h.nodes = append(h.nodes, node)
		h.urls = append(h.urls, node.url)
	}
	for i := range h.nodes {
		h.start(i, cfg)
	}
	t.Cleanup(func() {
		for i := range h.nodes {
			h.stop(i)
		}
	})
	return h
}

// start boots (or reboots) node i. The background replicator is disabled
// (negative sync interval): tests drive replication deterministically
// through syncAll.
func (h *clusterHarness) start(i int, cfg Config) {
	h.t.Helper()
	n := h.nodes[i]
	reg := registry.New()
	if n.dir != "" {
		var err error
		if reg, err = registry.Open(filepath.Join(n.dir, "models")); err != nil {
			h.t.Fatal(err)
		}
		cfg.JournalDir = filepath.Join(n.dir, "journal")
	}
	cl, err := cluster.New(reg, cluster.Config{
		Self: n.url, Peers: h.urls, SyncInterval: -1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		h.t.Fatal(err)
	}
	cfg.Cluster = cl
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := New(reg, cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	if n.ln == nil {
		if n.ln, err = net.Listen("tcp", n.addr); err != nil {
			h.t.Fatalf("rebind %s: %v", n.addr, err)
		}
	}
	n.srv, n.cl, n.hs = srv, cl, &http.Server{Handler: srv}
	n.done = make(chan struct{})
	go func(hs *http.Server, ln net.Listener, done chan struct{}) {
		hs.Serve(ln) //nolint:errcheck // closed on kill
		close(done)
	}(n.hs, n.ln, n.done)
	n.ln = nil // consumed; a restart re-listens
}

// stop gracefully stops node i (no-op when already killed).
func (h *clusterHarness) stop(i int) {
	n := h.nodes[i]
	if n.hs == nil {
		return
	}
	n.hs.Close()
	<-n.done
	n.srv.Close()
	n.hs = nil
}

// kill simulates an unclean shard death mid-work: the listener drops and
// live jobs are canceled through an already-expired drain budget, leaving
// the journal exactly as a SIGKILL would — submitted/started, not
// finished.
func (h *clusterHarness) kill(i int) {
	h.t.Helper()
	n := h.nodes[i]
	n.hs.Close()
	<-n.done
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_ = n.srv.Shutdown(ctx)
	cancel()
	n.hs = nil
}

// syncAll runs one manual replication round on every live shard, twice, so
// versions settle regardless of pull order. Dead peers degrade the round,
// they don't fail it.
func (h *clusterHarness) syncAll() {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for round := 0; round < 2; round++ {
		for _, n := range h.nodes {
			if n.hs == nil {
				continue
			}
			_ = n.cl.SyncOnce(ctx) // dead peers are expected in kill tests
		}
	}
}

// live returns a node that is still serving, for ring lookups.
func (h *clusterHarness) live() *harnessNode {
	for _, n := range h.nodes {
		if n.hs != nil {
			return n
		}
	}
	h.t.Fatal("no live node")
	return nil
}

// modelOwnedBy derives a model name the ring assigns to node i.
func (h *clusterHarness) modelOwnedBy(i int, prefix string) string {
	h.t.Helper()
	for k := 0; k < 10000; k++ {
		name := fmt.Sprintf("%s-%d", prefix, k)
		if _, url, _ := h.live().cl.Owner(name); url == h.nodes[i].url {
			return name
		}
	}
	h.t.Fatalf("no model name owned by node %d", i)
	return ""
}

// noRedirectGet fetches without following redirects, exposing the 307s the
// default client hides.
func noRedirectGet(t *testing.T, url string) *http.Response {
	t.Helper()
	c := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// predictWithMinVersion posts a predict pinned to a read-your-writes
// version floor and returns the raw response.
func predictWithMinVersion(t *testing.T, baseURL, name string, minVersion int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/models/"+name+"/predict",
		strings.NewReader(`{"points":[[1,0,0],[0,1,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if minVersion > 0 {
		req.Header.Set("X-RSM-Min-Version", fmt.Sprint(minVersion))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClusterRoutingForwardsToOwner: model-keyed writes submitted to any
// node land on exactly the shard the ring assigns, and reads through any
// node reach them.
func TestClusterRoutingForwardsToOwner(t *testing.T) {
	h := newClusterHarness(t, 3, false, Config{})
	names := make([]string, 3)
	for i := range names {
		names[i] = h.modelOwnedBy(i, "route")
		uploadModel(t, h.nodes[0].url, names[i], 3)
	}
	for i, name := range names {
		for j, n := range h.nodes {
			_, stored := n.srv.registry.Get(name)
			if want := j == i; stored != want {
				t.Errorf("model %s on node %d: stored=%v, want %v (owner %d, pre-sync)", name, j, stored, want, i)
			}
		}
		// Reads route through any node.
		for _, n := range h.nodes {
			resp, err := http.Get(n.url + "/v1/models/" + name)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("info %s via %s: HTTP %d", name, n.url, resp.StatusCode)
			}
			if info := decode[ModelInfo](t, resp); info.Version != 1 {
				t.Fatalf("info %s: version %d, want 1", name, info.Version)
			}
		}
		resp := post(t, h.nodes[2].url+"/v1/models/"+name+"/predict", `{"points":[[1,0,0],[0,1,0]]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s via node 2: HTTP %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Node 0 proxied the two uploads it didn't own, and node 2 at least two
	// of the three predicts.
	if n := metricInt(t, h.nodes[0].url, "cluster", "forwards", "upload"); n != 2 {
		t.Errorf("node 0 upload forwards = %d, want 2", n)
	}
	if n := metricInt(t, h.nodes[2].url, "cluster", "forwards", "predict"); n < 2 {
		t.Errorf("node 2 predict forwards = %d, want >= 2", n)
	}
}

// TestClusterMetricsExposition validates the rsmd_cluster_* exposition
// against a live 2-node ring: one forwarded upload and predict plus one
// replication round must show up as the ring topology, the forwards, the
// pull counters and per-peer health in node 0's scrape.
func TestClusterMetricsExposition(t *testing.T) {
	h := newClusterHarness(t, 2, false, Config{FitWorkers: 1})
	name := h.modelOwnedBy(1, "obscluster")
	uploadModel(t, h.nodes[0].url, name, 2)
	resp := post(t, h.nodes[0].url+"/v1/models/"+name+"/predict", `{"points":[[0.1,-0.2]]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded predict: HTTP %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.nodes[0].cl.SyncOnce(ctx); err != nil {
		t.Fatalf("sync round: %v", err)
	}

	body := scrapeText(t, h.nodes[0].url)
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("cluster exposition invalid: %v", err)
	}
	for _, pat := range []string{
		`rsmd_cluster_enabled 1`,
		`rsmd_cluster_node_info\{node="` + h.nodes[0].cl.SelfName() + `"\} 1`,
		`rsmd_cluster_forwards_total\{kind="upload"\} 1`,
		`rsmd_cluster_forwards_total\{kind="predict"\} 1`,
		`rsmd_cluster_forward_errors_total 0`,
		`rsmd_cluster_syncs_total 1`,
		`rsmd_cluster_versions_pulled_total 1`,
		`rsmd_cluster_checkpoints_pulled_total \d+`,
		`rsmd_cluster_tombstones_applied_total \d+`,
		`rsmd_cluster_peer_up\{peer="[^"]+"\} 1`,
		`rsmd_cluster_peer_lag_versions\{peer="[^"]+"\} 0`,
	} {
		if !regexp.MustCompile(pat).MatchString(body) {
			t.Errorf("cluster exposition: no match for %s\n%s", pat, grepLines(body, "rsmd_cluster_"))
		}
	}
}

// TestClusterJobRoutingAndRedirect: a fit submitted through a non-owner
// carries the owning shard's node prefix in its job ID, and polls through
// any other node 307 home (followed transparently by default clients).
func TestClusterJobRoutingAndRedirect(t *testing.T) {
	h := newClusterHarness(t, 3, false, Config{})
	name := h.modelOwnedBy(1, "jobroute")
	id := submitChaosFit(t, h.nodes[0].url, name)
	wantPrefix := h.nodes[1].cl.SelfName() + "."
	if !strings.HasPrefix(id, wantPrefix) {
		t.Fatalf("job id %q lacks owner prefix %q", id, wantPrefix)
	}
	// Poll through node 2: the default client follows the 307 to node 1.
	st := waitTerminal(t, h.nodes[2].url, id, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("job %s state %s (%s), want done", id, st.State, st.Error)
	}
	// The redirect itself, observed raw.
	resp := noRedirectGet(t, h.nodes[2].url+"/v1/jobs/"+id)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("raw poll via node 2: HTTP %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != h.nodes[1].url+"/v1/jobs/"+id {
		t.Fatalf("Location %q, want %q", loc, h.nodes[1].url+"/v1/jobs/"+id)
	}
	if n := metricInt(t, h.nodes[2].url, "cluster", "redirects"); n < 1 {
		t.Errorf("node 2 redirects = %d, want >= 1", n)
	}
	// A prefix outside the ring falls through to the local 404, not a loop.
	resp, err := http.Get(h.nodes[0].url + "/v1/jobs/zz.job-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-prefix poll: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestClusterReadYourWrites: a client that pins the version its publish
// returned never reads back older state — the floor forwards to the owner
// until the replica catches up, then replica reads serve locally, even
// with the owner dead.
func TestClusterReadYourWrites(t *testing.T) {
	h := newClusterHarness(t, 3, false, Config{})
	owner := 1
	name := h.modelOwnedBy(owner, "ryw")
	proxy := h.nodes[2]
	uploadModel(t, proxy.url, name, 3) // forwarded to the owner

	// Before any sync the replica lacks v1: the floor must forward.
	resp := predictWithMinVersion(t, proxy.url, name, 1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-sync pinned predict: HTTP %d", resp.StatusCode)
	}
	if pr := decode[PredictResponse](t, resp); pr.Version != 1 {
		t.Fatalf("pre-sync pinned predict version %d, want 1", pr.Version)
	}
	if n := metricInt(t, proxy.url, "cluster", "replica_reads"); n != 0 {
		t.Fatalf("replica_reads before sync = %d, want 0", n)
	}

	h.syncAll()

	// After sync the floor is satisfied locally.
	resp = predictWithMinVersion(t, proxy.url, name, 1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-sync pinned predict: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	if n := metricInt(t, proxy.url, "cluster", "replica_reads"); n != 1 {
		t.Fatalf("replica_reads after sync = %d, want 1", n)
	}

	// Kill the owner: pinned reads keep serving from the replica; unpinned
	// reads (which must see the owner's latest) fail fast with Retry-After.
	h.kill(owner)
	resp = predictWithMinVersion(t, proxy.url, name, 1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner-down pinned predict: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = predictWithMinVersion(t, proxy.url, name, 0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("owner-down unpinned predict: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("owner-down 503 carries no Retry-After")
	}
}

// TestClusterDeletePropagates: a delete through any node lands on the
// owner, tombstones the name, and the next sync round removes the replicas
// instead of resurrecting the model; a re-publish resumes past the dead
// version numbers.
func TestClusterDeletePropagates(t *testing.T) {
	h := newClusterHarness(t, 3, false, Config{})
	owner := 0
	name := h.modelOwnedBy(owner, "del")
	uploadModel(t, h.nodes[1].url, name, 3)
	h.syncAll()
	for i, n := range h.nodes {
		if _, ok := n.srv.registry.GetVersion(name, 1); !ok {
			t.Fatalf("node %d lacks %s@v1 after sync", i, name)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, h.nodes[2].url+"/v1/models/"+name, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete via node 2: HTTP %d", resp.StatusCode)
	}
	if dr := decode[DeleteResponse](t, resp); !dr.Deleted || dr.Name != name {
		t.Fatalf("delete response %+v", dr)
	}
	if _, ok := h.nodes[owner].srv.registry.Get(name); ok {
		t.Fatal("owner still stores the deleted model")
	}

	h.syncAll()
	for i, n := range h.nodes {
		if _, ok := n.srv.registry.Get(name); ok {
			t.Fatalf("node %d resurrected deleted model %s after sync", i, name)
		}
	}

	// Re-publish: version numbers resume past the tombstone, cluster-wide.
	uploadModel(t, h.nodes[2].url, name, 3)
	resp, err = http.Get(h.nodes[1].url + "/v1/models/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if info := decode[ModelInfo](t, resp); info.Version != 2 {
		t.Fatalf("re-published version %d, want 2 (past tombstone)", info.Version)
	}
}

// TestChaosClusterShardKillIsolated is the cluster chaos contract: killing
// one shard mid-fit costs exactly that shard's models their availability —
// other shards keep serving through any node, the proxy answers 503 +
// Retry-After for the dead shard's models only, and the journaled fit
// replays to done when the shard comes back. Zero jobs lost, zero errors
// on non-owned shards.
func TestChaosClusterShardKillIsolated(t *testing.T) {
	armFaults(t, "server.fit=delay:60s")
	h := newClusterHarness(t, 3, true, Config{FitWorkers: 1, RequestTimeout: 5 * time.Second})
	victim := 2
	victimModel := h.modelOwnedBy(victim, "victim")
	survivorModel := h.modelOwnedBy(0, "survivor")
	uploadModel(t, h.nodes[0].url, victimModel, 3)
	uploadModel(t, h.nodes[0].url, survivorModel, 3)

	// A fit owned by the victim, submitted through node 0, stalled by the
	// injected 60s delay so the kill lands mid-run.
	fitName := h.modelOwnedBy(victim, "victimfit")
	id := submitChaosFit(t, h.nodes[0].url, fitName)
	if want := h.nodes[victim].cl.SelfName() + "."; !strings.HasPrefix(id, want) {
		t.Fatalf("fit routed to %q, want prefix %q", id, want)
	}
	waitRunning(t, h.nodes[0].url, id)

	h.kill(victim)

	// The dead shard's models 503 with Retry-After through the proxy...
	resp := post(t, h.nodes[0].url+"/v1/models/"+victimModel+"/predict", `{"points":[[1,0,0]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard predict: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("dead-shard 503 carries no Retry-After")
	}
	resp.Body.Close()
	// ...while every live shard's models keep serving via every live node.
	for _, n := range []*harnessNode{h.nodes[0], h.nodes[1]} {
		assertPredicts(t, n.url, survivorModel)
		assertHealthy(t, n.url)
	}

	// Restart: the journal replays the in-flight fit under its original ID
	// and runs it to done; polls through node 0 follow the redirect home.
	faultinject.Reset()
	h.start(victim, Config{FitWorkers: 1, RequestTimeout: 5 * time.Second})
	st := waitTerminal(t, h.nodes[0].url, id, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("replayed fit %s state %s (%s), want done", id, st.State, st.Error)
	}
	if st.RecoveryAttempt == 0 {
		t.Error("replayed fit reports zero recovery attempts")
	}
	// Node 0 marked the victim down while it was dead; forwards resume once
	// the backoff window (capped at 5s) expires.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp := post(t, h.nodes[0].url+"/v1/models/"+victimModel+"/predict", `{"points":[[1,0,0]]}`)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived-shard predict still HTTP %d after backoff window", resp.StatusCode)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
