package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// DefaultSyncInterval is the replicator's pull period when
// Config.SyncInterval is zero.
const DefaultSyncInterval = 2 * time.Second

// Config wires a node into a cluster.
type Config struct {
	// Self is this node's own base URL. It must appear in Peers when the
	// node is a shard. An empty Self makes the node a stateless proxy: it
	// joins no ring arc, stores no replicas, and forwards every model
	// operation to the owning shard.
	Self string
	// Peers is the full shard list (base URLs, including Self for shard
	// nodes). Every process must be handed the same set — member names and
	// ring ownership are derived from it deterministically.
	Peers []string
	// VNodes is the virtual-node count per member (DefaultVNodes when 0).
	VNodes int
	// SyncInterval is the replicator's pull period (DefaultSyncInterval
	// when 0, negative disables the background loop; SyncOnce still works).
	SyncInterval time.Duration
	// HTTP is the client used for sync pulls (http.DefaultClient when nil).
	HTTP *http.Client
	// Logger receives sync and health events (slog.Default when nil).
	Logger *slog.Logger
}

// Cluster is one node's view of the shard ring: ownership lookups, peer
// health, and the background registry replicator.
type Cluster struct {
	reg      Registry
	ring     *Ring
	selfName string // "" for a proxy-only node
	selfURL  string
	peers    map[string]*Peer // by member name; excludes self
	urls     map[string]string
	interval time.Duration
	httpc    *http.Client
	log      *slog.Logger

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	syncs             atomic.Uint64
	syncErrors        atomic.Uint64
	versionsPulled    atomic.Uint64
	checkpointsPulled atomic.Uint64
	tombstonesApplied atomic.Uint64
}

// Registry is the store surface the replicator needs; *registry.Registry
// implements it.
type Registry interface {
	GetVersion(name string, version int) (*registry.Entry, bool)
	PutReplica(name string, version int, env *core.Envelope, createdAt time.Time) error
	ApplyTombstone(name string, version int) error
	PutCheckpointBlob(data []byte) error
	HasCheckpoint(name string, version int) bool
	Tombstones() map[string]int
}

var _ Registry = (*registry.Registry)(nil)

// New builds a node's cluster view. reg may be nil for a proxy-only node
// (Self == ""); shard nodes must pass their serving registry.
func New(reg Registry, cfg Config) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	urls := make([]string, 0, len(cfg.Peers))
	seen := make(map[string]bool, len(cfg.Peers))
	for _, raw := range cfg.Peers {
		u, err := normalizeURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", u)
		}
		seen[u] = true
		urls = append(urls, u)
	}
	// Deterministic member names: s<i> in sorted-URL order, so every
	// process handed the same peer set agrees on names without coordination.
	sort.Strings(urls)
	members := make([]Member, len(urls))
	urlByName := make(map[string]string, len(urls))
	for i, u := range urls {
		members[i] = Member{Name: fmt.Sprintf("s%d", i), ID: u}
		urlByName[members[i].Name] = u
	}
	ring, err := NewRing(members, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		reg:      reg,
		ring:     ring,
		urls:     urlByName,
		peers:    make(map[string]*Peer, len(urls)),
		interval: cfg.SyncInterval,
		httpc:    cfg.HTTP,
		log:      cfg.Logger,
		stop:     make(chan struct{}),
	}
	if c.interval == 0 {
		c.interval = DefaultSyncInterval
	}
	if c.httpc == nil {
		c.httpc = http.DefaultClient
	}
	if c.log == nil {
		c.log = slog.Default()
	}
	if cfg.Self != "" {
		selfURL, err := normalizeURL(cfg.Self)
		if err != nil {
			return nil, err
		}
		for _, m := range members {
			if m.ID == selfURL {
				c.selfName, c.selfURL = m.Name, selfURL
			}
		}
		if c.selfName == "" {
			return nil, fmt.Errorf("cluster: self %s not in peer list", selfURL)
		}
		if reg == nil {
			return nil, fmt.Errorf("cluster: shard node needs a registry")
		}
	}
	for _, m := range members {
		if m.Name == c.selfName {
			continue
		}
		c.peers[m.Name] = &Peer{Name: m.Name, URL: m.ID}
	}
	return c, nil
}

// normalizeURL validates and canonicalizes a peer base URL.
func normalizeURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("cluster: peer %q is not an absolute URL", raw)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: peer %q: unsupported scheme %s", raw, u.Scheme)
	}
	return u.Scheme + "://" + u.Host + u.Path, nil
}

// SelfName returns this node's member name, or "" for a proxy-only node.
func (c *Cluster) SelfName() string { return c.selfName }

// Owner resolves the shard owning model: its member name, base URL, and
// whether that shard is this very node.
func (c *Cluster) Owner(model string) (name, baseURL string, local bool) {
	name = c.ring.Owner(model)
	return name, c.urls[name], name == c.selfName
}

// NodeURL returns the base URL of a member name (ok=false for unknown
// names — e.g. a job ID minted by a node outside this cluster).
func (c *Cluster) NodeURL(name string) (string, bool) {
	u, ok := c.urls[name]
	return u, ok
}

// Peer returns the health tracker of a member name (nil for self or
// unknown names).
func (c *Cluster) Peer(name string) *Peer { return c.peers[name] }

// Peers returns every remote peer, sorted by member name.
func (c *Cluster) Peers() []*Peer {
	out := make([]*Peer, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Start launches the background replicator. Proxy-only nodes (no local
// store) and non-positive sync intervals skip it; Close is required either
// way.
func (c *Cluster) Start() {
	if c.selfName == "" || c.interval <= 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), c.interval*5)
				if err := c.SyncOnce(ctx); err != nil {
					c.log.Debug("cluster: sync round incomplete", "error", err.Error())
				}
				cancel()
			}
		}
	}()
}

// Close stops the replicator and waits for an in-flight round to finish.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// SyncManifest is the body of GET /v1/sync: everything a peer holds, by
// reference. Versions are immutable and never reused, so the manifest is a
// complete, conflict-free description of the peer's store.
type SyncManifest struct {
	// Node is the serving node's member name ("" when unclustered).
	Node string `json:"node"`
	// Versions lists every stored (name, version) pair.
	Versions []registry.VersionRecord `json:"versions"`
	// Tombstones maps deleted names to the highest version the delete
	// covered.
	Tombstones map[string]int `json:"tombstones,omitempty"`
}

// SyncEntry is the body of GET /v1/sync/models/{name}/{version}: one
// immutable version with its optional refit checkpoint, as raw bytes so
// the replica stores exactly what the owner has.
type SyncEntry struct {
	Name       string          `json:"name"`
	Version    int             `json:"version"`
	CreatedAt  time.Time       `json:"created_at"`
	Envelope   json.RawMessage `json:"envelope"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// SyncOnce runs one pull round against every healthy peer: fetch the
// manifest, apply tombstones, then fetch and store each version this node
// lacks. Errors against one peer don't stop the round; the first error is
// returned after all peers were attempted.
func (c *Cluster) SyncOnce(ctx context.Context) error {
	if c.selfName == "" {
		return fmt.Errorf("cluster: proxy-only node does not replicate")
	}
	var firstErr error
	for _, p := range c.Peers() {
		if !p.Healthy() {
			continue
		}
		pulled, lag, err := c.syncPeer(ctx, p)
		if err != nil {
			c.syncErrors.Add(1)
			p.MarkFailure()
			if firstErr == nil {
				firstErr = fmt.Errorf("peer %s: %w", p.Name, err)
			}
			continue
		}
		p.MarkSuccess()
		p.markSynced(lag)
		if pulled > 0 {
			c.log.Info("cluster: synced from peer",
				"peer", p.Name, "pulled", pulled, "lag", lag)
		}
	}
	c.syncs.Add(1)
	return firstErr
}

// syncPeer pulls one peer's manifest and the versions this node lacks.
// pulled counts versions stored this round; lag counts versions the peer
// advertises that are still missing locally afterwards (fetch failures).
func (c *Cluster) syncPeer(ctx context.Context, p *Peer) (pulled, lag int, err error) {
	var m SyncManifest
	if err := c.getJSON(ctx, p.URL+"/v1/sync", &m); err != nil {
		return 0, 0, err
	}
	for name, version := range m.Tombstones {
		if err := c.reg.ApplyTombstone(name, version); err != nil {
			c.log.Warn("cluster: tombstone rejected", "peer", p.Name,
				"model", name, "version", version, "error", err.Error())
			continue
		}
		c.tombstonesApplied.Add(1)
	}
	local := c.reg.Tombstones()
	for _, v := range m.Versions {
		if v.Version <= local[v.Name] {
			continue // deleted locally; the peer will learn via our manifest
		}
		_, have := c.reg.GetVersion(v.Name, v.Version)
		if have && (!v.HasCheckpoint || c.reg.HasCheckpoint(v.Name, v.Version)) {
			continue
		}
		if err := c.pullVersion(ctx, p, v.Name, v.Version); err != nil {
			lag++
			c.log.Warn("cluster: version pull failed", "peer", p.Name,
				"model", v.Name, "version", v.Version, "error", err.Error())
			continue
		}
		if !have {
			pulled++
		}
	}
	return pulled, lag, nil
}

// pullVersion fetches and stores one (name, version) from a peer. The
// envelope passes full validation inside PutReplica before it is persisted
// — a torn or malformed sync payload never lands on disk (the quarantine
// contract extends to replication).
func (c *Cluster) pullVersion(ctx context.Context, p *Peer, name string, version int) error {
	var e SyncEntry
	path := fmt.Sprintf("%s/v1/sync/models/%s/%d", p.URL, url.PathEscape(name), version)
	if err := c.getJSON(ctx, path, &e); err != nil {
		return err
	}
	if e.Name != name || e.Version != version {
		return fmt.Errorf("cluster: peer served %s@v%d for %s@v%d", e.Name, e.Version, name, version)
	}
	env, err := core.ReadEnvelope(bytes.NewReader(e.Envelope))
	if err != nil {
		return fmt.Errorf("cluster: envelope from peer: %w", err)
	}
	if err := c.reg.PutReplica(name, version, env, e.CreatedAt); err != nil {
		return err
	}
	c.versionsPulled.Add(1)
	if len(e.Checkpoint) > 0 && !c.reg.HasCheckpoint(name, version) {
		if err := c.reg.PutCheckpointBlob(e.Checkpoint); err != nil {
			// The model synced fine; a bad checkpoint only costs a warm
			// refine start on this replica.
			c.log.Warn("cluster: checkpoint from peer rejected",
				"peer", p.Name, "model", name, "version", version, "error", err.Error())
			return nil
		}
		c.checkpointsPulled.Add(1)
	}
	return nil
}

// getJSON fetches url and decodes its JSON body, bounding reads to 256 MiB.
func (c *Cluster) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(out)
}

// Stats is a snapshot of the replicator counters and peer health for the
// metrics endpoint.
type Stats struct {
	Syncs             uint64   `json:"syncs"`
	SyncErrors        uint64   `json:"sync_errors"`
	VersionsPulled    uint64   `json:"versions_pulled"`
	CheckpointsPulled uint64   `json:"checkpoints_pulled"`
	TombstonesApplied uint64   `json:"tombstones_applied"`
	Peers             []Status `json:"peers"`
}

// Stats snapshots the cluster.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Syncs:             c.syncs.Load(),
		SyncErrors:        c.syncErrors.Load(),
		VersionsPulled:    c.versionsPulled.Load(),
		CheckpointsPulled: c.checkpointsPulled.Load(),
		TombstonesApplied: c.tombstonesApplied.Load(),
	}
	for _, p := range c.Peers() {
		s.Peers = append(s.Peers, p.Status())
	}
	return s
}

// BuildManifest renders a node's registry as a sync manifest — the server
// half of GET /v1/sync. It works for unclustered nodes too (node == "").
func BuildManifest(reg interface {
	VersionsAll() []registry.VersionRecord
	Tombstones() map[string]int
}, node string) SyncManifest {
	m := SyncManifest{Node: node, Versions: reg.VersionsAll(), Tombstones: reg.Tombstones()}
	if len(m.Tombstones) == 0 {
		m.Tombstones = nil
	}
	if m.Versions == nil {
		m.Versions = []registry.VersionRecord{}
	}
	return m
}

// BuildEntry renders one stored version as a sync entry — the server half
// of GET /v1/sync/models/{name}/{version}.
func BuildEntry(reg interface {
	GetVersion(name string, version int) (*registry.Entry, bool)
	EnvelopeBytes(name string, version int) ([]byte, bool)
	CheckpointBlob(name string, version int) ([]byte, bool)
}, name string, version int) (*SyncEntry, bool) {
	e, ok := reg.GetVersion(name, version)
	if !ok {
		return nil, false
	}
	blob, ok := reg.EnvelopeBytes(name, version)
	if !ok {
		return nil, false
	}
	entry := &SyncEntry{Name: name, Version: version, CreatedAt: e.CreatedAt, Envelope: blob}
	if ck, ok := reg.CheckpointBlob(name, version); ok {
		entry.Checkpoint = ck
	}
	return entry, true
}
