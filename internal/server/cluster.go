package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Proxy-layer headers. forwardedHeader marks a request that already made
// one proxy hop — the receiving shard serves it locally, so a stale ring
// can never bounce a request in a loop. minVersionHeader carries the
// client's read-your-writes floor: a non-owner serves the read from its
// local replica iff it already holds at least that version, and forwards
// to the owner otherwise.
const (
	forwardedHeader  = "X-RSM-Forwarded"
	minVersionHeader = "X-RSM-Min-Version"
)

// forwardKinds enumerates the model-keyed route families the proxy can
// forward, so the rsmd_cluster_forwards_total series exist from first
// scrape.
var forwardKinds = []string{"delete", "fit", "info", "pipeline", "predict", "refine", "upload", "yield"}

// proxyRequestHeaders are carried hop-to-hop on a forwarded request.
var proxyRequestHeaders = []string{
	"Content-Type", "Accept", idemKeyHeader, obs.RequestIDHeader, minVersionHeader,
}

// proxyResponseHeaders are copied back from the owning shard's response.
var proxyResponseHeaders = []string{
	"Content-Type", "Retry-After", "Location", idemReplayedHeader,
}

// nodeLabel identifies this node in the forwarded-hop header and the
// metrics exposition: its ring member name, or "proxy" for a stateless
// proxy-only node.
func (s *Server) nodeLabel() string {
	if s.cluster == nil || s.cluster.SelfName() == "" {
		return "proxy"
	}
	return s.cluster.SelfName()
}

// forwardOwned routes a model-keyed write to its owning shard. It reports
// true when it handled (forwarded or fail-fasted) the request; false means
// the caller owns the model — or the node is unclustered, or the request
// already made its one proxy hop — and must serve it locally. raw, when
// non-nil, replaces the already-consumed request body on the forwarded hop.
func (s *Server) forwardOwned(w http.ResponseWriter, r *http.Request, kind, model string, raw []byte) bool {
	if s.cluster == nil || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	node, base, local := s.cluster.Owner(model)
	if local {
		return false
	}
	s.forward(w, r, kind, node, base, raw)
	return true
}

// routeRead is forwardOwned for read paths, honoring the min-version
// replica-read contract: when the client pins a version floor this node
// already holds, the read is served from the local replica — which keeps
// reads flowing while the owner is down — and forwarded to the owner
// otherwise.
func (s *Server) routeRead(w http.ResponseWriter, r *http.Request, kind, model string) bool {
	if s.cluster == nil || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	node, base, local := s.cluster.Owner(model)
	if local {
		return false
	}
	if min, err := strconv.Atoi(r.Header.Get(minVersionHeader)); err == nil && min >= 1 {
		if e, ok := s.registry.Get(model); ok && e.Version >= min {
			s.metrics.add(replicaReads, 1)
			return false
		}
	}
	s.forward(w, r, kind, node, base, nil)
	return true
}

// forward proxies the request to the owning shard. A shard in backoff is
// failed fast with 503 + Retry-After — the chaos contract: a dead shard
// costs its own models availability, not the proxy's connection pool.
// Transport failures mark the peer down; HTTP error statuses prove the
// peer alive and are passed through verbatim.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, kind, node, base string, raw []byte) {
	p := s.cluster.Peer(node)
	if p != nil && !p.Healthy() {
		s.metrics.add(forwardErrors, 1)
		w.Header().Set("Retry-After", retryAfterSeconds(p.RetryAfter()))
		writeErr(w, http.StatusServiceUnavailable, "shard %s owning this model is unavailable (backing off)", node)
		return
	}
	var body io.Reader = r.Body
	if raw != nil {
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), body)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "build forwarded request: %v", err)
		return
	}
	for _, h := range proxyRequestHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(forwardedHeader, s.nodeLabel())
	resp, err := s.proxyHTTP.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			// The client's deadline died, not the peer.
			writeErr(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", r.Context().Err())
			return
		}
		if p != nil {
			p.MarkFailure()
		}
		s.metrics.add(forwardErrors, 1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "shard %s unreachable: %v", node, err)
		return
	}
	defer resp.Body.Close()
	if p != nil {
		p.MarkSuccess()
	}
	s.metrics.countForward(kind)
	for _, h := range proxyResponseHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client gone mid-copy is its own problem
}

// retryAfterSeconds renders a backoff as a Retry-After value, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// jobNode extracts the minting node from a node-prefixed job ID
// ("s1.job-000042" → "s1"); ok is false for unprefixed single-node IDs.
func jobNode(id string) (node string, ok bool) {
	i := strings.IndexByte(id, '.')
	if i <= 0 {
		return "", false
	}
	return id[:i], true
}

// redirectJob answers a poll for a job another shard minted with a 307 to
// that shard, preserving method and path — jobs live only on the node that
// runs them, so polls through any proxy still reach the one authoritative
// status. Unknown prefixes fall through to the local (404) lookup.
func (s *Server) redirectJob(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.cluster == nil {
		return false
	}
	node, ok := jobNode(id)
	if !ok || node == s.cluster.SelfName() {
		return false
	}
	base, known := s.cluster.NodeURL(node)
	if !known {
		return false
	}
	s.metrics.add(redirects, 1)
	w.Header().Set("Location", base+r.URL.RequestURI())
	writeJSON(w, http.StatusTemporaryRedirect,
		ErrorResponse{Error: fmt.Sprintf("job %s lives on shard %s", id, node)})
	return true
}

// handleSyncManifest serves GET /v1/sync: everything this node stores, by
// reference, plus its delete tombstones. It answers on unclustered nodes
// too (node ""), so a single-node registry can be drained into a cluster.
func (s *Server) handleSyncManifest(w http.ResponseWriter, _ *http.Request) {
	node := ""
	if s.cluster != nil {
		node = s.cluster.SelfName()
	}
	writeJSON(w, http.StatusOK, cluster.BuildManifest(s.registry, node))
}

// handleSyncEntry serves GET /v1/sync/models/{name}/{version}: one
// immutable version with its optional checkpoint, as the exact bytes the
// replica should store.
func (s *Server) handleSyncEntry(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	version, err := strconv.Atoi(r.PathValue("version"))
	if err != nil || version < 1 {
		writeErr(w, http.StatusBadRequest, "bad version %q", r.PathValue("version"))
		return
	}
	entry, ok := cluster.BuildEntry(s.registry, name, version)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown version %s@v%d", name, version)
		return
	}
	writeJSON(w, http.StatusOK, entry)
}

// handleModelDelete removes every stored version of a model. The delete is
// recorded as a tombstone first, so replicas converge to the removal (and
// a later re-publish resumes past the dead version numbers) instead of
// resurrecting the model on the next sync round.
func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.forwardOwned(w, r, "delete", name, nil) {
		return
	}
	if err := s.registry.Delete(name); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	if s.predCache != nil {
		s.predCache.invalidate(name)
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Name: name, Deleted: true})
}
