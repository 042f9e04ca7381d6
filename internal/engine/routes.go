package engine

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
)

// LegacySunset is the sunset date advertised (RFC 8594 Sunset header)
// on every legacy unversioned route.  After this date a release may
// flip ServerOptions.DisableLegacy on by default; until then legacy
// requests are answered normally with deprecation headers attached.
const LegacySunset = "Thu, 31 Dec 2026 00:00:00 GMT"

// apiRoute is one row of the wmmd route table.
type apiRoute struct {
	Method string
	Path   string // Go 1.22 ServeMux pattern, "{id}" wildcards allowed
	Desc   string // one-line contract, rendered into docs/api-v1.json
	// Legacy marks a pre-v1 unversioned shim: it serves with
	// Deprecation/Sunset headers (or 410 gone under DisableLegacy) and
	// is excluded from the v1 fallback's Allow computation.
	Legacy    bool
	Successor string // v1 pattern a legacy route forwards clients to
	handler   func(s *Server) http.HandlerFunc
}

// routeTable is the single source of truth for the HTTP surface.
// Handler() registers the mux from it, handleV1Fallback computes 405
// Allow sets from it, and APIDoc() renders docs/api-v1.json from it —
// so a route cannot be served but undocumented, or documented but
// unserved (TestAPIDocInSync pins the committed copy).
var routeTable = []apiRoute{
	// Operational, unversioned by convention.
	{Method: "GET", Path: "/healthz", Desc: "liveness and worker count",
		handler: func(s *Server) http.HandlerFunc { return s.handleHealthz }},
	{Method: "GET", Path: "/readyz", Desc: "readiness: engine up, store writable",
		handler: func(s *Server) http.HandlerFunc { return s.handleReadyz }},
	{Method: "GET", Path: "/metrics", Desc: "Prometheus text exposition",
		handler: func(s *Server) http.HandlerFunc { return s.eng.Metrics().Handler().ServeHTTP }},

	// v1: the versioned surface.  Every job resource (runs, litmus,
	// optimize) shares the async-job envelope: paginated list pages
	// {items, next_after}, statuses with id/kind/state/tenant/
	// started_at/finished_at, DELETE for cancel-or-remove, and
	// ?canonical=1 for byte-stable result JSON.
	{Method: "GET", Path: "/api/v1/experiments", Desc: "experiment catalogue (?limit=&after=)",
		handler: func(s *Server) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) { s.handleExperiments(w, r, false) }
		}},
	{Method: "POST", Path: "/api/v1/runs", Desc: "submit an experiment run (RunSpec); 429 + Retry-After under saturation",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobSubmit(runKind) }},
	{Method: "GET", Path: "/api/v1/runs", Desc: "run statuses (?limit=&after=)",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobList(runKind, false) }},
	{Method: "GET", Path: "/api/v1/runs/{id}", Desc: "run status; ?results=1 partial results, ?stream=1 NDJSON progress, ?canonical=1 canonical result JSON",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobStatus(runKind) }},
	{Method: "DELETE", Path: "/api/v1/runs/{id}", Desc: "cancel a running run / remove a finished one",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobCancel(runKind) }},
	{Method: "POST", Path: "/api/v1/litmus", Desc: "submit a generated litmus campaign (LitmusSpec)",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobSubmit(litmusKind) }},
	{Method: "GET", Path: "/api/v1/litmus", Desc: "litmus campaign statuses (?limit=&after=)",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobList(litmusKind, false) }},
	{Method: "GET", Path: "/api/v1/litmus/{id}", Desc: "campaign status; ?results=1 partial results, ?canonical=1 canonical shard-result JSON",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobStatus(litmusKind) }},
	{Method: "DELETE", Path: "/api/v1/litmus/{id}", Desc: "cancel a running campaign / remove a finished one",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobCancel(litmusKind) }},
	{Method: "POST", Path: "/api/v1/optimize", Desc: "submit a fence-strategy optimizer job (OptimizeSpec)",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobSubmit(optimizeKind) }},
	{Method: "GET", Path: "/api/v1/optimize", Desc: "optimizer job statuses (?limit=&after=)",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobList(optimizeKind, false) }},
	{Method: "GET", Path: "/api/v1/optimize/{id}", Desc: "optimizer job status; ?canonical=1 serves the canonical report JSON",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobStatus(optimizeKind) }},
	{Method: "DELETE", Path: "/api/v1/optimize/{id}", Desc: "cancel a running optimizer job / remove a finished one",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobCancel(optimizeKind) }},
	{Method: "POST", Path: "/api/v1/leases", Desc: "worker lease: grab a batch of jobs (sharded backend)",
		handler: func(s *Server) http.HandlerFunc { return s.handleLease }},
	{Method: "POST", Path: "/api/v1/leases/{id}/heartbeat", Desc: "renew a worker lease",
		handler: func(s *Server) http.HandlerFunc { return s.handleHeartbeat }},
	{Method: "POST", Path: "/api/v1/leases/{id}/results", Desc: "upload a lease's batch results",
		handler: func(s *Server) http.HandlerFunc { return s.handleLeaseResults }},

	// Legacy unversioned shims over the same handlers.  List responses
	// keep their original bare-array shape (no pagination envelope).
	{Method: "GET", Path: "/experiments", Desc: "legacy experiment catalogue (bare array)",
		Legacy: true, Successor: "/api/v1/experiments",
		handler: func(s *Server) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) { s.handleExperiments(w, r, true) }
		}},
	{Method: "POST", Path: "/runs", Desc: "legacy run submission",
		Legacy: true, Successor: "/api/v1/runs",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobSubmit(runKind) }},
	{Method: "GET", Path: "/runs", Desc: "legacy run statuses (bare array)",
		Legacy: true, Successor: "/api/v1/runs",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobList(runKind, true) }},
	{Method: "GET", Path: "/runs/{id}", Desc: "legacy run status",
		Legacy: true, Successor: "/api/v1/runs/{id}",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobStatus(runKind) }},
	{Method: "DELETE", Path: "/runs/{id}", Desc: "legacy run cancel/remove",
		Legacy: true, Successor: "/api/v1/runs/{id}",
		handler: func(s *Server) http.HandlerFunc { return s.handleJobCancel(runKind) }},
}

// deprecated wraps a legacy shim with the deprecation headers (RFC
// 8594-style): Deprecation, the fixed Sunset date, and a
// successor-version Link.  The first legacy hit after startup logs a
// one-line migration warning.  With ServerOptions.DisableLegacy the
// shim instead answers 410 gone, naming the successor — the dress
// rehearsal for removing the routes outright after LegacySunset.
func (s *Server) deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.disableLegacy {
			writeErr(w, http.StatusGone, ErrCodeGone,
				"legacy route %s %s has been sunset; use %s", r.Method, r.URL.Path, successor)
			return
		}
		s.legacyWarn.Do(func() {
			log.Printf("wmmd: legacy unversioned route %s %s in use; migrate to %s before the %s sunset (docs/API.md has the mapping)",
				r.Method, r.URL.Path, successor, LegacySunset)
		})
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", LegacySunset)
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		h(w, r)
	}
}

// handleV1Fallback answers requests under /api/v1/ that no registered
// route matched.  Go's ServeMux would serve plain-text 404/405 here;
// a versioned JSON API should fail in the same error envelope as every
// other response, and a wrong-method request should still learn the
// Allow set — computed from the route table, so it cannot drift from
// what is actually registered.
func (s *Server) handleV1Fallback(w http.ResponseWriter, r *http.Request) {
	allow := map[string]bool{}
	for _, rt := range routeTable {
		if !rt.Legacy && patternMatches(rt.Path, r.URL.Path) {
			allow[rt.Method] = true
		}
	}
	if len(allow) > 0 {
		methods := make([]string, 0, len(allow))
		for m := range allow {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		w.Header().Set("Allow", strings.Join(methods, ", "))
		writeErr(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
			"method %s is not allowed on %s (allowed: %s)", r.Method, r.URL.Path, strings.Join(methods, ", "))
		return
	}
	writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no v1 route matches %s", r.URL.Path)
}

// patternMatches reports whether a concrete request path matches a
// route pattern segment-wise; "{id}"-style wildcards match any single
// non-empty segment.
func patternMatches(pattern, path string) bool {
	ps := strings.Split(pattern, "/")
	qs := strings.Split(path, "/")
	if len(ps) != len(qs) {
		return false
	}
	for i, seg := range ps {
		if strings.HasPrefix(seg, "{") && strings.HasSuffix(seg, "}") {
			if qs[i] == "" {
				return false
			}
			continue
		}
		if seg != qs[i] {
			return false
		}
	}
	return true
}

// APIDoc renders the machine-readable API description from the route
// table.  `wmmd -print-api-doc` emits it; docs/api-v1.json is the
// committed copy and TestAPIDocInSync fails the build when they drift.
func APIDoc() []byte {
	type docRoute struct {
		Method    string `json:"method"`
		Path      string `json:"path"`
		Desc      string `json:"desc"`
		Legacy    bool   `json:"legacy,omitempty"`
		Successor string `json:"successor,omitempty"`
		Sunset    string `json:"sunset,omitempty"`
	}
	doc := struct {
		Version    string     `json:"version"`
		ErrorCodes []string   `json:"error_codes"`
		Routes     []docRoute `json:"routes"`
	}{
		Version: "v1",
		ErrorCodes: []string{
			ErrCodeInvalidArgument, ErrCodeNotFound, ErrCodeConflict,
			ErrCodeSaturated, ErrCodeUnavailable, ErrCodeLeaseGone,
			ErrCodeMethodNotAllowed, ErrCodeGone,
		},
	}
	for _, rt := range routeTable {
		d := docRoute{Method: rt.Method, Path: rt.Path, Desc: rt.Desc,
			Legacy: rt.Legacy, Successor: rt.Successor}
		if rt.Legacy {
			d.Sunset = LegacySunset
		}
		doc.Routes = append(doc.Routes, d)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the table is static data; this cannot fail
	}
	return append(b, '\n')
}
