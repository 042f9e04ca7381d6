package engine

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/resultcache"
)

// TestObservabilityDocInSync is the drift gate for docs/OBSERVABILITY.md:
// every wmm_* metric family registered by engine.New, NewServer or
// resultcache.New must be documented there.
func TestObservabilityDocInSync(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	api := NewServer(eng, ServerOptions{})
	defer api.Shutdown(context.Background())
	resultcache.New(resultcache.Options{Registry: eng.Metrics()})

	var exposition bytes.Buffer
	if err := eng.Metrics().WriteText(&exposition); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`(wmm_[^`]*)`").FindAllStringSubmatch(string(doc), -1) {
		for _, name := range expandMetricNames(m[1]) {
			documented[name] = true
		}
	}
	registered := regexp.MustCompile(`(?m)^# TYPE (wmm_\S+) `).FindAllStringSubmatch(exposition.String(), -1)
	if len(registered) == 0 {
		t.Fatal("no wmm_* families registered")
	}
	for _, m := range registered {
		if !documented[m[1]] {
			t.Errorf("metric family %s is registered but missing from docs/OBSERVABILITY.md", m[1])
		}
	}
}

// expandMetricNames expands one metric token as the doc writes it: a
// trailing label set (`wmm_runs_total{state}`) is dropped, and a brace
// group right after an underscore is an alternation expanding to one
// name per member (`wmm_engine_calibration_cache_{hits,misses}_total`).
func expandMetricNames(tok string) []string {
	if i := strings.LastIndexByte(tok, '{'); i > 0 && tok[i-1] != '_' && strings.HasSuffix(tok, "}") {
		tok = tok[:i]
	}
	i := strings.IndexByte(tok, '{')
	j := strings.IndexByte(tok, '}')
	if i < 0 || j < i {
		return []string{tok}
	}
	var out []string
	for _, alt := range strings.Split(tok[i+1:j], ",") {
		out = append(out, expandMetricNames(tok[:i]+alt+tok[j+1:])...)
	}
	return out
}

func TestExpandMetricNames(t *testing.T) {
	for tok, want := range map[string][]string{
		"wmm_runs_active":                                  {"wmm_runs_active"},
		"wmm_runs_total{state}":                            {"wmm_runs_total"},
		"wmm_http_requests_total{method,path,code}":        {"wmm_http_requests_total"},
		"wmm_engine_calibration_cache_{hits,misses}_total": {"wmm_engine_calibration_cache_hits_total", "wmm_engine_calibration_cache_misses_total"},
		"wmm_{litmus,optimize}_runs_total{state}":          {"wmm_litmus_runs_total", "wmm_optimize_runs_total"},
		"wmm_resultcache_{entries,bytes}":                  {"wmm_resultcache_entries", "wmm_resultcache_bytes"},
	} {
		if got := expandMetricNames(tok); !reflect.DeepEqual(got, want) {
			t.Errorf("expandMetricNames(%q) = %q, want %q", tok, got, want)
		}
	}
}
