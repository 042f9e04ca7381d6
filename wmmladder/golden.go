package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/engine"
)

// golden.json holds the SHA-256 of every output the workloads check —
// canonical run, litmus and optimize JSON, and exhaustive outcome sets —
// keyed by the input that produced it, recorded for one engine version.
// Re-record it (run.sh ... -record wmmladder/golden.json over seeds 1-4
// and every workload) when a change legitimately alters outputs and bumps
// engine.EngineVersion.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Engine  string            `json:"engine"`
	Digests map[string]string `json:"digests"`
}

// golden checks outputs against the recorded digests, or, in record mode,
// collects them.
type golden struct {
	mu     sync.Mutex
	file   goldenFile
	record bool
}

// mismatchError marks a failed output check: the run reports
// "correct": false instead of timings.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return e.msg }

func mismatch(format string, args ...any) error {
	return &mismatchError{msg: fmt.Sprintf(format, args...)}
}

func loadGolden(recordPath string) (*golden, error) {
	g := &golden{record: recordPath != ""}
	src := goldenJSON
	if g.record {
		// Merge into an existing record file so seeds can be recorded
		// one run at a time.
		if data, err := os.ReadFile(recordPath); err == nil {
			src = data
		}
	}
	if err := json.Unmarshal(src, &g.file); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if g.file.Digests == nil {
		g.file.Digests = map[string]string{}
	}
	if g.record {
		if g.file.Engine != engine.EngineVersion {
			g.file = goldenFile{Engine: engine.EngineVersion, Digests: map[string]string{}}
		}
		return g, nil
	}
	if g.file.Engine != engine.EngineVersion {
		return nil, fmt.Errorf("golden digests were recorded for %s, the tree is %s: re-record them",
			g.file.Engine, engine.EngineVersion)
	}
	return g, nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// check compares data's digest with the one recorded for key.
func (g *golden) check(key string, data []byte) error {
	d := digest(data)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.record {
		g.file.Digests[key] = d
		return nil
	}
	want, ok := g.file.Digests[key]
	if !ok {
		return mismatch("no golden digest recorded for %s", key)
	}
	if want != d {
		return mismatch("%s: output digest %s, golden %s", key, d[:12], want[:12])
	}
	return nil
}

func (g *golden) save(path string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	data, err := json.MarshalIndent(g.file, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wmmladder: %d digests recorded in %s\n", len(g.file.Digests), path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
