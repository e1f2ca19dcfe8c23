package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// tookLine matches the per-experiment timing lines `clustersim` prints
// between figures; they are host time, not output, so the gate strips
// them.
var tookLine = regexp.MustCompile(`^\[[A-Za-z0-9-]+ took [0-9.]+s\]$`)

// normalizeOutput drops the `[<exp> took Ns]` lines from a run's stdout,
// leaving exactly the bytes the figures consist of.
func normalizeOutput(stdout []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(stdout, []byte("\n")) {
		if tookLine.Match(bytes.TrimRight(line, "\n")) {
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// committedDigests are the output and simulated-statistics digests of
// the code the benchmark was defined on, keyed by digestKey. A run whose
// key is listed must reproduce the digest exactly.
//
//go:embed digests.json
var committedDigestsJSON []byte

// gate checks digests against the committed table and, for keys the
// table lacks, against the first digest this checkout saw for the key
// (kept in a file under the work directory).
type gate struct {
	committed map[string]string
	localPath string
	local     map[string]string
}

func newGate(workDir string) (*gate, error) {
	g := &gate{localPath: filepath.Join(workDir, "digests.json"), local: map[string]string{}}
	if err := json.Unmarshal(committedDigestsJSON, &g.committed); err != nil {
		return nil, fmt.Errorf("committed digests: %w", err)
	}
	if b, err := os.ReadFile(g.localPath); err == nil {
		if err := json.Unmarshal(b, &g.local); err != nil {
			return nil, fmt.Errorf("%s: %w", g.localPath, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return g, nil
}

// digestKey names what a digest covers: the kind of output and the
// inputs that determine it.
func digestKey(kind string, n int, seed uint64) string {
	return fmt.Sprintf("%s n=%d seed=%d benchmarks=all", kind, n, seed)
}

// check returns an error when got differs from the digest recorded for
// key; a key seen for the first time is recorded.
func (g *gate) check(key, got string) error {
	if want, ok := g.committed[key]; ok {
		if want != got {
			return fmt.Errorf("%s: digest %.12s, committed %.12s", key, got, want)
		}
		return nil
	}
	if want, ok := g.local[key]; ok {
		if want != got {
			return fmt.Errorf("%s: digest %.12s, first seen %.12s", key, got, want)
		}
		return nil
	}
	g.local[key] = got
	b, err := json.MarshalIndent(g.local, "", "  ")
	if err != nil {
		return err
	}
	tmp := g.localPath + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, g.localPath)
}
