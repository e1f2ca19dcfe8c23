package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// schemaVersion is folded into every cache key. Bump it whenever the
// simulator, workload generators, or policies change behavior, so stale
// on-disk artifacts from older binaries can never satisfy new runs.
const schemaVersion = 1

// TraceKey identifies one generated benchmark trace. Two submissions
// with equal keys are guaranteed (by the deterministic workload
// generators) to describe byte-identical traces.
type TraceKey struct {
	Bench string
	Insts int
	Seed  uint64
}

// String returns the canonical form used for dedup and hashing.
func (k TraceKey) String() string {
	return fmt.Sprintf("v%d|trace|bench=%s|insts=%d|seed=%d",
		schemaVersion, k.Bench, k.Insts, k.Seed)
}

// SimKey identifies one (benchmark, cluster-config, policy-stack,
// forwarding-latency, seed) simulation. It is the unit of deduplication
// across figure drivers: Figures 4, 5 and 14 all submit the focused
// stack on the clustered configurations, and all of them resolve to the
// same keys.
type SimKey struct {
	Bench    string
	Insts    int
	Seed     uint64
	Fwd      int
	EpochLen int64
	Clusters int
	Stack    string
	// TrackExact marks runs that additionally record unlimited-precision
	// criticality frequencies. It is part of the key (rather than a
	// Need) so a cached artifact always carries exactly the
	// instrumentation its key promises.
	TrackExact bool
	// Knob, when set, is an ablation's departure from Stack (a window
	// size, a bypass limit, a predictor seed tag, ...) in the
	// submitter's canonical encoding; the engine treats it as opaque. It
	// must not contain '|'.
	Knob string
}

// String returns the canonical form used for dedup and hashing. The
// knob field appears only when set, so keys without one keep the form
// they always had and existing disk caches and resume journals still
// resolve.
func (k SimKey) String() string {
	s := fmt.Sprintf("v%d|sim|bench=%s|insts=%d|seed=%d|fwd=%d|epoch=%d|clusters=%d|stack=%s|exact=%t",
		schemaVersion, k.Bench, k.Insts, k.Seed, k.Fwd, k.EpochLen, k.Clusters, k.Stack, k.TrackExact)
	if k.Knob != "" {
		s += "|knob=" + k.Knob
	}
	return s
}

// Trace returns the key of the trace the simulation runs over.
func (k SimKey) Trace() TraceKey {
	return TraceKey{Bench: k.Bench, Insts: k.Insts, Seed: k.Seed}
}

// hashKey content-addresses a canonical key string for on-disk file
// names.
func hashKey(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:16])
}

// Need declares which artifacts of a simulation a submitter will read.
// The engine uses it to decide whether a partially materialized cache
// entry (for example a result loaded from disk, which has no live
// machine) can satisfy a request or whether the simulation must run.
type Need uint8

const (
	// NeedResult asks only for the machine.Result summary.
	NeedResult Need = 1 << iota
	// NeedMachine asks for the live post-run machine (critical-path
	// analysis, slack computation, list-scheduler harvesting).
	NeedMachine
	// NeedExact asks for the unlimited-precision criticality tracker;
	// only meaningful with SimKey.TrackExact set.
	NeedExact
)

// String renders the need set (for errors and tests).
func (n Need) String() string {
	s := ""
	add := func(name string) {
		if s != "" {
			s += "+"
		}
		s += name
	}
	if n&NeedResult != 0 {
		add("result")
	}
	if n&NeedMachine != 0 {
		add("machine")
	}
	if n&NeedExact != 0 {
		add("exact")
	}
	if s == "" {
		s = "none"
	}
	return s
}
