package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"clustersim/internal/critpath"
	"clustersim/internal/engine"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/xrand"
)

// knob is an ablation's departure from its policy stack. The zero value
// is the plain stack. Its canonical encoding (String) is the SimKey's
// Knob field, and buildStack decodes it back, so everything that
// determines an ablation run lives in the run's cache key.
type knob struct {
	// locTag replaces the stack's "loc" seed tag for the LoC predictor's
	// randomized counters ("win-loc", "bw-loc", ...).
	locTag string
	// window overrides the per-cluster scheduling window (0 keeps the
	// geometry's default).
	window int
	// bypass limits global bypass broadcasts per cluster per cycle (0 is
	// unlimited, the default).
	bypass int
	// predBits sizes the binary and LoC tables at 2^predBits entries (0
	// keeps the default sizes).
	predBits uint
	// group steers each dispatch group against start-of-cycle state.
	group bool
	// stall is the stall-over-steer LoC threshold (0 means
	// steer.DefaultStallThreshold).
	stall float64
	// policy replaces the stack's steering policy: "readybalance" for
	// steer.ReadyBalance.
	policy string
	// detector selects the online criticality detector: "" for the
	// epoch-graph detector, "token" for the token-passing one.
	detector string
}

// String is the canonical encoding: set fields only, in a fixed order.
// A stall threshold equal to the default is the plain policy and encodes
// as such, so that sweep point shares the stack's key.
func (k knob) String() string {
	var parts []string
	add := func(name, val string) { parts = append(parts, name+"="+val) }
	if k.locTag != "" {
		add("loc", k.locTag)
	}
	if k.window != 0 {
		add("window", strconv.Itoa(k.window))
	}
	if k.bypass != 0 {
		add("bypass", strconv.Itoa(k.bypass))
	}
	if k.predBits != 0 {
		add("bits", strconv.FormatUint(uint64(k.predBits), 10))
	}
	if k.group {
		add("group", "true")
	}
	if k.stall != 0 && k.stall != steer.DefaultStallThreshold {
		add("stall", strconv.FormatFloat(k.stall, 'g', -1, 64))
	}
	if k.policy != "" {
		add("policy", k.policy)
	}
	if k.detector != "" {
		add("detector", k.detector)
	}
	return strings.Join(parts, ",")
}

// parseKnob decodes String's encoding.
func parseKnob(s string) (knob, error) {
	var k knob
	if s == "" {
		return k, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return knob{}, fmt.Errorf("experiments: malformed knob field %q", part)
		}
		var err error
		switch name {
		case "loc":
			k.locTag = val
		case "window":
			k.window, err = strconv.Atoi(val)
		case "bypass":
			k.bypass, err = strconv.Atoi(val)
		case "bits":
			var b uint64
			b, err = strconv.ParseUint(val, 10, 8)
			k.predBits = uint(b)
		case "group":
			k.group, err = strconv.ParseBool(val)
		case "stall":
			k.stall, err = strconv.ParseFloat(val, 64)
		case "policy":
			if val != "readybalance" {
				err = fmt.Errorf("unknown policy")
			}
			k.policy = val
		case "detector":
			if val != "token" {
				err = fmt.Errorf("unknown detector")
			}
			k.detector = val
		default:
			err = fmt.Errorf("unknown field")
		}
		if err != nil {
			return knob{}, fmt.Errorf("experiments: knob field %q: %v", part, err)
		}
	}
	return k, nil
}

// stackSetup is the fully-built machine recipe for one SimKey.
type stackSetup struct {
	cfg   machine.Config
	pol   machine.SteerPolicy
	hooks machine.Hooks
	// bind attaches the online criticality detector to the built
	// machine; nil for StackDepBased.
	bind  func(*machine.Machine)
	exact *predictor.Exact // nil unless key.TrackExact
}

// buildStack constructs the machine configuration, policy, hooks and
// (for criticality stacks) the online detector for one job from its key
// alone, without running anything. It is the only place a run's machine
// is built, so everything a run depends on is in its key — the purity
// contract the engine's caching relies on.
func buildStack(key engine.SimKey) (stackSetup, error) {
	kn, err := parseKnob(key.Knob)
	if err != nil {
		return stackSetup{}, err
	}
	stack := Stack(key.Stack)
	cfg := machine.NewConfig(key.Clusters)
	cfg.FwdLatency = key.Fwd
	hooks := machine.Hooks{EpochLen: key.EpochLen}

	if stack == StackDepBased {
		if kn != (knob{}) || key.TrackExact {
			return stackSetup{}, fmt.Errorf("experiments: stack %q takes no knob or exact tracking (%s)", stack, key)
		}
		return stackSetup{cfg: cfg, pol: steer.DepBased{}, hooks: hooks}, nil
	}

	var pol machine.SteerPolicy
	switch stack {
	case StackFocused:
		cfg.SchedMode = machine.SchedBinaryCritical
		pol = steer.Focused{}
	case StackLoC:
		cfg.SchedMode = machine.SchedLoC
		pol = steer.LoC{}
	case StackStall:
		cfg.SchedMode = machine.SchedLoC
		pol = &steer.StallOverSteer{Threshold: kn.stall}
	case StackProactive:
		cfg.SchedMode = machine.SchedLoC
		pol = steer.NewProactive()
	default:
		return stackSetup{}, fmt.Errorf("experiments: unknown stack %q", stack)
	}
	if kn.stall != 0 && stack != StackStall {
		return stackSetup{}, fmt.Errorf("experiments: stall threshold needs stack %q (%s)", StackStall, key)
	}
	if kn.policy == "readybalance" {
		pol = steer.NewReadyBalance()
	}
	if kn.window != 0 {
		cfg.WindowPerCluster = kn.window
	}
	cfg.BypassPerCluster = kn.bypass
	cfg.GroupSteering = kn.group

	newBinary := predictor.NewDefaultBinary
	newLoC := predictor.NewDefaultLoC
	if kn.predBits != 0 {
		newBinary = func() *predictor.Binary { return predictor.NewBinary(kn.predBits) }
		newLoC = func(rng *xrand.Rand) *predictor.LoC { return predictor.NewLoC(kn.predBits, rng) }
	}
	hooks.Binary = newBinary()
	if stack != StackFocused {
		// The binary predictor stays attached so Figure 6's
		// predicted-critical attribution is meaningful on every stack.
		tag := "loc"
		if kn.locTag != "" {
			tag = kn.locTag
		}
		hooks.LoC = newLoC(xrand.New(seedFor(key.Seed, key.Bench, tag)))
	} else if kn.locTag != "" {
		return stackSetup{}, fmt.Errorf("experiments: stack %q has no LoC predictor to seed (%s)", stack, key)
	}

	su := stackSetup{cfg: cfg, pol: pol, hooks: hooks}
	if kn.detector == "token" {
		if key.TrackExact {
			return stackSetup{}, fmt.Errorf("experiments: the token detector cannot track exact criticality (%s)", key)
		}
		det := critpath.NewTokenDetector(hooks.Binary, hooks.LoC,
			xrand.New(seedFor(key.Seed, key.Bench, "tok")))
		su.hooks.OnCommitInst = det.OnCommit
		su.bind = det.Bind
		return su, nil
	}
	det := critpath.NewDetector(hooks.Binary, hooks.LoC)
	if key.TrackExact {
		su.exact = predictor.NewExact()
		det.TrackExact(su.exact)
	}
	su.hooks.OnEpoch = det.OnEpoch
	su.bind = det.Bind
	return su, nil
}

// artifactFor wraps one finished run, recycling the machine into the
// pool when the caller never reads per-instruction events.
func artifactFor(m *machine.Machine, res machine.Result, exact *predictor.Exact, keepMachine bool) *engine.Artifact {
	if !keepMachine {
		machine.Recycle(m)
		return engine.NewResultArtifact(res, exact)
	}
	return engine.NewArtifact(m, res, exact)
}

// simulate runs keys — all over one trace — as a single fused
// machine.SimulateVariants batch on the packed engine and returns their
// artifacts in key order. It is the body of every simulation job: a solo
// Sim or Analysis miss is a one-variant batch, a sweep's misses one
// batch per benchmark. keepMachine controls the machines' lifetime:
// callers that never read per-instruction events get result-only
// artifacts, and the machines (with their event logs) go back to the
// pool.
func simulate(opts Options, keys []engine.SimKey, keepMachine bool) ([]*engine.Artifact, error) {
	tk := keys[0].Trace()
	variants := make([]machine.Variant, len(keys))
	exacts := make([]*predictor.Exact, len(keys))
	for i, key := range keys {
		if key.Trace() != tk {
			return nil, fmt.Errorf("experiments: batch mixes traces (%s, %s)", keys[0], key)
		}
		su, err := buildStack(key)
		if err != nil {
			return nil, err
		}
		variants[i] = machine.Variant{Config: su.cfg, Pol: su.pol, Hooks: su.hooks, Setup: su.bind}
		exacts[i] = su.exact
	}
	tr, err := loadTrace(opts, tk)
	if err != nil {
		return nil, err
	}
	// Fan the per-variant replays out over the engine's per-job worker
	// share (results are order-stitched and byte-identical under any
	// fan-out), and skip event-log materialization when the caller keeps
	// only Results — the NewResultArtifact case. ResultOnly is safe even
	// for exact-tracking runs: those ride on a detector (Setup != nil),
	// which makes them elide-ineligible inside the machine layer.
	eng := opts.engine()
	workers := opts.ReplayWorkers
	if workers <= 0 {
		workers = eng.ReplayWorkers()
	}
	outs, stats, err := machine.SimulateVariantsOpts(tr, variants, machine.VariantsOptions{
		Workers:    workers,
		ResultOnly: !keepMachine,
	})
	if err != nil {
		return nil, err
	}
	eng.NoteReplay(stats)
	arts := make([]*engine.Artifact, len(outs))
	for i := range outs {
		arts[i] = artifactFor(outs[i].M, outs[i].Res, exacts[i], keepMachine)
	}
	return arts, nil
}

// simVariants submits keys — all over one trace — as a single batch:
// cached keys are served individually, and whatever remains is computed
// by one simulate call that decodes the trace's shared state and trains
// the shared front end once for the whole batch. The returned artifacts
// align with keys.
func simVariants(opts Options, keys []engine.SimKey, need engine.Need) ([]*engine.Artifact, error) {
	return opts.engine().SimVariantsCtx(opts.Ctx, keys, need, func(miss []int) ([]*engine.Artifact, error) {
		sub := make([]engine.SimKey, len(miss))
		for j, i := range miss {
			sub[j] = keys[i]
		}
		return simulate(opts, sub, need&engine.NeedMachine != 0)
	})
}

// normalizedCPIs runs keys as one batch and returns the CPI of each of
// keys[1:] divided by the CPI of keys[0], the sweep's baseline.
func normalizedCPIs(opts Options, keys []engine.SimKey) ([]float64, error) {
	arts, err := simVariants(opts, keys, engine.NeedResult)
	if err != nil {
		return nil, err
	}
	base := arts[0].Res.CPI()
	vals := make([]float64, len(arts)-1)
	for i, a := range arts[1:] {
		vals[i] = a.Res.CPI() / base
	}
	return vals, nil
}

// ablationKeys returns the keys of one benchmark's ablation sweep: the
// monolithic LoC baseline every ablation normalizes by, then one 8x1w
// run of stack per knob.
func ablationKeys(opts Options, bench string, stack Stack, knobs ...knob) []engine.SimKey {
	keys := []engine.SimKey{simKey(opts, bench, 1, StackLoC, false)}
	for _, k := range knobs {
		key := simKey(opts, bench, 8, stack, false)
		key.Knob = k.String()
		keys = append(keys, key)
	}
	return keys
}

// stackKeys returns the keys of one stack across cluster geometries.
func stackKeys(opts Options, bench string, clustersList []int, stack Stack, trackExact bool) []engine.SimKey {
	keys := make([]engine.SimKey, len(clustersList))
	for i, k := range clustersList {
		keys[i] = simKey(opts, bench, k, stack, trackExact)
	}
	return keys
}
