package mpi

import "gpuddt/internal/sim"

// Tuning is the one typed bundle of protocol knobs a world runs under:
// benchmarks and tools construct a Tuning (by hand, or by loading a
// persisted tuning table through cluster.Spec) and install it as
// Config.Tuning; everything else reads the resolved values. Zero fields
// select the defaults, so a nil and an empty Tuning are the same world.
type Tuning struct {
	// Eager bounds the packed size sent eagerly. nil means the default
	// (64 KiB); Eager(0) genuinely forces rendezvous for every message
	// (the pointer keeps an explicit 0 distinct from "unset").
	Eager *int64

	// FragBytes is the pipeline fragment size (0 = 1 MiB).
	FragBytes int64

	// PipelineDepth is the number of ring slots (0 = 4).
	PipelineDepth int

	// DirectRemoteUnpack unpacks straight out of the sender's device
	// memory instead of staging fragments (the paper's §5.2.1 ablation).
	DirectRemoteUnpack bool

	// AMLatency is the shared-memory active-message latency (0 = 500ns).
	AMLatency sim.Time

	// RemoteAccessEff derates PCIe efficiency for direct remote reads
	// (0 = 0.7).
	RemoteAccessEff float64

	// Collectives selects the collective algorithm family; see CollMode.
	Collectives CollMode

	// Strategy overrides the rendezvous data-transfer strategy
	// (nil = the paper's pipelined protocols).
	Strategy Strategy
}

// Eager returns a pointer to n for use as Tuning.Eager. Eager(0) is the
// explicit force-rendezvous setting.
func Eager(n int64) *int64 { return &n }

// CollMode selects the collective algorithm family.
type CollMode int

const (
	// CollAuto runs the hierarchical algorithms wherever the rank
	// layout supports them (the default).
	CollAuto CollMode = iota

	// CollFlat forces the topology-blind algorithms everywhere; the
	// differential-testing oracle and the scaling benchmark's flat arm.
	CollFlat

	// CollHier forces the host-side hierarchical algorithms (alias of
	// CollAuto today; named so tuning tables can pin the choice).
	CollHier

	// CollSwitch executes Reduce/Allreduce in-network at the fat-tree
	// leaf/spine switches (SHARP-style); every other collective runs as
	// under CollAuto. Worlds without a hierarchical fabric fall back to
	// CollAuto dispatch.
	CollSwitch
)

// String returns the table encoding of the mode.
func (c CollMode) String() string {
	switch c {
	case CollFlat:
		return "flat"
	case CollHier:
		return "hier"
	case CollSwitch:
		return "switch"
	default:
		return "auto"
	}
}

// ParseCollMode is the inverse of CollMode.String; unknown strings
// report ok=false.
func ParseCollMode(s string) (CollMode, bool) {
	switch s {
	case "auto", "":
		return CollAuto, true
	case "flat":
		return CollFlat, true
	case "hier":
		return CollHier, true
	case "switch":
		return CollSwitch, true
	}
	return CollAuto, false
}

// resolvedTuning is the world's effective knob set: every field
// concrete, defaults applied once at NewWorld.
type resolvedTuning struct {
	eager              int64
	frag               int64
	depth              int
	directRemoteUnpack bool
	amLatency          sim.Time
	remoteAccessEff    float64
	coll               CollMode
	strategy           Strategy
}

// resolveTuning folds Config.Tuning into the concrete knob set,
// applying the defaults to every unset field.
func resolveTuning(cfg *Config) resolvedTuning {
	r := resolvedTuning{
		eager:           64 << 10,
		frag:            1 << 20,
		depth:           4,
		amLatency:       500 * sim.Nanosecond,
		remoteAccessEff: 0.7,
		strategy:        &PipelinedStrategy{},
	}
	t := cfg.Tuning
	if t == nil {
		return r
	}
	if t.Eager != nil {
		r.eager = *t.Eager
	}
	if t.FragBytes != 0 {
		r.frag = t.FragBytes
	}
	if t.PipelineDepth != 0 {
		r.depth = t.PipelineDepth
	}
	r.directRemoteUnpack = t.DirectRemoteUnpack
	if t.AMLatency != 0 {
		r.amLatency = t.AMLatency
	}
	if t.RemoteAccessEff != 0 {
		r.remoteAccessEff = t.RemoteAccessEff
	}
	r.coll = t.Collectives
	if t.Strategy != nil {
		r.strategy = t.Strategy
	}
	return r
}

// Tuning returns the world's effective knob set as a fully-populated
// Tuning value (Eager always non-nil), for reporting and tests.
func (w *World) Tuning() Tuning {
	return Tuning{
		Eager:              Eager(w.tun.eager),
		FragBytes:          w.tun.frag,
		PipelineDepth:      w.tun.depth,
		DirectRemoteUnpack: w.tun.directRemoteUnpack,
		AMLatency:          w.tun.amLatency,
		RemoteAccessEff:    w.tun.remoteAccessEff,
		Collectives:        w.tun.coll,
		Strategy:           w.tun.strategy,
	}
}
