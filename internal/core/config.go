package core

import (
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// Config carries Verdict's tunables; zero values select the paper's
// defaults.
type Config struct {
	// Nmax bounds how many result-set groups receive improved answers per
	// query (§2.3; default 1,000).
	Nmax int
	// SynopsisCap is C_g, the per-aggregate-function snippet quota with
	// LRU replacement (§2.3; default 2,000).
	SynopsisCap int
	// LearnCap bounds how many recent snippets the likelihood optimization
	// of Appendix A consumes; the full synopsis still participates in
	// inference. Default 150 (the O(n³)-per-evaluation likelihood makes
	// unbounded learning impractical; the paper likewise trains offline).
	LearnCap int
	// DisableValidation turns off Appendix B's model validation — ONLY for
	// the ablation of Figure 9, which demonstrates why validation matters.
	// Production configurations must leave it false: Theorem 1's guarantee
	// depends on validation.
	DisableValidation bool
	// MaxRetainedGens bounds how many retired sample generations the
	// engine keeps for replay and stream resumption (aqp.Engine.
	// SetMaxRetainedGens). 0 — the default — retains every generation
	// (immortal replay prefixes, one sample-sized table per rebuild);
	// a positive bound evicts oldest-first, never evicting a generation
	// pinned by a live progressive stream, and replays behind the
	// resulting horizon fail with aqp.ErrGenEvicted.
	MaxRetainedGens int
	// NumPartitions, when positive, splits the AQP sample into that many
	// disjoint partitions behind a stratified interleaved layout
	// (storage.PartitionedSample): rows are range-partitioned on
	// StratumColumn, arrival order is preserved within partitions, and a
	// deterministic interleave index maps any global sample prefix onto
	// per-partition prefixes. All answers are invariant under the partition
	// count — it is a layout/pruning knob, not a semantics knob. 0 (the
	// default) keeps the single flat sample table.
	NumPartitions int
	// StratumColumn names the numeric column the stratified layout
	// range-partitions on when NumPartitions > 0. Empty selects round-robin
	// strata (no zone-map clustering, still prefix-uniform). Ignored when
	// NumPartitions is 0.
	StratumColumn string
	// Stages, when non-nil, receives per-stage query latencies (parse,
	// prune, scan, infer) for the serving layer's metrics. The scan stage is
	// forwarded into the wired engine (aqp.Engine.SetStageTimer); the rest
	// are recorded by System itself. Nil — the default — disables stage
	// timing entirely: instrumentation reduces to one branch per stage, so
	// benchmarks and library callers are unperturbed.
	Stages obs.StageTimer
	// Now is the clock behind every time-gated policy decision — the push
	// debounce of standing subscriptions and, through System.Now, the
	// serving layer's auto-rebuild quiet gate. Nil (the default) selects
	// time.Now. Tests inject a fake clock here so quiet-period and debounce
	// behavior is exercised with zero sleeps. Performance measurements
	// (stage latencies, inference overhead) always use the real clock.
	Now func() time.Time
}

// Defaults per the paper.
const (
	DefaultNmax        = 1000
	DefaultSynopsisCap = 2000
	DefaultLearnCap    = 150
)

// Alpha95 is α_δ at δ = 0.95: the half-width multiplier of every reported
// error bound — a served cell's err_bound, a stream's target_ci stop and a
// standing query's delta_ci threshold.
var Alpha95 = multiplier(0.95)

// alpha99 is α at δ_v = 0.99, the likely region of Appendix B's model
// validation.
var alpha99 = multiplier(0.99)

func multiplier(delta float64) float64 {
	a, err := mathx.ConfidenceMultiplier(delta)
	if err != nil {
		panic(err)
	}
	return a
}

func (c Config) withDefaults() Config {
	if c.Nmax <= 0 {
		c.Nmax = DefaultNmax
	}
	if c.SynopsisCap <= 0 {
		c.SynopsisCap = DefaultSynopsisCap
	}
	if c.LearnCap <= 0 {
		c.LearnCap = DefaultLearnCap
	}
	if c.MaxRetainedGens < 0 {
		c.MaxRetainedGens = 0
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}
