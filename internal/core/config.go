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
	// Confidence δ is the probability used for reported error bounds
	// (default 0.95).
	Confidence float64
	// ValidationConfidence δ_v is the likely-region probability of the
	// model validation step (Appendix B; default 0.99).
	ValidationConfidence float64
	// LearnCap bounds how many recent snippets the likelihood optimization
	// of Appendix A consumes; the full synopsis still participates in
	// inference. Default 150 (the O(n³)-per-evaluation likelihood makes
	// unbounded learning impractical; the paper likewise trains offline).
	LearnCap int
	// MultiStarts > 0 makes the learner polish the coordinate-descent
	// optimum with one Nelder–Mead pass started from it (default 3; a
	// negative value turns the polish off). Only the sign matters: no
	// random restarts are run, so 1 and 3 learn identical parameters.
	MultiStarts int
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
	DefaultNmax                 = 1000
	DefaultSynopsisCap          = 2000
	DefaultConfidence           = 0.95
	DefaultValidationConfidence = 0.99
	DefaultLearnCap             = 150
	DefaultMultiStarts          = 3
)

func (c Config) withDefaults() Config {
	if c.Nmax <= 0 {
		c.Nmax = DefaultNmax
	}
	if c.SynopsisCap <= 0 {
		c.SynopsisCap = DefaultSynopsisCap
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = DefaultConfidence
	}
	if c.ValidationConfidence <= 0 || c.ValidationConfidence >= 1 {
		c.ValidationConfidence = DefaultValidationConfidence
	}
	if c.LearnCap <= 0 {
		c.LearnCap = DefaultLearnCap
	}
	if c.MultiStarts < 0 {
		c.MultiStarts = 0
	} else if c.MultiStarts == 0 {
		c.MultiStarts = DefaultMultiStarts
	}
	if c.MaxRetainedGens < 0 {
		c.MaxRetainedGens = 0
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// confidenceMultiplier returns α_δ for the configured reporting confidence.
func (c Config) confidenceMultiplier() float64 {
	a, err := mathx.ConfidenceMultiplier(c.Confidence)
	if err != nil {
		panic(err) // withDefaults guarantees a valid probability
	}
	return a
}

// validationMultiplier returns α for the validation likely-region.
func (c Config) validationMultiplier() float64 {
	a, err := mathx.ConfidenceMultiplier(c.ValidationConfidence)
	if err != nil {
		panic(err)
	}
	return a
}
