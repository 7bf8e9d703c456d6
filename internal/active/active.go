// Package active implements active database learning — the future-work
// direction the paper's §10 names ("the engine itself proactively executes
// certain approximate queries that can best improve its internal model",
// citing Park's CIDR 2017 abstract). The planner scores candidate snippets
// by the model's current predictive variance γ² (Eq. 11) and spends an
// idle-time budget answering the most uncertain ones cheaply through the
// AQP engine, recording the results into the synopsis. Because γ² is
// exactly the variance the improved answer inherits when the raw answer is
// weak, probing the arg-max candidate is the greedy step that most reduces
// future improved errors over the candidate set.
package active

import (
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/storage"
)

// ErrNoCandidates is returned when a campaign has nothing to probe.
var ErrNoCandidates = errors.New("active: no candidates")

// Scored pairs a candidate snippet with the model's predictive variance.
type Scored struct {
	Snippet *query.Snippet
	Gamma2  float64
}

// Rank scores every candidate by predictive variance under the current
// model (highest first). Candidates whose aggregate function has no model
// yet score at their prior variance — maximally informative.
func Rank(v *core.Verdict, candidates []*query.Snippet) []Scored {
	out := make([]Scored, 0, len(candidates))
	for _, sn := range candidates {
		inf := v.Infer(sn, query.ScalarEstimate{Value: 0, StdErr: math.Inf(1)})
		g := inf.Gamma2
		if math.IsNaN(g) {
			g = 0
		}
		out = append(out, Scored{Snippet: sn, Gamma2: g})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Gamma2 > out[j].Gamma2 })
	return out
}

// Step records one probe of a campaign.
type Step struct {
	Snippet *query.Snippet
	// Gamma2Before is the predictive variance that selected this probe.
	Gamma2Before float64
	// Estimate is the raw answer recorded into the synopsis.
	Estimate query.ScalarEstimate
	// SimTime is the simulated engine time the probe consumed.
	SimTime time.Duration
}

// Config tunes a campaign.
type Config struct {
	// Rounds is the number of probes to execute.
	Rounds int
	// Batches bounds how many online-aggregation batches each probe may
	// consume — probes are deliberately cheap, coarse answers (default 2).
	Batches int
	// MinGamma2 stops the campaign early once the most uncertain candidate
	// falls below this threshold (0 disables).
	MinGamma2 float64
}

// Campaign greedily probes the highest-variance candidate, records the
// answer, and repeats with the refreshed model. Probed candidates are not
// revisited. It returns the executed steps.
func Campaign(v *core.Verdict, engine *aqp.Engine, candidates []*query.Snippet, cfg Config) ([]Step, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 2
	}
	remaining := append([]*query.Snippet(nil), candidates...)
	var steps []Step
	for round := 0; round < cfg.Rounds && len(remaining) > 0; round++ {
		ranked := Rank(v, remaining)
		best := ranked[0]
		if cfg.MinGamma2 > 0 && best.Gamma2 < cfg.MinGamma2 {
			break
		}
		// Cheap probe: the prefix of the first few online-aggregation
		// batches.
		view := engine.Acquire()
		_, end := view.Sample.BatchBounds(cfg.Batches - 1)
		upd := view.EvalPrefix([]*query.Snippet{best.Snippet}, end)
		if len(upd.Valid) == 1 && upd.Valid[0] {
			est := aqp.Sanitize(upd.Estimates[0])
			v.Record(best.Snippet, est)
			steps = append(steps, Step{
				Snippet:      best.Snippet,
				Gamma2Before: best.Gamma2,
				Estimate:     est,
				SimTime:      upd.SimTime,
			})
		}
		// Drop the probed candidate.
		key := best.Snippet.Key()
		kept := remaining[:0]
		for _, sn := range remaining {
			if sn.Key() != key {
				kept = append(kept, sn)
			}
		}
		remaining = kept
	}
	return steps, nil
}

// MeanUncertainty reports the average predictive variance over a probe set
// — the quantity a campaign is trying to push down; tests and diagnostics
// compare it before and after.
func MeanUncertainty(v *core.Verdict, probes []*query.Snippet) float64 {
	if len(probes) == 0 {
		return 0
	}
	sum := 0.0
	for _, sn := range probes {
		inf := v.Infer(sn, query.ScalarEstimate{Value: 0, StdErr: math.Inf(1)})
		sum += inf.Gamma2
	}
	return sum / float64(len(probes))
}

// Grid1D generates candidate snippets tiling one numeric dimension with
// windows of the given width (overlapping by half a window), built by the
// caller-supplied constructor.
func Grid1D(tb *storage.Table, col int, width float64, mk func(region *query.Region) *query.Snippet) []*query.Snippet {
	lo, hi := tb.Domain(col)
	if width <= 0 || hi <= lo {
		return nil
	}
	var out []*query.Snippet
	for start := lo; start < hi; start += width / 2 {
		end := start + width
		if end > hi {
			end = hi
		}
		g := query.NewRegion(tb.Schema())
		g.ConstrainNum(col, query.NumRange{Lo: start, Hi: end})
		out = append(out, mk(g))
		if end == hi {
			break
		}
	}
	return out
}
