package core

import (
	"repro/internal/aqp"
	"repro/internal/query"
)

// InferSnapshot pins the published inference states of a set of aggregate
// functions at one instant. A progressive query infers every increment
// against the same snapshot, so its evolving answer and error bound reflect
// only the growing sample prefix — never a concurrent session's Record or
// Train landing mid-stream (those republish per-model state, which plain
// Verdict.Infer would pick up between increments). The pinned states are
// immutable (see inferState), so a snapshot may be read from any goroutine
// and held for the life of a stream at zero cost.
type InferSnapshot struct {
	cfg    Config
	states map[query.FuncID]*inferState
}

// SnapshotFor captures the published inference state of every aggregate
// function the snippets touch, lazily creating and publishing models for
// never-seen functions exactly as Verdict.Infer would.
func (v *Verdict) SnapshotFor(snips []*query.Snippet) *InferSnapshot {
	states := make(map[query.FuncID]*inferState, 1)
	for _, sn := range snips {
		id := sn.Func()
		if _, ok := states[id]; ok {
			continue
		}
		states[id] = v.snapshotOf(sn)
	}
	return &InferSnapshot{cfg: v.cfg, states: states}
}

// Infer computes the improved answer for a snippet's raw estimate against
// the pinned state — the same math as Verdict.Infer, but repeatable: equal
// inputs give equal outputs for the snapshot's lifetime. A snippet whose
// function was not in the snapshot set falls back to the raw answer.
func (s *InferSnapshot) Infer(sn *query.Snippet, raw query.ScalarEstimate) Improved {
	return inferOn(s.states[sn.Func()], sn, raw, s.cfg)
}

// inferAll maps raw snippet estimates to improved ones against a pinned
// snapshot, returning the improved estimates, the per-snippet used-model
// flags and how many snippets the model improved.
func inferAll(snap *InferSnapshot, snips []*query.Snippet, raw []query.ScalarEstimate) (improved []query.ScalarEstimate, usedModel []bool, count int) {
	improved = make([]query.ScalarEstimate, len(snips))
	usedModel = make([]bool, len(snips))
	for i, sn := range snips {
		inf := snap.Infer(sn, aqp.Sanitize(raw[i]))
		improved[i] = query.ScalarEstimate{Value: inf.Answer, StdErr: inf.Err}
		usedModel[i] = inf.UsedModel
		if inf.UsedModel {
			count++
		}
	}
	return improved, usedModel, count
}
