package core

import (
	"repro/internal/kernel"
	"repro/internal/query"
)

// Appendix-D drift adjustment, wired into the notify path: a standing plan
// re-infers its improved estimates on every notify batch, but between two
// append batches almost nothing the inference reads has changed — the
// synopsis entries drift (θ += μ·ratio, β grows) yet every region bound and
// length-scale stays put, so the covariance vector k and self-variance κ̄²
// are rebuilt from identical inputs each time. planInfer carries those
// factors per (snippet, synopsis-entry) pair across batches and only the
// O(n²) solve and blend re-run. Invalidation is not event-driven: each
// cached factor is guarded by an exact signature of its five float inputs
// (kernel.PairMemo), so a training pass (new length-scales), a rebuild
// (new domains re-clipping regions), or synopsis eviction all miss the
// cache naturally and recompute. The memoized result is therefore
// bit-identical to full re-inference — the property suite and every pushed
// chunk's replay audit pin exactly that.

// snippetMemo is the carried inference state for one standing snippet: one
// factor cache per synopsis entry, plus the self-variance cache.
type snippetMemo struct {
	pairs []kernel.PairMemo
	self  kernel.PairMemo
}

// pairsFor sizes the per-entry caches to the current synopsis, keeping
// existing slots. Synopsis slots are stable (a repeat never moves an
// entry), so memo i keeps describing entry i; only a new snippet taking
// over an evicted slot leaves a memo describing a different entry, and its
// signature check catches that and recomputes.
func (m *snippetMemo) pairsFor(n int) []kernel.PairMemo {
	if len(m.pairs) < n {
		m.pairs = append(m.pairs, make([]kernel.PairMemo, n-len(m.pairs))...)
	}
	return m.pairs[:n]
}

// planInfer is one standing plan's per-snippet inference memos, keyed by
// snippet key. Keys are stable across refreshes (re-planning produces new
// snippet objects with identical keys while bounds hold still), so a
// grouped plan's per-group snippets keep their caches as long as the group
// lives; keys absent from the current plan are pruned so dead groups do
// not pin memory.
type planInfer struct {
	memos map[string]*snippetMemo
}

// memosFor returns the memo of each of snips, creating missing ones, and
// drops the memos of snippets the plan no longer has.
func (pi *planInfer) memosFor(snips []*query.Snippet) []*snippetMemo {
	live := make(map[string]*snippetMemo, len(snips))
	out := make([]*snippetMemo, len(snips))
	for i, sn := range snips {
		key := sn.Key()
		mem := pi.memos[key]
		if mem == nil {
			mem = &snippetMemo{}
		}
		live[key], out[i] = mem, mem
	}
	pi.memos = live
	return out
}
