package aqp

import "repro/internal/storage"

// The merge tree. A sample is a sequence of pieces — each stratum of a
// partitioned layout in stratum order, then the unpartitioned tail; a flat
// sample is the tail alone (Sample.Pieces). A global prefix [0, rows) maps
// onto one prefix [0, target) per piece through the interleave index, and
// every scan — one-shot, grouped, progressive, carried — folds it the same
// way: each piece's prefix into its own bank, in work units cut from the
// piece's row 0 (scan.go) and merged in unit order, then the banks into the
// answer in piece order with the parallel-Welford operator. The scan
// granule is the stratum, never the partition, so the tree is a pure
// function of the layout and the prefix: answers are bit-identical for
// every partition count K, every worker count, a replay of the same view,
// and a fold carried across appends.

// pieceTargets returns, per piece of v's sample, how many of its rows fall
// inside the global prefix [0, rows).
func (v *View) pieceTargets(rows int) []int {
	parts := v.Sample.Parts
	if parts == nil {
		return []int{rows}
	}
	return append(parts.PrefixCounts(rows, nil)[:parts.NumStrata()], max(rows-parts.Rows(), 0))
}

// bank is one piece's carried fold: the state S — a flat plan's
// per-snippet moments, or a discovery fold's group masters — over the
// piece's rows [0, folded).
type bank[S any] struct {
	state  S
	folded int
}

// newBanks returns one zero-state bank per piece of v's sample.
func newBanks[S any](v *View, zero func() S) []*bank[S] {
	banks := make([]*bank[S], len(v.Sample.Pieces()))
	for i := range banks {
		banks[i] = &bank[S]{state: zero()}
	}
	return banks
}

// bankOps is what a fold pass needs of a state S: how to compute the unit
// results P of a list of work units (in unit order), fold results into a
// state, and copy a state.
type bankOps[S, P any] struct {
	scan  func(units []unit) []P
	merge func(s S, parts []P)
	clone func(s S) S
}

// foldBanks takes every bank to its piece's prefix [0, targets[b]) of
// tbls[b] and returns each bank's state at exactly that prefix, plus the
// rows it read. The units the banks have not folded yet are computed in one
// fan-out across the workers, then merged bank by bank in unit order.
// Complete units fold into the carried state, and so does the last, partial
// unit of a stratum once the target reaches the stratum's end: a stratum
// never changes within a generation. The partial last unit of the tail —
// the piece appends grow — folds into a copy, so its carry stays
// unit-aligned and a later pass re-covers the grown unit from its start.
// Targets never fall behind a bank's folded rows.
func foldBanks[S, P any](banks []*bank[S], tbls []*storage.Table, targets []int, ops bankOps[S, P]) (cur []S, scanned int) {
	var units []unit
	cuts := make([][3]int, len(banks)) // per bank: its units [lo, hi), the first carry of them
	for b, bk := range banks {
		t := targets[b]
		lo := len(units)
		cuts[b] = [3]int{lo, lo, lo}
		if t <= bk.folded {
			continue
		}
		scanned += t - bk.folded
		carried := t - t%unitRows
		if b < len(banks)-1 && t == tbls[b].Rows() {
			carried = t
		}
		units = appendUnits(units, tbls[b], bk.folded, t)
		cuts[b] = [3]int{lo, lo + (carried-bk.folded+unitRows-1)/unitRows, len(units)}
		bk.folded = carried
	}
	parts := ops.scan(units)
	cur = make([]S, len(banks))
	for b, bk := range banks {
		lo, carry, hi := cuts[b][0], cuts[b][1], cuts[b][2]
		ops.merge(bk.state, parts[lo:carry])
		cur[b] = bk.state
		if hi > carry {
			cur[b] = ops.clone(bk.state)
			ops.merge(cur[b], parts[carry:hi])
		}
	}
	return cur, scanned
}

// flatPass takes flat banks to their targets (pieceTargets of a prefix)
// and merges their states, in piece order, into accs: zero-state
// accumulators for the snippets metas was compiled from. It returns the
// rows read.
func (v *View) flatPass(banks []*bank[[]*accumulator], accs []*accumulator, metas []snipMeta, targets []int, workers int) int {
	cur, scanned := foldBanks(banks, v.Sample.Pieces(), targets, bankOps[[]*accumulator, []partial]{
		scan: func(units []unit) [][]partial { return scanUnits(metas, units, workers) },
		merge: func(s []*accumulator, parts [][]partial) {
			for _, p := range parts {
				merge(s, p)
			}
		},
		clone: cloneAccs,
	})
	for b, s := range cur {
		if targets[b] > 0 {
			mergeAccs(accs, s)
		}
	}
	return scanned
}

// flatBanks returns zero-state flat banks for n snippets. Bank accumulators
// carry moments only: no snippet, so no table snapshot, is reachable from
// them.
func flatBanks(v *View, n int) []*bank[[]*accumulator] {
	return newBanks(v, func() []*accumulator {
		accs := make([]*accumulator, n)
		for i := range accs {
			accs[i] = &accumulator{}
		}
		return accs
	})
}

// cloneAccs deep-copies the accumulators (Moments is a value field, so a
// struct copy suffices; the snippet pointer is shared).
func cloneAccs(accs []*accumulator) []*accumulator {
	out := make([]*accumulator, len(accs))
	for i, a := range accs {
		c := *a
		out[i] = &c
	}
	return out
}

// mergeAccs folds src's moment state into dst without touching src — the
// scatter-gather merge, applied in fixed piece order.
func mergeAccs(dst, src []*accumulator) {
	for i := range dst {
		dst[i].moments.Merge(src[i].moments)
		dst[i].scanned += src[i].scanned
	}
}
