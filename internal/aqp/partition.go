package aqp

import "repro/internal/storage"

// Scatter-gather over a partitioned sample. A global sample row range maps
// onto per-stratum row ranges through the interleave index; every execution
// path (one-shot, grouped, progressive, standing) walks the resulting spans
// in fixed stratum order — strata first, the unpartitioned tail last — and
// merges per-span moment state with the parallel-Welford operator. The scan
// granule is the stratum, never the partition, so the floating-point merge
// tree is a pure function of the layout and the scanned range: answers are
// bit-identical for every partition count K (partition-count invariance)
// and for serial replays of the same prefix.

// scanSpan is one contiguous per-table row range of a global scan range.
type scanSpan struct {
	tbl    *storage.Table
	lo, hi int
}

// sampleSpans maps the global sample range [g0, g1) onto per-stratum spans
// in stratum order, with the unpartitioned tail last. Empty spans are
// omitted. For an unpartitioned sample the result is the single span
// {Data, g0, g1}.
func (v *View) sampleSpans(g0, g1 int) []scanSpan {
	if g1 > v.SampleRows {
		g1 = v.SampleRows
	}
	if g0 < 0 {
		g0 = 0
	}
	if g1 <= g0 {
		return nil
	}
	parts := v.Sample.Parts
	if parts == nil {
		return []scanSpan{{v.Sample.Data, g0, g1}}
	}
	sr := parts.Rows()
	var spans []scanSpan
	if g0 < sr {
		b := g1
		if b > sr {
			b = sr
		}
		c0 := parts.PrefixCounts(g0, nil)
		c1 := parts.PrefixCounts(b, nil)
		for s := 0; s < parts.NumStrata(); s++ {
			if c1[s] > c0[s] {
				spans = append(spans, scanSpan{parts.Stratum(s), c0[s], c1[s]})
			}
		}
	}
	if g1 > sr {
		lo := g0 - sr
		if lo < 0 {
			lo = 0
		}
		spans = append(spans, scanSpan{v.Sample.Data, lo, g1 - sr})
	}
	return spans
}

// batchSpans appends the spans of the sample batches that cover the global
// range [from, to) — batch by batch, each batch's spans in stratum order —
// cutting batches at from + k·batch. That is the sequence of scan ranges a
// batch-by-batch fold visits: RunToCompletion's for from = 0, a carried
// fold's newly completed batches for from = its folded prefix.
func (v *View) batchSpans(spans []scanSpan, from, to, batch int) []scanSpan {
	for start := from; start < to; start += batch {
		spans = append(spans, v.sampleSpans(start, min(start+batch, to))...)
	}
	return spans
}

// spanUnits cuts every span into its work units, in span order, and reports
// how many units the first split spans produced.
func spanUnits(spans []scanSpan, split int) (units []unit, cut int) {
	for i, sp := range spans {
		if i == split {
			cut = len(units)
		}
		units = appendUnits(units, sp.tbl, sp.lo, sp.hi)
	}
	if split >= len(spans) {
		cut = len(units)
	}
	return units, cut
}

// fold feeds spans into accs in order — bit-identical to one scanVectorized
// call per span — except that the spans from split on fold into a clone of
// accs taken after the others; it returns the accumulators that saw every
// span (the clone, or accs when split ≥ len(spans)). A CarriedFold passes
// its partial tail batch that way.
//
// A batch of a few thousand rows is a single work unit, so folding batch by
// batch would run on one core. fold instead computes the units of every
// span at once across the workers, then merges them span by span, unit by
// unit: the merge sequence, hence every bit of the result, is the
// batch-by-batch one.
func (v *View) fold(accs []*accumulator, spans []scanSpan, split int) []*accumulator {
	units, cut := spanUnits(spans, split)
	parts := scanUnits(metaOf(accs), factorAccs(accs), units, 0)
	for _, p := range parts[:cut] {
		merge(accs, p)
	}
	if split >= len(spans) {
		return accs
	}
	out := cloneAccs(accs)
	for _, p := range parts[cut:] {
		merge(out, p)
	}
	return out
}

// scanPrefix feeds the sample prefix [0, rows) into the accumulators with
// the progressive-family fold shape: each span folds into a fresh
// accumulator bank which then merges into accs, in span order — the exact
// emission sequence ProgressiveScan uses, so EvalPrefix replays streamed
// increments bit-for-bit.
func (v *View) scanPrefix(accs []*accumulator, rows int) {
	for _, sp := range v.sampleSpans(0, rows) {
		bank := freshAccs(accs)
		scanVectorized(sp.tbl, bank, sp.lo, sp.hi)
		mergeAccs(accs, bank)
	}
}

// freshAccs returns zero-state accumulators for the same snippets.
func freshAccs(accs []*accumulator) []*accumulator {
	out := make([]*accumulator, len(accs))
	for i, a := range accs {
		out[i] = &accumulator{sn: a.sn, baseRows: a.baseRows}
	}
	return out
}

// mergeAccs folds src's moment state into dst without touching src — the
// scatter-gather merge, applied in fixed span order.
func mergeAccs(dst, src []*accumulator) {
	for i := range dst {
		dst[i].moments.Merge(src[i].moments)
		dst[i].scanned += src[i].scanned
	}
}
