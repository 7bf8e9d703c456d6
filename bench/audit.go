package main

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/server"
)

// The correctness audit runs untimed, after a workload's timed phase. The
// per-answer checks (every reply 200 and well-formed; Theorem 1 on every
// AVG and COUNT cell) already ran as the replies arrived; audit adds the
// seeded replay and the exact-answer coverage check. Any violation makes
// the run report correct=false and exit non-zero.

// minCovered is the lowest acceptable share of audited cells whose improved
// 95% interval contains the exact answer. The pool workloads have 48 to 90
// distinct cells to audit, so one run's share moves by ±0.04 with the
// seed around its 0.92 median (README.md has the measured range); the floor
// sits well below that, to catch a broken interval, not an unlucky pool.
// Smoke runs have no floor: a 10k-row sample leaves some audited groups a
// handful of rows, where a normal interval promises nothing.
const minCovered = 0.75

// replay re-executes auditCount seeded timed answers through the program's
// own replay entry point and requires their raw cells to match bit for
// bit: System.ExecuteView on Engine.ViewAtGen(sample_gen, base_rows,
// sample_rows), or ExecuteViewPrefix for a streamed chunk's sample prefix.
func replay(s *system, o *observations, rng *rand.Rand) {
	eng := s.sys.Engine()
	for n, i := range rng.Perm(len(o.records)) {
		if n >= auditCount {
			break
		}
		rec := o.records[i]
		view := eng.ViewAtGen(rec.gen, rec.baseRows, rec.sampleRows)
		if view == nil {
			o.violate("replay: no view at gen %d (%d base, %d sample rows) for %q", rec.gen, rec.baseRows, rec.sampleRows, rec.sql)
			continue
		}
		var res *core.Result
		var err error
		if rec.rowsSeen < 0 {
			res, err = s.sys.ExecuteView(view, rec.sql)
		} else {
			res, err = s.sys.ExecuteViewPrefix(view, rec.sql, rec.rowsSeen)
		}
		if err != nil {
			o.violate("replay: %q: %v", rec.sql, err)
			continue
		}
		if !sameRaw(res, rec.rows) {
			o.violate("replay: raw cells of %q differ from the served answer", rec.sql)
		}
	}
}

func sameRaw(res *core.Result, served []server.Row) bool {
	if len(res.Rows) != len(served) {
		return false
	}
	for r, row := range res.Rows {
		if len(row.Cells) != len(served[r].Cells) {
			return false
		}
		for c, cell := range row.Cells {
			got := served[r].Cells[c]
			if math.Float64bits(cell.Raw.Value) != math.Float64bits(got.RawValue) ||
				math.Float64bits(cell.Raw.StdErr) != math.Float64bits(got.RawStdErr) {
				return false
			}
		}
	}
	return true
}

// coverage re-issues up to coverCount distinct timed statements, seeded,
// with "exact": true and returns the share of their cells whose improved 95%
// interval contains the exact answer. The interval judged is the last one
// the client was served for that statement during the timed phase, unless
// the relation has grown since (live), in which case it is the re-issued
// answer's own. Repeating a statement adds nothing (its answers repeat),
// so the pool workloads audit their whole pool and no more.
func coverage(c *client, t *tally, o *observations, rng *rand.Rand, floor float64) float64 {
	last := map[string]int{}
	var sqls []string
	for i, rec := range o.records {
		if _, seen := last[rec.sql]; !seen {
			sqls = append(sqls, rec.sql)
		}
		last[rec.sql] = i
	}
	covered, cells := 0, 0
	for n, k := range rng.Perm(len(sqls)) {
		if n >= coverCount {
			break
		}
		rec := o.records[last[sqls[k]]]
		t.attempted.Add(1)
		var exact server.QueryResponse
		if _, err := c.post("/query", server.QueryRequest{SQL: rec.sql, Exact: true}, &exact); err != nil {
			t.fail("%v", err)
			continue
		}
		judged := rec.rows
		if rec.baseRows != exact.BaseRows || len(judged) != len(exact.Rows) {
			judged = exact.Rows
		}
		for r, row := range exact.Rows {
			if len(judged[r].Cells) != len(row.Cells) {
				o.violate("coverage: %q re-issued with a different row shape", rec.sql)
				continue
			}
			for ci, cell := range row.Cells {
				iv := judged[r].Cells[ci]
				cells++
				if math.Abs(iv.Value-cell.Exact) <= iv.ErrBound {
					covered++
				}
			}
		}
	}
	if cells == 0 {
		o.violate("coverage: no cells audited")
		return 0
	}
	share := float64(covered) / float64(cells)
	if share < floor {
		o.violate("coverage: %d of %d audited cells covered (%.3f < %.2f)", covered, cells, share, floor)
	}
	return share
}
