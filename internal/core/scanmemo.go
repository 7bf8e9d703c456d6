package core

import (
	"sync"

	"repro/internal/aqp"
)

// The scan memo: a repeated statement extends the fold its last execution
// left behind instead of folding the sample again. Every recorded one-shot
// query (Execute, ExecuteWithExact) looks its trimmed SQL up here and runs
// its scan stage through the entry's aqp.CarriedFold, which returns the
// last answer when the view is the same snapshot, folds only the appended
// rows when the sample has grown, and folds everything — replacing what it
// carried — when the generation, the bound regions or the grouped spec
// moved. The fold is bit-identical to the reference scan in every case, so
// a served raw cell stays a pure function of (SampleGen, BaseRows,
// SampleRows, sql). Replays (ExecuteView, ExecuteViewPrefix), time-bound
// queries and progressive streams never come here: what audits the memo
// does not read it.
//
// Nothing invalidates an entry from outside: appends, rebuilds and domain
// growth are seen by the fold's own binding check on the next lookup. An
// entry holds moments and keys — no rows, no tables, no generation pin.

// scanMemoCap bounds the memo. A dashboard's statements number in the
// tens; 1024 leaves room for many of them without letting an ad-hoc
// workload of unique statements grow the map without limit.
const scanMemoCap = 1024

// scanMemo maps trimmed SQL to a carried fold, evicting the least recently
// looked-up entry at the cap. mu covers the map and the stamps only; folds
// run under their entry's own lock, so two clients wait for each other only
// when they ask the same statement. The two locks are never held together.
type scanMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	clock   uint64
}

type memoEntry struct {
	stamp uint64 // clock value of the last lookup; guarded by scanMemo.mu

	mu   sync.Mutex // serializes Runs on fold
	fold *aqp.CarriedFold
}

// entry returns sql's entry, creating it — and evicting the oldest at the
// cap — on a miss. An evicted entry still in use by another query finishes
// unharmed: it owns nothing that needs releasing.
func (m *scanMemo) entry(sql string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	e := m.entries[sql]
	if e == nil {
		if m.entries == nil {
			m.entries = make(map[string]*memoEntry)
		}
		if len(m.entries) >= scanMemoCap {
			// One pass over the map per miss at the cap: microseconds, paid
			// only by a query that is about to fold the whole sample.
			var oldest string
			oldestStamp := m.clock
			for k, x := range m.entries {
				if x.stamp < oldestStamp {
					oldest, oldestStamp = k, x.stamp
				}
			}
			delete(m.entries, oldest)
		}
		e = &memoEntry{fold: aqp.NewCarriedFold(true)}
		m.entries[sql] = e
	}
	e.stamp = m.clock
	return e
}

func (m *scanMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// scanMemoized runs pl's scan stage through sql's memo entry and counts
// the outcome.
func (s *System) scanMemoized(sql string, pl *queryPlan) (aqp.FoldResult, error) {
	e := s.memo.entry(sql)
	e.mu.Lock()
	fr, err := pl.scanCarried(e.fold, s.nmax())
	e.mu.Unlock()
	s.bumpStats(func(st *SystemStats) {
		switch fr.Outcome {
		case aqp.FoldReused:
			st.ScanMemoReused++
		case aqp.FoldExtended:
			st.ScanMemoExtended++
		default:
			st.ScanMemoFolded++
		}
		st.ScanMemoRows += fr.Scanned
	})
	return fr, err
}
