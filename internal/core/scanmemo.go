package core

import (
	"slices"
	"sync"

	"repro/internal/aqp"
)

// The scan memo: a repeated statement extends the fold its last execution
// left behind instead of folding the sample again. Every one-shot query
// (Execute, ExecuteWithExact) looks its trimmed SQL up here and runs
// its scan stage through the entry's aqp.CarriedFold, which returns the
// last answer when the view is the same snapshot, folds only the appended
// rows and the tail's partial work unit when the sample has grown, and folds
// everything — replacing what it carried — when the generation, the bound
// regions or the grouped spec moved. The fold is bit-identical to a
// stream's final increment in every case, so a served raw cell stays a
// pure function of (SampleGen, BaseRows, SampleRows, sql).
//
// Progressive streams (ExecuteProgressive, ExecuteProgressiveFrom) look up
// the same entry and keep the raw increments their statement emitted on one
// snapshot, keyed by prefix rows: an increment is a pure function of
// (SampleGen, BaseRows, SampleRows, snippet keys, prefix), so a repeated
// stream re-emits the stored estimates instead of re-scanning each prefix.
// Replays (ExecuteView, which is ExecuteViewPrefix at SampleRows) and
// time-bound queries scan one fresh prefix and never come here: what audits
// the memo does not read it.
//
// Nothing invalidates an entry from outside: appends, rebuilds and domain
// growth are seen by the fold's own binding check, or the stored
// increments' snapshot check, on the next lookup. An entry holds moments,
// estimates and keys — no rows, no tables, no generation pin.

// scanMemoCap bounds the memo. A dashboard's statements number in the
// tens; 1024 leaves room for many of them without letting an ad-hoc
// workload of unique statements grow the map without limit.
const scanMemoCap = 1024

// scanMemo maps trimmed SQL to a carried fold and stored stream increments,
// evicting the least recently looked-up entry at the cap. mu covers the map
// and the stamps only; folds run under their entry's own lock, so two
// clients wait for each other only when they ask the same statement, and
// streams take their entry's second lock around a lookup or a store only.
// No two of the locks are ever held together.
type scanMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	clock   uint64
}

type memoEntry struct {
	stamp uint64 // clock value of the last lookup; guarded by scanMemo.mu

	mu   sync.Mutex // serializes Runs on fold
	fold *aqp.CarriedFold

	// smu guards stream, around one lookup or one store: no scan runs under
	// it, and it is never held together with mu.
	smu    sync.Mutex
	stream streamIncrements
}

// streamIncrements is the raw half of the increments the statement's
// streams emitted on one snapshot: the snapshot, the snippet keys, and the
// stored increments, one per prefix. Only prefixes of the default schedule
// are kept, so it holds at most len(aqp.PrefixSchedule(sampleRows, 0)) of
// them whatever schedules clients ask for. A stored increment's slices are
// shared with every stream that re-emits it: read-only.
type streamIncrements struct {
	gen                  uint64
	baseRows, sampleRows int
	keys                 []string
	incs                 []aqp.Increment
}

// same reports whether the stored increments answer keys on v's snapshot.
func (si *streamIncrements) same(v *aqp.View, keys []string) bool {
	return si.gen == v.SampleGen && si.baseRows == v.BaseRows && si.sampleRows == v.SampleRows &&
		slices.Equal(si.keys, keys)
}

// behind reports whether v is older than the stored snapshot: an earlier
// generation, or fewer rows of the same one.
func (si *streamIncrements) behind(v *aqp.View) bool {
	return v.SampleGen < si.gen ||
		(v.SampleGen == si.gen && (v.SampleRows < si.sampleRows || v.BaseRows < si.baseRows))
}

// streamLookup returns the increment a stream on v's snapshot emitted at
// prefix rows, if it is stored.
func (e *memoEntry) streamLookup(v *aqp.View, keys []string, rows int) (aqp.Increment, bool) {
	e.smu.Lock()
	defer e.smu.Unlock()
	if e.stream.same(v, keys) {
		for _, inc := range e.stream.incs {
			if inc.Rows == rows {
				return inc, true
			}
		}
	}
	return aqp.Increment{}, false
}

// streamStore keeps a scanned increment for the next stream on v's
// snapshot, replacing what was stored for another snapshot or other keys.
// A prefix off the default schedule is not kept, and a view behind the
// stored snapshot stores nothing: the streams on the current one keep
// theirs. Two streams that missed the same prefix at once computed the same
// bits; the second store is dropped.
func (e *memoEntry) streamStore(v *aqp.View, keys []string, inc aqp.Increment) {
	if !slices.Contains(aqp.PrefixSchedule(v.SampleRows, 0), inc.Rows) {
		return
	}
	e.smu.Lock()
	defer e.smu.Unlock()
	si := &e.stream
	if si.behind(v) {
		return
	}
	if !si.same(v, keys) {
		*si = streamIncrements{gen: v.SampleGen, baseRows: v.BaseRows, sampleRows: v.SampleRows, keys: keys}
	}
	for _, x := range si.incs {
		if x.Rows == inc.Rows {
			return
		}
	}
	si.incs = append(si.incs, inc)
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
	s.countScanMemo(fr.Outcome, fr.Scanned)
	return fr, err
}

// countScanMemo counts one query's memo outcome — a one-shot query's fold,
// or a whole stream — and the sample rows it folded.
func (s *System) countScanMemo(outcome aqp.FoldOutcome, scanned int) {
	s.bumpStats(func(st *SystemStats) {
		switch outcome {
		case aqp.FoldReused:
			st.ScanMemoReused++
		case aqp.FoldExtended:
			st.ScanMemoExtended++
		default:
			st.ScanMemoFolded++
		}
		st.ScanMemoRows += scanned
	})
}
