package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/kernel"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Persistence: the point of database learning is that the system becomes
// smarter *every time*, which requires the query synopsis and learned
// correlation parameters to survive process restarts. The snapshot format
// is versioned JSON keyed by column *names* (not positions), so a synopsis
// remains loadable after benign schema reordering; snippets are
// reconstructed against the live table (dictionaries re-resolve categorical
// values, measure expressions re-compile from their canonical keys).

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

type snapshotJSON struct {
	Version int    `json:"version"`
	Table   string `json:"table"`
	// Snapshots written before models became their own lock domains also
	// carry an informational "shards" count; decoding ignores it.
	Models []modelJSON `json:"models"`
}

type modelJSON struct {
	Kind        string      `json:"kind"` // "AVG" | "FREQ"
	MeasureKey  string      `json:"measure_key,omitempty"`
	Sigma2      float64     `json:"sigma2"`
	Ells        []ellJSON   `json:"ells"`
	ParamsFixed bool        `json:"params_fixed"`
	Entries     []entryJSON `json:"entries"`
}

type ellJSON struct {
	Column string  `json:"column"`
	Value  float64 `json:"value"`
}

type entryJSON struct {
	Theta  float64              `json:"theta"`
	Beta   float64              `json:"beta"`
	Nugget float64              `json:"nugget,omitempty"`
	Num    map[string]rangeJSON `json:"num,omitempty"`
	Cat    map[string][]string  `json:"cat,omitempty"`
}

type rangeJSON struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	LoOpen bool    `json:"lo_open,omitempty"`
	HiOpen bool    `json:"hi_open,omitempty"`
}

// Save serializes the synopsis and learned parameters. The Cholesky
// factorizations are not stored; Load rebuilds them (Algorithm 1's offline
// precomputation is cheap relative to reacquiring a query history).
//
// Models are written in global creation order and locked one at a time:
// each model is internally consistent (its mutators are atomic under its
// mu), which is the only coherence a snapshot needs — models never
// reference each other.
func (v *Verdict) Save(w io.Writer) error {
	snap := snapshotJSON{Version: snapshotVersion, Table: v.table.Name()}
	schema := v.table.Schema()
	for _, m := range v.modelsInOrder() {
		id := m.id
		m.mu.Lock()
		mj := modelJSON{
			Kind:        id.Kind.String(),
			MeasureKey:  id.MeasureKey,
			Sigma2:      m.params.Sigma2,
			ParamsFixed: m.paramsFixed,
		}
		cols := make([]int, 0, len(m.params.Ells))
		for col := range m.params.Ells {
			cols = append(cols, col)
		}
		sort.Ints(cols)
		for _, col := range cols {
			mj.Ells = append(mj.Ells, ellJSON{Column: schema.Col(col).Name, Value: m.params.Ells[col]})
		}
		// Oldest first, so Load's record order reproduces the LRU order.
		for _, e := range m.byRecency() {
			ej := entryJSON{Theta: e.theta, Beta: e.beta, Nugget: e.nugget}
			num := e.sn.Region.NumConstraints()
			if len(num) > 0 {
				ej.Num = make(map[string]rangeJSON, len(num))
				for col, r := range num {
					ej.Num[schema.Col(col).Name] = rangeJSON{Lo: r.Lo, Hi: r.Hi, LoOpen: r.LoOpen, HiOpen: r.HiOpen}
				}
			}
			cat := e.sn.Region.CatConstraints()
			if len(cat) > 0 {
				ej.Cat = make(map[string][]string, len(cat))
				for col, s := range cat {
					vals := make([]string, 0, len(s.Codes))
					for _, c := range s.Codes {
						vals = append(vals, v.table.DictOf(col).Value(c))
					}
					ej.Cat[schema.Col(col).Name] = vals
				}
			}
			mj.Entries = append(mj.Entries, ej)
		}
		m.mu.Unlock()
		snap.Models = append(snap.Models, mj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(snap)
}

// Load reconstructs a Verdict instance from a snapshot against the given
// (current) base relation, then rebuilds all covariance factorizations.
func Load(r io.Reader, table *storage.Table, cfg Config) (*Verdict, error) {
	var snap snapshotJSON
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.Table != table.Name() {
		return nil, fmt.Errorf("core: snapshot for table %q, loading against %q", snap.Table, table.Name())
	}
	v := New(table, cfg)
	schema := table.Schema()
	for _, mj := range snap.Models {
		var kind query.AggKind
		switch mj.Kind {
		case "AVG":
			kind = query.AvgAgg
		case "FREQ":
			kind = query.FreqAgg
		default:
			return nil, fmt.Errorf("core: unknown aggregate kind %q", mj.Kind)
		}
		id := query.FuncID{Kind: kind, MeasureKey: mj.MeasureKey}

		var measure func(*storage.Table, int) float64
		if kind == query.AvgAgg {
			fn, key, err := recompileMeasure(mj.MeasureKey, table)
			if err != nil {
				return nil, err
			}
			if key != mj.MeasureKey {
				return nil, fmt.Errorf("core: measure key %q recompiled to %q", mj.MeasureKey, key)
			}
			measure = fn
		}

		params := kernel.Params{Sigma2: mj.Sigma2, Ells: make(map[int]float64, len(mj.Ells))}
		for _, e := range mj.Ells {
			col, ok := schema.Lookup(e.Column)
			if !ok {
				return nil, fmt.Errorf("core: snapshot column %q missing from schema", e.Column)
			}
			params.Ells[col] = e.Value
		}
		// The new Verdict is private to this call: nothing else can reach
		// the model while it is filled.
		m := v.modelFor(id, func() kernel.Params { return params })
		m.paramsFixed = mj.ParamsFixed

		for _, ej := range mj.Entries {
			region := query.NewRegion(schema)
			for name, rr := range ej.Num {
				col, ok := schema.Lookup(name)
				if !ok {
					return nil, fmt.Errorf("core: snapshot column %q missing from schema", name)
				}
				region.ConstrainNum(col, query.NumRange{Lo: rr.Lo, Hi: rr.Hi, LoOpen: rr.LoOpen, HiOpen: rr.HiOpen})
			}
			for name, vals := range ej.Cat {
				col, ok := schema.Lookup(name)
				if !ok {
					return nil, fmt.Errorf("core: snapshot column %q missing from schema", name)
				}
				codes := make([]int32, 0, len(vals))
				for _, val := range vals {
					if c, found := table.DictOf(col).LookupCode(val); found {
						codes = append(codes, c)
					}
				}
				sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
				region.ConstrainCat(col, query.CatSet{Codes: codes})
			}
			sn := &query.Snippet{
				Kind:       kind,
				MeasureKey: mj.MeasureKey,
				Measure:    measure,
				Region:     region,
				Table:      table,
			}
			m.record(sn, query.ScalarEstimate{Value: ej.Theta, StdErr: ej.Beta, PopErr: ej.Nugget})
		}
	}
	// Restore factorizations (Algorithm 1's precomputation).
	for _, m := range v.modelsInOrder() {
		if err := m.rebuild(); err != nil {
			return nil, fmt.Errorf("core: rebuilding %s: %w", m.id, err)
		}
	}
	return v, nil
}

// recompileMeasure turns a canonical measure key back into an evaluator by
// round-tripping through the SQL parser.
func recompileMeasure(key string, t *storage.Table) (func(*storage.Table, int) float64, string, error) {
	stmt, err := sqlparse.Parse("SELECT AVG(" + key + ") FROM x")
	if err != nil {
		return nil, "", fmt.Errorf("core: measure key %q does not parse: %w", key, err)
	}
	return query.CompileMeasure(stmt.Items[0].Expr, t)
}
