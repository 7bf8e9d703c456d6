package storage

import "fmt"

// Snapshot isolation for streaming appends. A snapshot is a frozen Table
// view over a stable row-count prefix of a live table: it shares the column
// backing arrays (appends only ever write past the captured length, so
// readers and the writer touch disjoint memory) but owns private copies of
// everything an append mutates in place — slice headers, zone maps, numeric
// domains. Scans against a snapshot therefore need no locks and observe a
// consistent prefix no matter how many rows land behind them.
//
// Dictionaries are shared, not copied: they are grow-only and internally
// synchronized, and every code a snapshot's rows reference is already
// present. Because tables are append-only, SnapshotAt(n) taken at any later
// time is row-for-row identical to a Snapshot taken when the table held n
// rows — the property serial-replay tests use to re-audit answers served
// under concurrency.

// Epoch returns the table's append epoch: a counter bumped once per
// AppendRow/AppendTable call. Cached views compare epochs to detect
// staleness without taking locks.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// Snapshot returns a frozen view of the table's current rows.
func (t *Table) Snapshot() *Table { return t.SnapshotAt(-1) }

// SnapshotAt returns a frozen view of the first rows rows (all rows when
// rows is negative or exceeds the current count). The view's zone maps are
// copied, so later in-place widening of the live table's tail block cannot
// reach it; a tail zone summarizing rows past the prefix is harmless —
// zone-map verdicts are conservative under widening.
func (t *Table) SnapshotAt(rows int) *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if rows < 0 || rows > t.rows {
		rows = t.rows
	}
	n := t.schema.Len()
	out := &Table{
		name:      t.name,
		schema:    t.schema,
		rows:      rows,
		frozen:    true,
		numeric:   make([][]float64, n),
		codes:     make([][]int32, n),
		dicts:     t.dicts, // shared: grow-only and self-synchronized
		mins:      append([]float64(nil), t.mins...),
		maxs:      append([]float64(nil), t.maxs...),
		domainSet: append([]bool(nil), t.domainSet...),
		numZones:  make([][]NumZone, n),
		catZones:  make([][]CatZone, n),
	}
	out.epoch.Store(t.epoch.Load())
	nb := (rows + BlockSize - 1) / BlockSize
	for i := 0; i < n; i++ {
		if t.schema.Col(i).Kind == Numeric {
			// Full slice expressions cap capacity: an append to the view
			// could never alias the live table's spare capacity.
			out.numeric[i] = t.numeric[i][:rows:rows]
			out.numZones[i] = append([]NumZone(nil), t.numZones[i][:nb]...)
		} else {
			out.codes[i] = t.codes[i][:rows:rows]
			out.catZones[i] = append([]CatZone(nil), t.catZones[i][:nb]...)
		}
	}
	return out
}

// AppendByName appends every row of src, matching columns by name: src may
// have been built against a different Schema object (e.g. a freshly
// generated batch) as long as each of this table's columns exists in src
// with the same kind. It is the bridge streaming producers use to land
// batches into a served relation.
//
// The whole batch lands under one lock acquisition and one epoch bump, with
// categorical codes translated through a per-column cache instead of a
// per-cell string round-trip — a 1M-row batch costs one lock, not millions.
// The caller must not mutate src concurrently.
func (t *Table) AppendByName(src *Table) error {
	srcCols := make([]int, t.schema.Len())
	for i := 0; i < t.schema.Len(); i++ {
		def := t.schema.Col(i)
		j, ok := src.Schema().Lookup(def.Name)
		if !ok {
			return fmt.Errorf("storage: append batch missing column %q", def.Name)
		}
		if src.Schema().Col(j).Kind != def.Kind {
			return fmt.Errorf("storage: append batch column %q kind mismatch", def.Name)
		}
		srcCols[i] = j
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return ErrFrozen
	}
	defer t.epoch.Add(1)
	for i, j := range srcCols {
		if t.schema.Col(i).Kind == Numeric {
			vals := src.numeric[j]
			t.numeric[i] = append(t.numeric[i], vals...)
			for r, v := range vals {
				t.observe(i, v)
				t.observeZoneNum(i, t.rows+r, v)
			}
		} else if src.dicts[j] == t.dicts[i] {
			codes := src.codes[j]
			t.codes[i] = append(t.codes[i], codes...)
			for r, c := range codes {
				t.observeZoneCat(i, t.rows+r, c)
			}
		} else {
			// Foreign dictionary: translate codes through a per-column cache
			// so each distinct value is re-interned once, not once per row.
			xlat := make(map[int32]int32)
			for r, c := range src.codes[j] {
				dc, ok := xlat[c]
				if !ok {
					dc = t.dicts[i].Code(src.dicts[j].Value(c))
					xlat[c] = dc
				}
				t.codes[i] = append(t.codes[i], dc)
				t.observeZoneCat(i, t.rows+r, dc)
			}
		}
	}
	t.rows += src.rows
	return nil
}
