package storage

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV serializes the table with a header row. Numeric cells are
// rendered with full float64 round-trip precision.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.schema.Names()); err != nil {
		return err
	}
	rec := make([]string, t.schema.Len())
	for r := 0; r < t.rows; r++ {
		for c := 0; c < t.schema.Len(); c++ {
			if t.schema.Col(c).Kind == Numeric {
				rec[c] = strconv.FormatFloat(t.numeric[c][r], 'g', -1, 64)
			} else {
				rec[c] = t.StrAt(r, c)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
