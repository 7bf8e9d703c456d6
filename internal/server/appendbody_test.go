package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/storage"
)

// oracleAppendBody is the /append decode decodeAppendBody replaced:
// json.Decoder.Decode into AppendRequest, the row cap, then decodeBatch.
func oracleAppendBody(data []byte, schema *storage.Schema, name string, maxRows int) (appendBody, error) {
	var req AppendRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return appendBody{}, fmt.Errorf("decoding request: %w", err)
	}
	body := appendBody{Session: req.Session, Generate: req.Generate, Seed: req.Seed}
	if len(req.Rows) == 0 {
		return body, nil
	}
	if len(req.Rows) > maxRows {
		return appendBody{}, fmt.Errorf("batch of %d rows exceeds cap %d", len(req.Rows), maxRows)
	}
	batch, err := decodeBatch(schema, name, req.Rows)
	if err != nil {
		return appendBody{}, err
	}
	body.Batch = batch
	return body, nil
}

// decodeBatch builds a batch table (against the base schema) from
// positional JSON rows.
func decodeBatch(schema *storage.Schema, name string, rows [][]any) (*storage.Table, error) {
	batch := storage.NewTable(name, schema)
	vals := make([]storage.Value, schema.Len())
	for ri, row := range rows {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("row %d has %d cells, schema has %d", ri, len(row), schema.Len())
		}
		for ci, cell := range row {
			def := schema.Col(ci)
			switch def.Kind {
			case storage.Numeric:
				f, ok := cell.(float64)
				if !ok {
					return nil, fmt.Errorf("row %d col %s: want number, got %T", ri, def.Name, cell)
				}
				vals[ci] = storage.Num(f)
			default:
				str, ok := cell.(string)
				if !ok {
					return nil, fmt.Errorf("row %d col %s: want string, got %T", ri, def.Name, cell)
				}
				vals[ci] = storage.Str(str)
			}
		}
		if err := batch.AppendRow(vals); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// appendSchema is salesTable's schema: numeric, categorical, numeric.
var appendSchema = storage.MustSchema([]storage.ColumnDef{
	{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
	{Name: "region", Kind: storage.Categorical, Role: storage.Dimension},
	{Name: "revenue", Kind: storage.Numeric, Role: storage.Measure},
})

// sameAppendBody fails t unless the decoder and the oracle agree: both
// reject, or both accept with equal fields and cell-for-cell equal batches
// (numbers by Float64bits, categories by string and dictionary code). A
// row error the oracle reports must come back word for word.
func sameAppendBody(t *testing.T, data []byte, got appendBody, gerr error, want appendBody, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("body %q: decoder err %v, oracle err %v", data, gerr, werr)
	}
	if werr != nil {
		if strings.HasPrefix(werr.Error(), "row ") && gerr.Error() != werr.Error() {
			t.Fatalf("body %q: decoder err %q, oracle err %q", data, gerr, werr)
		}
		return
	}
	if got.Session != want.Session || got.Generate != want.Generate || got.Seed != want.Seed {
		t.Fatalf("body %q: decoder %q/%d/%d, oracle %q/%d/%d", data,
			got.Session, got.Generate, got.Seed, want.Session, want.Generate, want.Seed)
	}
	if (got.Batch == nil) != (want.Batch == nil) {
		t.Fatalf("body %q: decoder batch %v, oracle batch %v", data, got.Batch != nil, want.Batch != nil)
	}
	if want.Batch == nil {
		return
	}
	if got.Batch.Rows() != want.Batch.Rows() {
		t.Fatalf("body %q: decoder %d rows, oracle %d", data, got.Batch.Rows(), want.Batch.Rows())
	}
	schema := want.Batch.Schema()
	for c := 0; c < schema.Len(); c++ {
		for r := 0; r < want.Batch.Rows(); r++ {
			if schema.Col(c).Kind == storage.Numeric {
				if g, w := got.Batch.NumAt(r, c), want.Batch.NumAt(r, c); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("body %q: cell (%d,%d) decoder %v, oracle %v", data, r, c, g, w)
				}
			} else {
				g, w := got.Batch.StrAt(r, c), want.Batch.StrAt(r, c)
				if g != w || got.Batch.CodesCol(c)[r] != want.Batch.CodesCol(c)[r] {
					t.Fatalf("body %q: cell (%d,%d) decoder %q, oracle %q", data, r, c, g, w)
				}
			}
		}
	}
}

// FuzzAppendBody: decodeAppendBody accepts a body iff json.Decoder.Decode
// into AppendRequest plus decodeBatch does, and then decodes it to the same
// fields and cells. Under a row cap of 4 the decoder may also refuse, with
// the cap error, a body whose earlier duplicate "rows" array ran over the
// cap; nothing else may differ.
func FuzzAppendBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		uncapped := len(data) + 1 // a row takes at least two bytes
		got, gerr := decodeAppendBody(data, appendSchema, "sales_batch", uncapped)
		want, werr := oracleAppendBody(data, appendSchema, "sales_batch", uncapped)
		sameAppendBody(t, data, got, gerr, want, werr)

		got, gerr = decodeAppendBody(data, appendSchema, "sales_batch", 4)
		want, werr = oracleAppendBody(data, appendSchema, "sales_batch", 4)
		if gerr != nil && strings.Contains(gerr.Error(), "exceeds cap") {
			// When encoding/json reads the whole body, check that some
			// "rows" array really ran over the cap.
			if (werr == nil || !strings.HasPrefix(werr.Error(), "decoding request")) && longestRows(t, data) <= 4 {
				t.Fatalf("body %q: capped decoder err %v, oracle err %v", data, gerr, werr)
			}
			return
		}
		sameAppendBody(t, data, got, gerr, want, werr)
	})
}

// longestRows is the most elements of any top-level "rows" array in a body
// encoding/json decodes.
func longestRows(t *testing.T, data []byte) int {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("body %q: not an object (%v)", data, err)
	}
	longest := 0
	for dec.More() {
		key, err := dec.Token()
		var val json.RawMessage
		if err == nil {
			err = dec.Decode(&val)
		}
		if err != nil {
			t.Fatalf("body %q: %v", data, err)
		}
		var rows []json.RawMessage
		if k, _ := key.(string); strings.EqualFold(k, "rows") && json.Unmarshal(val, &rows) == nil {
			longest = max(longest, len(rows))
		}
	}
	return longest
}

// TestAppendRejectsOverCapWhileParsing: a batch over MaxBatchRows is
// refused at its first row past the cap, before the malformed rest of the
// body is read (the error is the cap, not a syntax error), and a body over
// MaxBodyBytes is refused too; neither moves the engine.
func TestAppendRejectsOverCapWhileParsing(t *testing.T) {
	_, sys, ts := fixture(t, 2000, Config{MaxBatchRows: 4, MaxBodyBytes: 64 << 10})
	before := sys.Engine().Acquire()

	rows := strings.Repeat(`[1,"east",2],`, 5)
	tail := strings.Repeat(`[1,"east",}`, 3000) // 33 kB, not JSON
	overCap := `{"rows":[` + rows + tail
	oversized := `{"rows":[` + strings.TrimSuffix(rows[:4*len(`[1,"east",2],`)], ",") + `]}` + strings.Repeat(" ", 64<<10)
	for name, body := range map[string]string{"over cap": overCap, "over body limit": oversized} {
		resp, err := http.Post(ts.URL+"/append", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env errJSON
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s)", name, resp.StatusCode, env.Error)
		}
		if name == "over cap" && !strings.Contains(env.Error, "exceeds cap 4") {
			t.Fatalf("over cap: error %q, want the row cap", env.Error)
		}
		if name == "over body limit" && !strings.Contains(env.Error, "too large") {
			t.Fatalf("over body limit: error %q, want the body limit", env.Error)
		}
	}
	after := sys.Engine().Acquire()
	if after.BaseRows != before.BaseRows || after.SampleRows != before.SampleRows || after.Epoch != before.Epoch {
		t.Fatalf("engine moved: base %d→%d sample %d→%d epoch %d→%d", before.BaseRows, after.BaseRows,
			before.SampleRows, after.SampleRows, before.Epoch, after.Epoch)
	}
}
