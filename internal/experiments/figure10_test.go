package experiments

import (
	"testing"

	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

func TestAnswerCache(t *testing.T) {
	tb := storage.NewTable("t", storage.MustSchema([]storage.ColumnDef{
		{Name: "week", Kind: storage.Numeric, Role: storage.Dimension},
		{Name: "val", Kind: storage.Numeric, Role: storage.Measure},
	}))
	for i := 0; i < 100; i++ {
		if err := tb.AppendRow([]storage.Value{storage.Num(float64(i)), storage.Num(float64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := sqlparse.Parse("SELECT AVG(val) FROM t WHERE week < 50")
	if err != nil {
		t.Fatal(err)
	}
	decs, err := query.Decompose(stmt, tb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sn := decs[0].Snippets[0]

	c := answerCache{}
	if _, ok := c.lookup(sn); ok {
		t.Fatal("empty cache hit")
	}
	c.store(sn, query.ScalarEstimate{Value: 1, StdErr: 5})
	c.store(sn, query.ScalarEstimate{Value: 2, StdErr: 2}) // better
	c.store(sn, query.ScalarEstimate{Value: 3, StdErr: 9}) // worse, ignored
	got, ok := c.lookup(sn)
	if !ok || got.Value != 2 {
		t.Fatalf("cache=%+v ok=%v", got, ok)
	}
	if len(c) != 1 {
		t.Fatalf("len=%d", len(c))
	}
}
