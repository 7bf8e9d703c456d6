package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

// FuzzParse checks the caret contract the serving layer's 400 detail relies
// on, for any input: Parse never panics, every error is a *ParseError whose
// Pos lies in [0, len(src)], whose Line is a line of the source and whose
// Column lies in [1, len(line)+1], and Verbose never panics. The seed corpus
// in testdata/fuzz/FuzzParse holds TestParseNeverPanicsOnMutatedSQL's
// statements and a multi-line, tab-indented one.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src)
		if err == nil {
			return
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Fatalf("error %T (%v) is not a *ParseError", err, err)
		}
		if pe.Pos < 0 || pe.Pos > len(src) {
			t.Fatalf("Pos %d outside [0, %d]", pe.Pos, len(src))
		}
		lines := strings.Split(src, "\n")
		if pe.Line < 1 || pe.Line > len(lines) {
			t.Fatalf("Line %d outside [1, %d]", pe.Line, len(lines))
		}
		if n := len(lines[pe.Line-1]); pe.Column < 1 || pe.Column > n+1 {
			t.Fatalf("Column %d outside [1, %d] on line %d", pe.Column, n+1, pe.Line)
		}
		_ = pe.Verbose()
	})
}

// TestParseNeverPanics feeds arbitrary strings to the parser: every input
// must either parse or return an error — never panic. (Failure-injection
// guard: the parser fronts user-supplied SQL in the CLI.)
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				t.Logf("panic on input %q", s)
				ok = false
			}
		}()
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseNeverPanicsOnMutatedSQL mutates valid queries byte by byte —
// closer to realistic malformed input than pure random strings.
func TestParseNeverPanicsOnMutatedSQL(t *testing.T) {
	base := []string{
		"SELECT AVG(revenue) FROM sales WHERE week BETWEEN 1 AND 5",
		"SELECT region, COUNT(*) FROM t WHERE a IN ('x','y') GROUP BY region HAVING COUNT(*) > 3",
		"SELECT SUM(a * (1 - b)) FROM t JOIN u ON t.k = u.k ORDER BY c LIMIT 7",
	}
	mutations := []func(string, int) string{
		func(s string, i int) string { return s[:i%len(s)] },                       // truncate
		func(s string, i int) string { return s[i%len(s):] },                       // behead
		func(s string, i int) string { return s[:i%len(s)] + "(" + s[i%len(s):] },  // inject paren
		func(s string, i int) string { return s[:i%len(s)] + "''" + s[i%len(s):] }, // inject quotes
		func(s string, i int) string { return strings.Replace(s, " ", ",", i%5) },  // commas
		func(s string, i int) string { return s + s[:i%len(s)] },                   // duplicate tail
		func(s string, i int) string { return strings.ToLower(s[:i%len(s)]) + s[i%len(s):] },
	}
	for _, b := range base {
		for mi, mutate := range mutations {
			for i := 1; i < len(b); i += 3 {
				s := mutate(b, i)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panic (mutation %d, offset %d) on %q: %v", mi, i, s, r)
						}
					}()
					_, _ = Parse(s)
				}()
			}
		}
	}
}
