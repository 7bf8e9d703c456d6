package storage

import (
	"errors"
	"fmt"
)

// Kind distinguishes column value types.
type Kind uint8

const (
	// Numeric columns hold float64 values.
	Numeric Kind = iota
	// Categorical columns hold dictionary-encoded string values.
	Categorical
)

func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Role distinguishes dimension attributes from measure attributes (§3.1).
type Role uint8

const (
	// Dimension attributes appear in predicates and GROUP BY but never
	// inside aggregate functions.
	Dimension Role = iota
	// Measure attributes are numeric and appear inside aggregates.
	Measure
)

func (r Role) String() string {
	if r == Dimension {
		return "dimension"
	}
	return "measure"
}

// ColumnDef describes one attribute of a relation.
type ColumnDef struct {
	Name string
	Kind Kind
	Role Role
	// Min/Max optionally declare the attribute domain for numeric columns;
	// Verdict substitutes the domain for missing range constraints (§4.1).
	// When Min < Max the declaration seeds the table's observed domain;
	// otherwise the domain is tracked from appended values.
	Min, Max float64
}

// Schema is an ordered list of column definitions with name lookup.
type Schema struct {
	cols  []ColumnDef
	index map[string]int
	// dims is the dimension column positions, computed once: a
	// Schema is immutable after NewSchema, and the kernel asks per covariance.
	dims []int
}

// ErrUnknownColumn is returned when a name does not resolve.
var ErrUnknownColumn = errors.New("storage: unknown column")

// ErrDuplicateColumn is returned when a schema repeats a name.
var ErrDuplicateColumn = errors.New("storage: duplicate column")

// ErrTypeMismatch is returned when a value does not match the column kind.
var ErrTypeMismatch = errors.New("storage: type mismatch")

// NewSchema validates and indexes the given column definitions.
func NewSchema(cols []ColumnDef) (*Schema, error) {
	s := &Schema{cols: append([]ColumnDef(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range s.cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateColumn, c.Name)
		}
		if c.Kind == Categorical && c.Role == Measure {
			return nil, fmt.Errorf("storage: categorical measure %s not allowed", c.Name)
		}
		s.index[c.Name] = i
		if c.Role == Dimension {
			s.dims = append(s.dims, i)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for literal schemas in
// generators and tests.
func MustSchema(cols []ColumnDef) *Schema {
	s, err := NewSchema(cols)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the definition at position i.
func (s *Schema) Col(i int) ColumnDef { return s.cols[i] }

// Lookup resolves a column name to its position.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Names returns the ordered column names.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// DimensionCols returns positions of dimension attributes in schema order.
// The slice is shared by every caller: read-only.
func (s *Schema) DimensionCols() []int { return s.dims }
