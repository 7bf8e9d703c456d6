package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/storage"
)

// appendBody is a decoded /append request: AppendRequest's fields, with the
// rows already written into a batch table against the base schema.
type appendBody struct {
	Session  string
	Generate int
	Seed     int64
	// Batch holds the rows; nil when the body carries none.
	Batch *storage.Table
}

// maxNesting is encoding/json's nesting limit: a body nested deeper is
// rejected, wherever the nesting sits.
const maxNesting = 10000

// readBody reads a whole request body, at most limit bytes of it. The
// buffer is sized from Content-Length only up to 1 MiB, so a client that
// declares a large body must send it before the memory is spent.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	n := min(r.ContentLength, limit, 1<<20)
	if n < 0 {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decodeAppendBody decodes an /append body in one pass over its bytes,
// writing each positional row straight into a batch table named name:
// numbers are parsed once their JSON grammar checks out, and category
// strings are interned per batch, so a repeated value costs a map lookup.
//
// It accepts exactly what json.Decoder.Decode into AppendRequest followed
// by a per-cell kind check accepts: the same grammar and nesting limit,
// keys matched case-insensitively, a later duplicate key winning (a null
// leaving a scalar field as it was), strings unquoted the same way, bytes
// after the closing brace ignored. The one departure is the row cap: a
// "rows" array is rejected on its maxRows+1st row, before the rest of the
// body is read, even where a later duplicate "rows" key would have
// replaced it. FuzzAppendBody holds the two to this.
func decodeAppendBody(data []byte, schema *storage.Schema, name string, maxRows int) (appendBody, error) {
	d := appendDecoder{data: data, schema: schema, name: name, maxRows: maxRows,
		vals: make([]storage.Value, schema.Len())}
	if err := d.top(); err != nil {
		return appendBody{}, err
	}
	if d.rowErr != nil {
		return appendBody{}, d.rowErr
	}
	if d.body.Batch != nil && d.body.Batch.Rows() == 0 {
		d.body.Batch = nil
	}
	return d.body, nil
}

// appendDecoder is the state of one decodeAppendBody pass.
type appendDecoder struct {
	data    []byte
	pos     int
	depth   int
	schema  *storage.Schema
	name    string
	maxRows int

	body appendBody
	// rowErr is the first width or kind error in the current "rows" value.
	// It is held, not returned, because a later "rows" key replaces the
	// value; rows after it are still read, but no longer stored.
	rowErr error
	vals   []storage.Value
	intern map[string]string
	buf    []byte // unquote scratch
}

func (d *appendDecoder) top() error {
	d.ws()
	if d.pos == len(d.data) {
		return fmt.Errorf("decoding request: %w", io.EOF)
	}
	switch d.data[d.pos] {
	case '{':
		return d.object()
	case 'n':
		// A top-level null decodes to the zero request.
		return d.literal("null")
	}
	return d.typeErr("request")
}

// object reads the top-level object, dispatching each member on its key.
func (d *appendDecoder) object() error {
	if err := d.open(); err != nil {
		return err
	}
	d.ws()
	if d.peek() == '}' {
		d.close()
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxErr("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		field := fieldOf(key)
		if err := d.colon(); err != nil {
			return err
		}
		switch field {
		case "session":
			err = d.session()
		case "rows":
			err = d.rows()
		case "generate":
			var n int64
			if n, err = d.integer("generate", strconv.IntSize, int64(d.body.Generate)); err == nil {
				d.body.Generate = int(n)
			}
		case "seed":
			d.body.Seed, err = d.integer("seed", 64, d.body.Seed)
		default:
			err = d.skip(false)
		}
		if err != nil {
			return err
		}
		if more, err := d.next('}'); !more {
			return err
		}
	}
}

// fieldOf names the AppendRequest field a key selects, matching as
// encoding/json does (bytes.EqualFold), or "" for an unknown key.
func fieldOf(key []byte) string {
	for _, f := range [...]string{"session", "rows", "generate", "seed"} {
		if bytes.EqualFold(key, []byte(f)) {
			return f
		}
	}
	return ""
}

func (d *appendDecoder) session() error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err == nil {
			d.body.Session = string(s)
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return d.typeErr("field session of type string")
}

// integer reads a number into an integer field of the given bit size; a
// null leaves the field at old.
func (d *appendDecoder) integer(field string, bits int, old int64) (int64, error) {
	if d.peek() == 'n' {
		return old, d.literal("null")
	}
	if !isNumberStart(d.peek()) {
		return 0, d.typeErr("field " + field + " of type int")
	}
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return 0, fmt.Errorf("decoding request: cannot unmarshal number %s into field %s of type int", lit, field)
	}
	return n, nil
}

// rows reads a "rows" value into a fresh batch table, so a duplicate key
// replaces the rows (and their dictionary codes) of an earlier one.
func (d *appendDecoder) rows() error {
	d.body.Batch, d.rowErr = nil, nil
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.typeErr("field rows of type [][]interface {}")
	}
	if err := d.open(); err != nil {
		return err
	}
	d.body.Batch = storage.NewTable(d.name, d.schema)
	d.ws()
	if d.peek() == ']' {
		d.close()
		return nil
	}
	for ri := 0; ; ri++ {
		if ri == d.maxRows {
			return fmt.Errorf("batch of more than %d rows exceeds cap %d", d.maxRows, d.maxRows)
		}
		if err := d.row(ri); err != nil {
			return err
		}
		if more, err := d.next(']'); !more {
			return err
		}
	}
}

// row reads row ri and appends it to the batch, unless an earlier row
// failed or this one has the wrong width or a cell of the wrong kind (in
// that order of precedence, as the per-row check always had it).
func (d *appendDecoder) row(ri int) error {
	width := d.schema.Len()
	switch d.peek() {
	case 'n':
		// A null row decodes as a row of no cells.
		if d.rowErr == nil {
			d.rowErr = fmt.Errorf("row %d has %d cells, schema has %d", ri, 0, width)
		}
		return d.literal("null")
	case '[':
	default:
		return d.typeErr("a row of type []interface {}")
	}
	if err := d.open(); err != nil {
		return err
	}
	var cellErr error
	n := 0
	d.ws()
	if d.peek() == ']' {
		d.close()
	} else {
		for more := true; more; n++ {
			if err := d.cell(ri, n, d.rowErr == nil && cellErr == nil && n < width, &cellErr); err != nil {
				return err
			}
			var err error
			if more, err = d.next(']'); err != nil {
				return err
			}
		}
	}
	switch {
	case d.rowErr != nil:
	case n != width:
		d.rowErr = fmt.Errorf("row %d has %d cells, schema has %d", ri, n, width)
	case cellErr != nil:
		d.rowErr = cellErr
	default:
		return d.body.Batch.AppendRow(d.vals)
	}
	return nil
}

// cell reads cell ci of row ri. When store is set it checks the cell's kind
// against its column, recording a mismatch in *cellErr, and stages the
// value; otherwise it only reads past the cell. Every number in the rows is
// parsed either way: one out of float64 range rejects the whole body.
func (d *appendDecoder) cell(ri, ci int, store bool, cellErr *error) error {
	c := d.peek()
	switch {
	case c == '"':
		s, err := d.str()
		if err != nil || !store {
			return err
		}
		if d.schema.Col(ci).Kind == storage.Categorical {
			d.vals[ci] = storage.Str(d.interned(s))
			return nil
		}
	case isNumberStart(c):
		f, err := d.float()
		if err != nil || !store {
			return err
		}
		if d.schema.Col(ci).Kind == storage.Numeric {
			d.vals[ci] = storage.Num(f)
			return nil
		}
	default:
		if err := d.skip(true); err != nil || !store {
			return err
		}
	}
	def := d.schema.Col(ci)
	want := "string"
	if def.Kind == storage.Numeric {
		want = "number"
	}
	*cellErr = fmt.Errorf("row %d col %s: want %s, got %s", ri, def.Name, want, goType(c))
	return nil
}

// goType names the type (as %T prints it) that decoding the value starting
// with c into an interface{} yields.
func goType(c byte) string {
	switch c {
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "<nil>"
	case '[':
		return "[]interface {}"
	case '{':
		return "map[string]interface {}"
	}
	return "float64"
}

// interned returns s as a string shared by every equal cell of the batch.
func (d *appendDecoder) interned(s []byte) string {
	if v, ok := d.intern[string(s)]; ok {
		return v
	}
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	v := string(s)
	d.intern[v] = v
	return v
}

// skip reads past one value, checking its grammar and nesting. With
// numbers set it also parses every number in it as a float64, as decoding
// into an interface{} does.
func (d *appendDecoder) skip(numbers bool) error {
	switch c := d.peek(); {
	case c == '"':
		_, err := d.str()
		return err
	case isNumberStart(c):
		if numbers {
			_, err := d.float()
			return err
		}
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		d.ws()
		if d.peek() == ']' {
			d.close()
			return nil
		}
		for {
			if err := d.skip(numbers); err != nil {
				return err
			}
			if more, err := d.next(']'); !more {
				return err
			}
		}
	case c == '{':
		if err := d.open(); err != nil {
			return err
		}
		d.ws()
		if d.peek() == '}' {
			d.close()
			return nil
		}
		for {
			if d.peek() != '"' {
				return d.syntaxErr("looking for beginning of object key string")
			}
			if _, err := d.str(); err != nil {
				return err
			}
			if err := d.colon(); err != nil {
				return err
			}
			if err := d.skip(numbers); err != nil {
				return err
			}
			if more, err := d.next('}'); !more {
				return err
			}
		}
	}
	return d.syntaxErr("looking for beginning of value")
}

// open consumes '[' or '{', one level deeper.
func (d *appendDecoder) open() error {
	if d.depth++; d.depth > maxNesting {
		return fmt.Errorf("decoding request: exceeded max depth at offset %d", d.pos)
	}
	d.pos++
	return nil
}

// close consumes the ']' or '}' that ends the current level.
func (d *appendDecoder) close() {
	d.depth--
	d.pos++
}

// next reads the separator after a member or element: true after ',' (with
// the whitespace that follows), false after end (the level is closed) or
// with an error.
func (d *appendDecoder) next(end byte) (bool, error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.pos++
		d.ws()
		return true, nil
	case end:
		d.close()
		return false, nil
	}
	if end == '}' {
		return false, d.syntaxErr("after object key:value pair")
	}
	return false, d.syntaxErr("after array element")
}

// colon reads the ':' after an object key and the whitespace around it.
func (d *appendDecoder) colon() error {
	d.ws()
	if d.peek() != ':' {
		return d.syntaxErr("after object key")
	}
	d.pos++
	d.ws()
	return nil
}

func (d *appendDecoder) ws() {
	for d.pos < len(d.data) && isSpace(d.data[d.pos]) {
		d.pos++
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body (0 is
// never valid where peek is asked).
func (d *appendDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *appendDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.syntaxErr("in literal " + word)
		}
		d.pos++
	}
	return nil
}

// number reads a number literal, checking the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *appendDecoder) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.syntaxErr("in numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if !isDigit(d.peek()) {
			return nil, d.syntaxErr("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !isDigit(d.peek()) {
			return nil, d.syntaxErr("in exponent of numeric literal")
		}
		d.digits()
	}
	return d.data[start:d.pos], nil
}

func (d *appendDecoder) digits() {
	for isDigit(d.peek()) {
		d.pos++
	}
}

// float reads a number as a float64; one out of range is an error, as
// decoding it into an interface{} is.
func (d *appendDecoder) float() (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("decoding request: cannot unmarshal number %s into a float64", lit)
	}
	return f, nil
}

// str reads a string and returns its unquoted bytes: the body's own bytes
// when the string holds no escape and is valid UTF-8, otherwise the decoded
// form in d.buf, valid until the next call.
func (d *appendDecoder) str() ([]byte, error) {
	d.pos++
	start := d.pos
	escaped, high := false, false
	for {
		switch c := d.peek(); {
		case c == '"':
			raw := d.data[start:d.pos]
			d.pos++
			if !escaped && (!high || utf8.Valid(raw)) {
				return raw, nil
			}
			return d.unquote(raw), nil
		case c == '\\':
			escaped = true
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for i := 0; i < 4; i++ {
					if !isHex(d.peek()) {
						return nil, d.syntaxErr("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				return nil, d.syntaxErr("in string escape code")
			}
		case c < ' ':
			return nil, d.syntaxErr("in string literal")
		default:
			high = high || c >= utf8.RuneSelf
			d.pos++
		}
	}
}

// unquote decodes the escapes of a string str has already checked, and
// replaces each invalid UTF-8 byte and each unpaired surrogate escape with
// U+FFFD, as encoding/json does.
func (d *appendDecoder) unquote(raw []byte) []byte {
	b := d.buf[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) && i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					if pair := utf16.DecodeRune(r, hex4(raw[i+2:])); pair != utf8.RuneError {
						r = pair
						i += 6
					}
				}
				b = utf8.AppendRune(b, r) // an unpaired surrogate encodes as U+FFFD
				continue
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.buf = b
	return b
}

// hex4 decodes the four hex digits str has checked.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

func (d *appendDecoder) syntaxErr(context string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("decoding request: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("decoding request: invalid character %q %s at offset %d", d.data[d.pos], context, d.pos)
}

// typeErr reports a value of the wrong JSON type for where it sits.
func (d *appendDecoder) typeErr(into string) error {
	var what string
	switch c := d.peek(); {
	case c == '"':
		what = "string"
	case isNumberStart(c):
		what = "number"
	case c == 't' || c == 'f':
		what = "bool"
	case c == '[':
		what = "array"
	case c == '{':
		what = "object"
	default:
		return d.syntaxErr("looking for beginning of value")
	}
	return fmt.Errorf("decoding request: cannot unmarshal %s into %s at offset %d", what, into, d.pos)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isNumberStart(c byte) bool { return c == '-' || isDigit(c) }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
