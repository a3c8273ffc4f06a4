package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
)

// Tuples is the rows of a register or update body, per relation: a JSON
// object from relation name to an array of rows, each row an array of JSON
// scalars. Integral numbers become ints, other numbers floats, strings
// strings (the jsonValue rule); any other cell, and a row or a relation
// that is not an array, fails the decode. A null row is a row of no
// values, a null relation a relation of no rows; a relation named twice
// keeps its last rows — all as decoding into a map of []any rows would.
//
// No []any is built. encoding/json validates the body and hands this value's
// bytes to UnmarshalJSON, which scans them straight into one row-major
// engine.Value block per relation — the block engine.LoadRows seals
// without copying. String cells without escapes or non-ASCII bytes are
// substrings of one copy of those bytes.
type Tuples struct {
	rels map[string]*rowBlock
}

// rowBlock is one relation's rows, back to back in vals: row i ends at
// ends[i] and starts where row i-1 ends.
type rowBlock struct {
	vals []engine.Value
	ends []int
}

// row returns row i, capacity-clipped.
func (b *rowBlock) row(i int) []engine.Value {
	lo, hi := 0, b.ends[i]
	if i > 0 {
		lo = b.ends[i-1]
	}
	return b.vals[lo:hi:hi]
}

// badRow returns the first row that does not have arity values and its
// width, or -1 when every row has.
func (b *rowBlock) badRow(arity int) (row, width int) {
	for i := range b.ends {
		if w := len(b.row(i)); w != arity {
			return i, w
		}
	}
	return -1, 0
}

// names returns the relation names, sorted.
func (t Tuples) names() []string {
	names := make([]string, 0, len(t.rels))
	for name := range t.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// rows returns the rows as engine rows sorted by relation name, then row
// order, so batch application order — and therefore tuple identity
// assignment — is deterministic for a given request body. WAL replay
// depends on this order. Vals share the decoded blocks.
func (t Tuples) rows() []engine.Row {
	var out []engine.Row
	for _, name := range t.names() {
		b := t.rels[name]
		for i := range b.ends {
			out = append(out, engine.Row{Rel: name, Vals: b.row(i)})
		}
	}
	return out
}

// MarshalJSON writes the rows as the object they decode from (null for
// the zero value).
func (t Tuples) MarshalJSON() ([]byte, error) {
	if t.rels == nil {
		return []byte("null"), nil
	}
	out := make(map[string]any, len(t.rels))
	for name, b := range t.rels {
		rows := make([][]engine.Value, len(b.ends))
		for i := range rows {
			rows[i] = b.row(i)
		}
		out[name] = jsonRows(rows)
	}
	return json.Marshal(out)
}

// UnmarshalJSON scans a tuples object into per-relation blocks, adding to
// the relations already held (null drops them all).
func (t *Tuples) UnmarshalJSON(data []byte) error {
	sc := &tupleScanner{s: string(data)}
	if sc.literal("null") {
		t.rels = nil
		return sc.end()
	}
	if !sc.consume('{') {
		return fmt.Errorf("tuples: want an object from relation name to rows")
	}
	if t.rels == nil {
		t.rels = make(map[string]*rowBlock)
	}
	if sc.consume('}') {
		return sc.end()
	}
	for {
		name, err := sc.str()
		if err != nil {
			return err
		}
		if !sc.consume(':') {
			return sc.syntax()
		}
		b, err := sc.block(name)
		if err != nil {
			return err
		}
		t.rels[name] = b
		if sc.consume('}') {
			return sc.end()
		}
		if !sc.consume(',') {
			return sc.syntax()
		}
	}
}

// tupleScanner reads one tuples value. s is the value's text as one
// string, so plain string cells are substrings of it.
type tupleScanner struct {
	s string
	i int
}

func (sc *tupleScanner) syntax() error {
	return fmt.Errorf("tuples: invalid JSON at offset %d", sc.i)
}

func (sc *tupleScanner) space() {
	for ; sc.i < len(sc.s); sc.i++ {
		if c := sc.s[sc.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (sc *tupleScanner) consume(c byte) bool {
	sc.space()
	if sc.i < len(sc.s) && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// literal skips whitespace and then word, reporting whether word was next.
func (sc *tupleScanner) literal(word string) bool {
	sc.space()
	if strings.HasPrefix(sc.s[sc.i:], word) {
		sc.i += len(word)
		return true
	}
	return false
}

// end reports an error unless only whitespace is left.
func (sc *tupleScanner) end() error {
	if sc.space(); sc.i != len(sc.s) {
		return sc.syntax()
	}
	return nil
}

// block reads one relation's rows.
func (sc *tupleScanner) block(rel string) (*rowBlock, error) {
	b := &rowBlock{}
	if sc.literal("null") {
		return b, nil
	}
	if !sc.consume('[') {
		return nil, fmt.Errorf("relation %s: want an array of rows", rel)
	}
	vals, rows := sc.count()
	b.vals, b.ends = make([]engine.Value, 0, vals), make([]int, 0, rows)
	for more := !sc.consume(']'); more; more = !sc.consume(']') {
		if len(b.ends) > 0 && !sc.consume(',') {
			return nil, sc.syntax()
		}
		start := len(b.vals)
		if !sc.literal("null") {
			if !sc.consume('[') {
				return nil, fmt.Errorf("relation %s row %d: want an array of values", rel, len(b.ends))
			}
			for more := !sc.consume(']'); more; more = !sc.consume(']') {
				if len(b.vals) > start && !sc.consume(',') {
					return nil, sc.syntax()
				}
				v, err := sc.cell()
				if err != nil {
					return nil, fmt.Errorf("relation %s row %d: value %d: %w", rel, len(b.ends), len(b.vals)-start, err)
				}
				b.vals = append(b.vals, v)
			}
		}
		b.ends = append(b.ends, len(b.vals))
	}
	return b, nil
}

// count sizes the block of the rows array being read (sc.i is just past
// its '['), so it is allocated once: a row per array opened in it, and a
// value per row plus one per comma between a row's values.
func (sc *tupleScanner) count() (vals, rows int) {
	depth := 1
	for i := sc.i; i < len(sc.s) && depth > 0; i++ {
		switch sc.s[i] {
		case '"':
			for i++; i < len(sc.s) && sc.s[i] != '"'; i++ {
				if sc.s[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			if depth++; depth == 2 {
				vals, rows = vals+1, rows+1
			}
		case ']', '}':
			depth--
		case ',':
			if depth == 2 {
				vals++
			}
		}
	}
	return vals, rows
}

// cell reads one value. A string or number converts as jsonValue converts
// it; anything else is decoded only to be reported as jsonValue reports it.
func (sc *tupleScanner) cell() (engine.Value, error) {
	sc.space()
	if sc.i < len(sc.s) {
		switch c := sc.s[sc.i]; {
		case c == '"':
			s, err := sc.str()
			return engine.Str(s), err
		case c == '-' || c >= '0' && c <= '9':
			return sc.number()
		}
	}
	dec := json.NewDecoder(strings.NewReader(sc.s[sc.i:]))
	dec.UseNumber()
	var x any
	if err := dec.Decode(&x); err != nil {
		return engine.Value{}, err
	}
	_, err := jsonValue(x)
	return engine.Value{}, err
}

// str reads a string. One without escapes, control or non-ASCII bytes is
// a substring of the scanned text; any other is unescaped by encoding/json,
// which also replaces invalid UTF-8 the way a []any decode would.
func (sc *tupleScanner) str() (string, error) {
	if sc.space(); sc.i >= len(sc.s) || sc.s[sc.i] != '"' {
		return "", sc.syntax()
	}
	start, plain := sc.i, true
	for i := start + 1; i < len(sc.s); i++ {
		switch c := sc.s[i]; {
		case c == '"':
			sc.i = i + 1
			if plain {
				return sc.s[start+1 : i], nil
			}
			var out string
			err := json.Unmarshal([]byte(sc.s[start:i+1]), &out)
			return out, err
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return "", sc.syntax()
}

// number reads a number token — its bytes already validated by
// encoding/json — and converts it by the jsonValue rule.
func (sc *tupleScanner) number() (engine.Value, error) {
	s, start := sc.s, sc.i
	i := start
	if s[i] == '-' {
		i++
	}
	intStart := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	intEnd := i
	for i < len(s) && strings.IndexByte("0123456789.eE+-", s[i]) >= 0 {
		i++
	}
	sc.i = i
	if i == intEnd && intEnd > intStart && intEnd-intStart <= 18 {
		// An integer of at most 18 digits fits an int64: the common cell,
		// converted without strconv.
		var n int64
		for _, d := range s[intStart:intEnd] {
			n = n*10 + int64(d-'0')
		}
		if intStart > start {
			n = -n
		}
		return engine.Int64(n), nil
	}
	return numberValue(s[start:i])
}
