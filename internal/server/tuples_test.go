package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/engine"
)

// referenceTuples decodes a tuples object the way register and update
// bodies were decoded before Tuples: into []any rows with UseNumber, each
// converted by jsonValues.
func referenceTuples(data []byte) (map[string][][]engine.Value, error) {
	if !json.Valid(data) {
		return nil, errors.New("invalid JSON")
	}
	var m map[string][][]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	out := make(map[string][][]engine.Value, len(m))
	for rel, rows := range m {
		out[rel] = make([][]engine.Value, 0, len(rows))
		for _, row := range rows {
			vals, err := jsonValues(row)
			if err != nil {
				return nil, err
			}
			out[rel] = append(out[rel], vals)
		}
	}
	return out, nil
}

// identical reports whether two values are the same value: same kind and
// the same integer, float bits or string.
func identical(a, b engine.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && math.Float64bits(a.Flt) == math.Float64bits(b.Flt) && a.Str == b.Str
}

// FuzzRegisterTuples: for any input, decoding it as Tuples either yields
// exactly the rows a []any decode plus jsonValues yields — the same
// relations, rows and values, kinds included — or both fail. The rows
// Tuples encodes decode again to the same shape. Seeded from the tuples,
// inserts and deletes objects of the HTTP tests' bodies.
func FuzzRegisterTuples(f *testing.F) {
	bodies := []string{
		registerBody,
		`{"name": "x", "schema": "R(a)", "program": "Delta_R(x) :- R(x).", "tuples": {"R": [[true]]}}`,
		`{"name": "x", "schema": "R(a)", "program": "Delta_R(x) :- R(x).", "tuples": {"R": [[1, 2]]}}`,
		`{"inserts": {"AuthGrant": [[2, 2]], "Writes": [[2, 7]]}, "deletes": {"AuthGrant": [[5, 2]]}}`,
		`{"deletes": {"AuthGrant": [[4, 2]]}, "inserts": {"Pub": [[50, "new"]]}}`,
		`{"inserts": {"Pub": [[true, "x"]]}}`,
		`{"inserts": {"Nope": [[1]]}}`,
		`{"deletes": {"Author": [[1]]}}`,
	}
	for _, body := range bodies {
		var env map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			f.Fatal(err)
		}
		for _, field := range []string{"tuples", "inserts", "deletes"} {
			if raw, ok := env[field]; ok {
				f.Add([]byte(raw))
			}
		}
	}
	for _, s := range []string{
		`null`, `{}`, `[]`, `{"R": null}`, `{"R": [null, []]}`, `{"R": [[1], [1, 2], []]}`,
		`{"R": [["é", "a\\b", "café"]], "R": [[-0.0, -0, 1e-400]]}`, `{"R": [[1e400]]}`,
		`{"R": [[12345678901234567890, 1.5E+3, "x"]], "S": [[{"a": 1}]]}`, `{"R": [[null]]}`, `{"R": [1]}`,
		`{"R": [[999999999999999999, 9223372036854775807, 9223372036854775808, -9223372036854775808, -9223372036854775809]]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceTuples(data)
		var got Tuples
		gotErr := json.Unmarshal(data, &got)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("%q: Tuples error %v, reference error %v", data, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if len(got.rels) != len(want) {
			t.Fatalf("%q: %d relations, reference %d", data, len(got.rels), len(want))
		}
		for rel, rows := range want {
			b := got.rels[rel]
			if b == nil || len(b.ends) != len(rows) {
				t.Fatalf("%q: relation %q rows differ from the reference's %d", data, rel, len(rows))
			}
			for i, row := range rows {
				vals := b.row(i)
				if len(vals) != len(row) {
					t.Fatalf("%q: %s row %d has %d values, reference %d", data, rel, i, len(vals), len(row))
				}
				for j := range row {
					if !identical(vals[j], row[j]) {
						t.Fatalf("%q: %s row %d value %d = %#v, reference %#v", data, rel, i, j, vals[j], row[j])
					}
				}
			}
		}

		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("%q: encoding: %v", data, err)
		}
		var back Tuples
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%q: re-decoding %s: %v", data, enc, err)
		}
		if (got.rels == nil) != (back.rels == nil) || len(back.rels) != len(got.rels) {
			t.Fatalf("%q: re-decoded %s to other relations", data, enc)
		}
		for rel, b := range got.rels {
			bb := back.rels[rel]
			if bb == nil || len(bb.ends) != len(b.ends) || len(bb.vals) != len(b.vals) {
				t.Fatalf("%q: re-decoded %s to another shape", data, enc)
			}
		}
	})
}
