package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/tpch"
)

// Registration parity: a register body loaded by the handler's path
// (Tuples decode, engine.LoadRows seal) against the same bytes loaded the
// way registration used to run — decoded into []any rows, converted by
// jsonValues and Database.Insert-ed one at a time in schema order.

// referenceLoad is the per-row Insert registration, the reference.
func referenceLoad(body []byte, schema *engine.Schema) (*engine.Database, error) {
	var env struct {
		Tuples map[string][][]any `json:"tuples"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&env); err != nil {
		return nil, err
	}
	db := engine.NewDatabase(schema)
	for _, rs := range schema.Relations {
		for ri, row := range env.Tuples[rs.Name] {
			vals, err := jsonValues(row)
			if err != nil {
				return nil, fmt.Errorf("relation %s row %d: %w", rs.Name, ri, err)
			}
			if _, err := db.Insert(rs.Name, vals...); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// bulkLoad is registration as handleRegister runs it.
func bulkLoad(body []byte) (*engine.Database, *datalog.Program, error) {
	var req RegisterRequest
	if err := decodeBody(&http.Request{Body: io.NopCloser(bytes.NewReader(body))}, &req); err != nil {
		return nil, nil, err
	}
	_, db, prog, err := buildSession(&req)
	return db, prog, err
}

// loaderState renders what a loaded database exposes: per relation the
// (ID, Seq, content key) sequence of the base and delta sides, then the ID
// and Seq an insert into each relation of a fork mints — its ID counter
// and the sequence counter.
func loaderState(db *engine.Database) string {
	var b strings.Builder
	fork := db.Fork()
	for _, rs := range db.Schema.Relations {
		fmt.Fprintf(&b, "%s:", rs.Name)
		for _, rel := range []*engine.Relation{db.Relation(rs.Name), db.Delta(rs.Name)} {
			rel.Scan(func(t *engine.Tuple) bool {
				fmt.Fprintf(&b, " %s#%d%s", t.ID, t.Seq, t.Key())
				return true
			})
			b.WriteString(" |")
		}
		vals := make([]engine.Value, rs.Arity())
		for i := range vals {
			vals[i] = engine.Str("\x00probe")
		}
		t := fork.MustInsert(rs.Name, vals...)
		fmt.Fprintf(&b, " next %s#%d\n", t.ID, t.Seq)
	}
	return b.String()
}

// runAllState renders core.RunAll's results: per semantics the deleted
// keys in result order, size, rounds and optimality.
func runAllState(t *testing.T, db *engine.Database, prog *datalog.Program) string {
	t.Helper()
	results, err := core.RunAll(db, prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, sem := range core.AllSemantics {
		res := results[sem]
		fmt.Fprintf(&b, "%s %v %d %d %v\n", sem, res.Keys(), res.Size(), res.Rounds, res.Optimal)
	}
	return b.String()
}

// checkLoaderParity loads body both ways and requires equal states and
// equal RunAll results; then it applies each batch of ops to both
// snapshots and requires equal states after every one.
func checkLoaderParity(t *testing.T, tag string, body []byte, ops []gen.StreamOp) {
	t.Helper()
	got, prog, err := bulkLoad(body)
	if err != nil {
		t.Fatalf("%s: bulk load: %v", tag, err)
	}
	want, err := referenceLoad(body, got.Schema)
	if err != nil {
		t.Fatalf("%s: reference load: %v", tag, err)
	}
	if g, w := loaderState(got), loaderState(want); g != w {
		t.Fatalf("%s: bulk load\n%s\nreference\n%s", tag, g, w)
	}
	if g, w := runAllState(t, got, prog), runAllState(t, want, prog); g != w {
		t.Fatalf("%s: RunAll on the bulk load\n%s\nreference\n%s", tag, g, w)
	}
	gs, ws := got.Freeze(), want.Freeze()
	for i, op := range ops {
		if gs, _, err = gs.Apply(op.Inserts, op.Deletes); err != nil {
			t.Fatalf("%s: batch %d: %v", tag, i, err)
		}
		if ws, _, err = ws.Apply(op.Inserts, op.Deletes); err != nil {
			t.Fatalf("%s: batch %d: %v", tag, i, err)
		}
		if g, w := loaderState(gs.Fork()), loaderState(ws.Fork()); g != w {
			t.Fatalf("%s: after batch %d the bulk load\n%s\nreference\n%s", tag, i, g, w)
		}
	}
}

// jsonTuples encodes rows as a register body's tuples object, the way the
// socket benchmark does: floats as float64, so integral ones read back as
// ints. doubled appends every other row of a relation a second time.
func jsonTuples(rows []engine.Row, doubled bool) map[string][][]any {
	out := make(map[string][][]any)
	for _, r := range rows {
		vals := make([]any, len(r.Vals))
		for i, v := range r.Vals {
			vals[i] = jsonFromValue(v)
		}
		out[r.Rel] = append(out[r.Rel], vals)
	}
	if doubled {
		for rel, rs := range out {
			for i := 0; i < len(rs); i += 2 {
				out[rel] = append(out[rel], rs[i])
			}
		}
	}
	return out
}

// baseRows lists a database's live base rows in schema order.
func baseRows(db *engine.Database) []engine.Row {
	var rows []engine.Row
	for _, rs := range db.Schema.Relations {
		db.Relation(rs.Name).Scan(func(t *engine.Tuple) bool {
			rows = append(rows, engine.Row{Rel: t.Rel, Vals: t.Vals})
			return true
		})
	}
	return rows
}

func registerJSON(name, schema, program string, tuples any) []byte {
	body, err := json.Marshal(map[string]any{"name": name, "schema": schema, "program": program, "tuples": tuples})
	if err != nil {
		panic(err)
	}
	return body
}

// TestLoaderParityHandMade: duplicate rows, 1 against 1.0, -0.0, empty
// and absent relations, mixed-kind columns, escaped and non-ASCII
// strings, numbers past int64.
func TestLoaderParityHandMade(t *testing.T) {
	const (
		schema  = "R:r(a, b)\nS(x)\nEmpty(e)\nAbsent:ab(z)"
		program = "Delta_R(a, b) :- R(a, b), S(a)."
	)
	tuples := `{
	  "R": [[1, "x"], [1.0, "x"], [1, "x"], [-0.0, ""], [0.0, ""], [-0.0, ""], [0, ""], ["1", 1], [1e0, 2.5],
	        ["café", "é"], ["café", "é"], ["tab\t", "q\"uote"], [12345678901234567890, -7], [1.5e300, 1E-3]],
	  "S": [[1], [1.0], ["1"], [1], [-0.0], [0.0]],
	  "Empty": []
	}`
	body := []byte(`{"name": "hand", "schema": ` + mustQuote(schema) + `, "program": ` + mustQuote(program) + `, "tuples": ` + tuples + `}`)
	checkLoaderParity(t, "hand-made", body, []gen.StreamOp{
		{Inserts: []engine.Row{{Rel: "S", Vals: []engine.Value{engine.Float(1)}}, {Rel: "Absent", Vals: []engine.Value{engine.Int(1)}}}},
		{Deletes: []engine.Row{{Rel: "S", Vals: []engine.Value{engine.Float(math.Copysign(0, -1))}}},
			Inserts: []engine.Row{{Rel: "R", Vals: []engine.Value{engine.Str("café"), engine.Str("é")}}}},
	})
}

func mustQuote(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestLoaderParityGen: generator seeds 1–500, each registered with every
// other row of a relation repeated, then driven through its update stream.
func TestLoaderParityGen(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		us := gen.GenerateUpdateStream(seed, 3)
		sc := us.Scenario
		body := registerJSON("gen", sc.SchemaSource, sc.ProgramSource, jsonTuples(baseRows(sc.DB), true))
		checkLoaderParity(t, fmt.Sprintf("seed %d", seed), body, us.Ops)
	}
}

// benchDatasets are the socket benchmark's register bodies: the MAS
// dataset at scale 0.1 under its 20 programs and TPC-H at scale 0.01
// under its 6.
func benchDatasets(tb testing.TB) []struct {
	name string
	body []byte
} {
	md := mas.Generate(mas.Config{Scale: 0.1, Seed: 1})
	td := tpch.Generate(tpch.Config{Scale: 0.01, Seed: 1})
	masTuples, tpchTuples := jsonTuples(baseRows(md.DB), false), jsonTuples(baseRows(td.DB), false)
	var out []struct {
		name string
		body []byte
	}
	for n := 1; n <= 26; n++ {
		var (
			src    string
			err    error
			schema = md.DB.Schema
			tuples = masTuples
			name   = fmt.Sprintf("mas%d", n)
		)
		if n <= 20 {
			src, err = programs.MASSource(n, md)
		} else {
			schema, tuples, name = td.DB.Schema, tpchTuples, fmt.Sprintf("tpch%d", n-20)
			src, err = programs.TPCHSource(n-20, td)
		}
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, struct {
			name string
			body []byte
		}{name, registerJSON(name, schema.String(), src, tuples)})
	}
	return out
}

// TestLoaderParityBenchDatasets: the 26 register bodies of the socket
// benchmark's cold_repair_all workload.
func TestLoaderParityBenchDatasets(t *testing.T) {
	for _, ds := range benchDatasets(t) {
		checkLoaderParity(t, ds.name, ds.body, nil)
	}
}

var registerSink *engine.Database

// BenchmarkRegister times POST /v1/sessions' own work on the socket
// benchmark's bodies, MAS at scale 0.1 (12 400 rows) and TPC-H at 0.01:
// decoding the body and loading its rows into a database (decodeBody +
// buildSession; no transport, no session cache).
func BenchmarkRegister(b *testing.B) {
	all := benchDatasets(b)
	for _, ds := range []struct {
		name string
		body []byte
	}{{"mas-0.1", all[19].body}, {"tpch-0.01", all[20].body}} {
		b.Run(ds.name, func(b *testing.B) {
			b.SetBytes(int64(len(ds.body)))
			for b.Loop() {
				db, _, err := bulkLoad(ds.body)
				if err != nil {
					b.Fatal(err)
				}
				registerSink = db
			}
		})
	}
}

// TestRegisterAllocs pins BenchmarkRegister's allocation counts within
// ± 10 %: decoding a body and sealing its rows allocates per relation
// and per block, not per row. Decoding rows into []any or inserting them
// one at a time takes MAS-0.1 from ≈ 370 to ≈ 124 000.
func TestRegisterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	all := benchDatasets(t)
	for _, ds := range []struct {
		name string
		body []byte
		want float64
	}{{"mas-0.1", all[19].body, 372}, {"tpch-0.01", all[20].body, 368}} {
		got := testing.AllocsPerRun(5, func() {
			if _, _, err := bulkLoad(ds.body); err != nil {
				t.Fatal(err)
			}
		})
		if got < 0.9*ds.want || got > 1.1*ds.want {
			t.Errorf("register %s: %.0f allocs per body, want %.0f ± 10 %%: rows are decoded into []any or inserted one at a time again", ds.name, got, ds.want)
		}
	}
}

// BenchmarkFirstRepairAll times the first /repair-all after a
// BenchmarkRegister registration (MAS-20, T-1), which pays for whatever
// the load and Register (prepare + freeze, untimed here) left to be built
// lazily: the indexes the repairs probe.
func BenchmarkFirstRepairAll(b *testing.B) {
	all := benchDatasets(b)
	for _, ds := range []struct {
		name string
		body []byte
	}{{"mas-0.1", all[19].body}, {"tpch-0.01", all[20].body}} {
		b.Run(ds.name, func(b *testing.B) {
			svc := openService(b, Config{})
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var req RegisterRequest
				if err := decodeBody(&http.Request{Body: io.NopCloser(bytes.NewReader(ds.body))}, &req); err != nil {
					b.Fatal(err)
				}
				schema, db, prog, err := buildSession(&req)
				if err != nil {
					b.Fatal(err)
				}
				if err := svc.Register("s", schema, db, prog); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := svc.RepairAllVersioned(ctx, "s", RequestOptions{}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				svc.Deregister("s")
				b.StartTimer()
			}
		})
	}
}
