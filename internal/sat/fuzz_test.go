package sat

import (
	"reflect"
	"slices"
	"testing"
)

// decodeFuzzCNF turns fuzz bytes into a CNF over at most 10 variables plus
// solver options. Byte 0 picks the variable count, byte 1 the options:
// bit 0 adds a weight per variable (1..5, one byte each), bit 1 a Prefer
// list (a length byte, then one byte per entry), bits 2–3 a node budget of
// 1..3 (0 keeps the default). The remaining bytes are clauses: a length
// byte (0..4 literals — an empty clause is allowed), then one byte per
// literal, its low bit the sign. At most 40 clauses are read.
func decodeFuzzCNF(data []byte) (*Formula, Options) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 1 + next()%10
	flags := next()
	var opts Options
	if flags&1 != 0 {
		opts.Weights = make([]int64, n+1)
		for v := 1; v <= n; v++ {
			opts.Weights[v] = int64(1 + next()%5)
		}
	}
	if flags&2 != 0 {
		for k := next() % (n + 1); k > 0; k-- {
			opts.Prefer = append(opts.Prefer, 1+next()%n)
		}
	}
	opts.MaxNodes = int64(flags >> 2 & 3)
	f := NewFormula(n)
	for i := 0; i < 40 && len(data) > 0; i++ {
		lits := make([]int, next()%5)
		for j := range lits {
			b := next()
			lits[j] = 1 + (b>>1)%n
			if b&1 != 0 {
				lits[j] = -lits[j]
			}
		}
		if _, err := f.AddClause(lits...); err != nil {
			panic(err) // unreachable: every literal is in range
		}
	}
	return f, opts
}

// FuzzMinOnes checks the search against enumeration on small formulas
// (checkMinOnes).
func FuzzMinOnes(f *testing.F) {
	f.Add([]byte{3, 0, 2, 2, 4, 2, 4, 6})
	f.Add([]byte{5, 1, 5, 1, 1, 1, 1, 3, 2, 4, 6, 3, 3, 5, 7})
	f.Add([]byte{9, 2, 3, 7, 2, 4, 2, 2, 5, 2, 3, 4, 3, 6, 8, 10, 1, 2})
	f.Add([]byte{9, 15, 2, 3, 5, 1, 4, 2, 1, 7, 3, 2, 4, 6, 3, 8, 10, 12, 2, 3, 5, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cnf, opts := decodeFuzzCNF(data)
		checkMinOnes(t, cnf, opts)
	})
}

// FuzzMinOnesComponents checks the search against enumeration on formulas
// made of disjoint parts (decodeComponents), so that the split, the
// hitting-set reductions and the shared budget all run.
func FuzzMinOnesComponents(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 3, 9, 1, 5, 1, 4, 4, 2, 6, 1, 7, 2, 2, 8, 3, 1, 0, 5})
	f.Add([]byte{2, 7, 4, 2, 0, 3, 1, 5, 9, 8, 3, 5, 7, 2, 6, 4, 4, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		cnf, opts := decodeComponents(data)
		checkMinOnes(t, cnf, opts)
	})
}

// checkMinOnes checks one search on a small formula (checkResult), that a
// second run returns the identical result, and the split path on its own
// too, also where the root bound makes MinOnes skip it.
func checkMinOnes(t *testing.T, cnf *Formula, opts Options) Result {
	t.Helper()
	res := MinOnes(cnf, opts)
	checkResult(t, cnf, opts, res)
	if again := MinOnes(cnf, opts); !reflect.DeepEqual(res, again) {
		t.Fatalf("second run differs:\n%+v\n%+v", res, again)
	}
	if s := newSolver(cnf, opts); !slices.Contains(s.free, 0) && s.rootPropagate() && s.split() {
		checkResult(t, cnf, opts, s.result())
	}
	return res
}

// checkResult checks that a found assignment satisfies the formula and has
// the cost it reports, and that a result claiming optimality agrees with
// brute force on satisfiability and on the optimum.
func checkResult(t *testing.T, cnf *Formula, opts Options, res Result) {
	t.Helper()
	if res.Satisfiable {
		if !cnf.Eval(res.Assignment) {
			t.Fatalf("assignment does not satisfy the formula\n%s", cnf.DIMACS())
		}
		if res.Cost != CountOnes(res.Assignment) {
			t.Fatalf("Cost = %d, but %d variables are true", res.Cost, CountOnes(res.Assignment))
		}
	}
	if sat := bruteMinOnes(cnf) >= 0; res.Satisfiable && !sat || res.Optimal && res.Satisfiable != sat {
		t.Fatalf("Satisfiable = %v (optimal %v), brute force says %v\n%s", res.Satisfiable, res.Optimal, sat, cnf.DIMACS())
	}
	if want := bruteMinWeight(cnf, opts.Weights); res.Optimal && res.Satisfiable && res.WeightedCost != want {
		t.Fatalf("optimal cost = %d, brute force = %d\n%s", res.WeightedCost, want, cnf.DIMACS())
	}
}
