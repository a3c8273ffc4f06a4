package core

// The paper's conclusions (§8) note that all definitions and results of
// Sections 2-4 also apply to recursive programs; the limitation is only
// provenance size for Algorithms 1 and 2. This repository supports
// recursive programs end to end: derivation terminates because delta
// relations grow monotonically within base-relation bounds, Algorithm 1's
// positivized provenance is a single finite pass regardless of recursion,
// and Algorithm 2's layers come from the (terminating) end run. These
// tests pin that behaviour.

import (
	"fmt"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// chainDB builds a linked list Edge(1,2), ..., Edge(n-1,n) plus Node(i).
func chainDB(n int) *engine.Database {
	s := engine.NewSchema()
	s.MustAddRelation("Node", "n", "id")
	s.MustAddRelation("Edge", "e", "src", "dst")
	db := engine.NewDatabase(s)
	for i := 1; i <= n; i++ {
		db.MustInsert("Node", engine.Int(i))
	}
	for i := 1; i < n; i++ {
		db.MustInsert("Edge", engine.Int(i), engine.Int(i+1))
	}
	return db
}

// reachabilityProgram deletes node 1 and recursively every node reachable
// only through deleted nodes — transitive cascade, genuinely recursive.
func reachabilityProgram(t *testing.T, db *engine.Database) *datalog.Program {
	t.Helper()
	p, err := datalog.ParseAndValidate(`
(0) Delta_Node(x) :- Node(x), x = 1.
(1) Delta_Node(y) :- Node(y), Edge(x, y), Delta_Node(x).
`, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Recursive {
		t.Fatal("reachability program should be flagged recursive")
	}
	return p
}

func TestRecursiveCascadeEndAndStage(t *testing.T) {
	const n = 12
	db := chainDB(n)
	p := reachabilityProgram(t, db)

	end, _, err := RunWith(db, p, SemEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every node is reachable from node 1 along the chain.
	if end.Size() != n {
		t.Fatalf("end size = %d, want %d", end.Size(), n)
	}
	if end.Rounds != n {
		t.Fatalf("end rounds = %d, want %d (one hop per round)", end.Rounds, n)
	}
	stage, _, err := RunWith(db, p, SemStage, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stage.SameSet(end) {
		t.Fatal("stage must equal end on the pure cascade")
	}
	mustStable(t, db, p, end)
}

func TestRecursiveCascadeStepAndIndependent(t *testing.T) {
	const n = 10
	db := chainDB(n)
	p := reachabilityProgram(t, db)

	step, _, err := RunWith(db, p, SemStep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if step.Size() != n {
		t.Fatalf("greedy step size = %d, want %d", step.Size(), n)
	}
	mustStable(t, db, p, step)

	// Algorithm 1 on a recursive program: the positivized provenance is
	// still a single finite pass; the minimum repair deletes node 1 and
	// then must cascade (rule 1's clauses are implications), OR cut the
	// chain by deleting an Edge... Edges are not deletable by any rule,
	// but independent semantics may delete them anyway — deleting the
	// first edge (1,2) stops the cascade at cost 2 (node 1 + edge).
	ind, _, err := RunWith(db, p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ind.Size() != 2 {
		t.Fatalf("ind = %v, want node 1 plus one edge", ind.Keys())
	}
	mustStable(t, db, p, ind)
	by := ind.ByRelation()
	if by["Node"] != 1 || by["Edge"] != 1 {
		t.Fatalf("ind should delete one node and one edge: %v", by)
	}
}

func TestRecursiveCycleTerminates(t *testing.T) {
	// A cycle: deletion propagates all the way around and stops (delta
	// relations are sets; the fixpoint is reached when everything on the
	// cycle is deleted).
	s := engine.NewSchema()
	s.MustAddRelation("Node", "n", "id")
	s.MustAddRelation("Edge", "e", "src", "dst")
	db := engine.NewDatabase(s)
	const n = 6
	for i := 1; i <= n; i++ {
		db.MustInsert("Node", engine.Int(i))
		db.MustInsert("Edge", engine.Int(i), engine.Int(i%n+1))
	}
	p, err := datalog.ParseAndValidate(`
(0) Delta_Node(x) :- Node(x), x = 3.
(1) Delta_Node(y) :- Node(y), Edge(x, y), Delta_Node(x).
`, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range AllSemantics {
		res, _, err := RunWith(db, p, sem, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		mustStable(t, db, p, res)
		if sem == SemEnd || sem == SemStage || sem == SemStep {
			if res.ByRelation()["Node"] != n {
				t.Fatalf("%s should delete the whole cycle: %v", sem, res.ByRelation())
			}
		}
	}
}

func TestMutualRecursionAllSemantics(t *testing.T) {
	// Two mutually recursive relations: deleting an R propagates to S and
	// back. All four semantics must terminate and stabilize.
	s := engine.NewSchema()
	s.MustAddRelation("R", "r", "a")
	s.MustAddRelation("S", "s", "a")
	db := engine.NewDatabase(s)
	for i := 1; i <= 5; i++ {
		db.MustInsert("R", engine.Int(i))
		db.MustInsert("S", engine.Int(i))
	}
	p, err := datalog.ParseAndValidate(`
(0) Delta_R(x) :- R(x), x = 1.
(1) Delta_S(x) :- S(x), Delta_R(x).
(2) Delta_R(y) :- R(y), Delta_S(x), y = x + 0.
`, s)
	// The "+" syntax is not supported; use a join-free equivalent instead.
	if err != nil {
		p, err = datalog.ParseAndValidate(`
(0) Delta_R(x) :- R(x), x = 1.
(1) Delta_S(x) :- S(x), Delta_R(x).
(2) Delta_R(x) :- R(x), Delta_S(x).
`, s)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !p.Recursive {
		t.Fatal("program should be recursive")
	}
	for _, sem := range AllSemantics {
		res, _, err := RunWith(db, p, sem, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		mustStable(t, db, p, res)
	}
}

func TestRecursiveDeepChainScales(t *testing.T) {
	// A 400-deep recursion: exercises round bookkeeping and the
	// maxRounds guard headroom.
	const n = 400
	db := chainDB(n)
	p := reachabilityProgram(t, db)
	end, _, err := RunWith(db, p, SemEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if end.Size() != n || end.Rounds != n {
		t.Fatalf("deep chain: size %d rounds %d, want %d/%d", end.Size(), end.Rounds, n, n)
	}
}

func TestRecursiveProvenanceLayers(t *testing.T) {
	// Algorithm 2's layers on a recursive program equal the cascade depth.
	const n = 7
	db := chainDB(n)
	p := reachabilityProgram(t, db)
	res, _, err := RunWith(db, p, SemStep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != n {
		t.Fatalf("layers = %d, want %d", res.Rounds, n)
	}
	// Explanations trace the whole chain.
	ex, err := NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	lastKey := engine.ContentKey("Node", []engine.Value{engine.Int(n)})
	e := ex.Explain(lastKey)
	depth := 0
	for cur := e; cur != nil; {
		depth++
		if len(cur.After) == 0 {
			cur = nil
		} else {
			cur = cur.After[0]
		}
	}
	if depth != n {
		t.Fatalf("explanation depth = %d, want %d", depth, n)
	}
	_ = fmt.Sprint(e)
}
