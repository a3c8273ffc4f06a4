package deltarepair_test

import (
	"fmt"

	deltarepair "repro"
)

// ExampleRepair demonstrates the minimal end-to-end flow: declare a schema,
// load tuples, parse a delta program, and compute the minimum repair.
func ExampleRepair() {
	schema, _ := deltarepair.ParseSchema(`
		Grant(gid, name)
		AuthGrant:ag(aid, gid)
	`)
	db := deltarepair.NewDatabase(schema)
	db.MustInsert("Grant", deltarepair.Int(2), deltarepair.Str("ERC"))
	db.MustInsert("AuthGrant", deltarepair.Int(4), deltarepair.Int(2))

	prog, _ := deltarepair.ParseProgram(`
		(0) Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.
		(1) Delta_AuthGrant(a, g) :- AuthGrant(a, g), Delta_Grant(g, n).
	`, schema)

	res, _, _ := deltarepair.Repair(db, prog, deltarepair.Independent)
	fmt.Println(res)
	// Output:
	// independent: 2 tuples deleted {g1, ag1}
}

// ExampleRepairAll contrasts the four semantics on a two-rule program with
// a shared body — the shape where they genuinely diverge (Prop. 3.19 of
// the paper).
func ExampleRepairAll() {
	schema, _ := deltarepair.ParseSchema(`
		R(a)
		S(a)
	`)
	db := deltarepair.NewDatabase(schema)
	db.MustInsert("R", deltarepair.Str("a"))
	db.MustInsert("S", deltarepair.Str("b"))

	prog, _ := deltarepair.ParseProgram(`
		Delta_R(x) :- R(x), S(y).
		Delta_S(y) :- R(x), S(y).
	`, schema)

	results, _ := deltarepair.RepairAll(db, prog)
	for _, sem := range deltarepair.AllSemantics {
		fmt.Printf("%s: %d deleted\n", sem, results[sem].Size())
	}
	// Output:
	// independent: 1 deleted
	// step: 1 deleted
	// stage: 2 deleted
	// end: 2 deleted
}

// ExamplePrepare demonstrates the amortized server-style flow: validate
// and plan the program once, then repair many databases over the same
// schema. Each Repair call reuses the compiled rules, the per-shape join
// plans, and pooled execution state.
func ExamplePrepare() {
	schema, _ := deltarepair.ParseSchema(`
		Dept(id)
		Emp(id, dept)
	`)
	prog, _ := deltarepair.ParseProgram(`
		Delta_Dept(d) :- Dept(d), d > 1.
		Delta_Emp(e, d) :- Emp(e, d), Delta_Dept(d).
	`, schema)
	pp, _ := deltarepair.Prepare(prog, schema) // once per program

	for _, nDepts := range []int{2, 3} { // once per request
		db := deltarepair.NewDatabase(schema)
		for d := 1; d <= nDepts; d++ {
			db.MustInsert("Dept", deltarepair.Int(d))
			db.MustInsert("Emp", deltarepair.Int(10*d), deltarepair.Int(d))
		}
		res, _, _ := pp.Repair(db, deltarepair.Stage, deltarepair.Options{})
		fmt.Printf("%d departments: %d deletions\n", nDepts, res.Size())
	}
	// Output:
	// 2 departments: 2 deletions
	// 3 departments: 4 deletions
}

// ExampleDatabase_Freeze shows the recommended serving pattern over one
// large shared base: Prepare once, Freeze once, Fork per request. Each
// fork is an O(changes) copy-on-write working copy sharing the frozen
// storage and warm indexes; forks are independent and safe to repair
// concurrently.
func ExampleDatabase_Freeze() {
	schema, _ := deltarepair.ParseSchema(`
		Dept(id)
		Emp(id, dept)
	`)
	prog, _ := deltarepair.ParseProgram(`
		Delta_Emp(e, d) :- Emp(e, d), Delta_Dept(d).
	`, schema)
	pp, _ := deltarepair.Prepare(prog, schema) // once per program

	db := deltarepair.NewDatabase(schema)
	for d := 1; d <= 3; d++ {
		db.MustInsert("Dept", deltarepair.Int(d))
		db.MustInsert("Emp", deltarepair.Int(10*d), deltarepair.Int(d))
	}
	snap := db.Freeze() // once per base
	deptKeys := db.Relation("Dept").Keys()

	for _, key := range deptKeys[:2] { // once per request
		work := snap.Fork() // O(changes) working copy
		work.DeleteToDelta(key)
		res, _, _ := pp.Repair(work, deltarepair.Stage, deltarepair.Options{})
		fmt.Printf("deleting %s cascades to %d employees\n", key, res.Size())
	}
	// Output:
	// deleting Dept(i1) cascades to 1 employees
	// deleting Dept(i2) cascades to 1 employees
}

// ExampleIsStable shows stability checking before and after a repair.
func ExampleIsStable() {
	schema, _ := deltarepair.ParseSchema(`N(v)`)
	db := deltarepair.NewDatabase(schema)
	db.MustInsert("N", deltarepair.Int(1))
	db.MustInsert("N", deltarepair.Int(5))

	prog, _ := deltarepair.ParseProgram(`Delta_N(v) :- N(v), v > 3.`, schema)

	before, _ := deltarepair.IsStable(db, prog)
	_, repaired, _ := deltarepair.Repair(db, prog, deltarepair.Stage)
	after, _ := deltarepair.IsStable(repaired, prog)
	fmt.Println(before, after)
	// Output:
	// false true
}

// ExampleNewExplainer answers "why was this tuple deleted" with a
// derivation chain back to the initiating deletion.
func ExampleNewExplainer() {
	schema, _ := deltarepair.ParseSchema(`
		Grant(gid, name)
		AuthGrant:ag(aid, gid)
	`)
	db := deltarepair.NewDatabase(schema)
	db.MustInsert("Grant", deltarepair.Int(2), deltarepair.Str("ERC"))
	db.MustInsert("AuthGrant", deltarepair.Int(4), deltarepair.Int(2))

	prog, _ := deltarepair.ParseProgram(`
		(0) Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.
		(1) Delta_AuthGrant(a, g) :- AuthGrant(a, g), Delta_Grant(g, n).
	`, schema)

	res, _, _ := deltarepair.Repair(db, prog, deltarepair.End)
	explainer, _ := deltarepair.NewExplainer(db, prog)
	for _, entry := range explainer.ExplainResult(res) {
		fmt.Print(entry.Explanation)
	}
	// Output:
	// Grant(i2,"ERC") deleted (layer 1)
	// AuthGrant(i4,i2) deleted (layer 2)
	//   after:
	//     Grant(i2,"ERC") deleted (layer 1)
}

// ExampleRepairAfterDeletions models a causal "intervention": the database
// is consistent, the user deletes a tuple, and the program repairs the
// fallout.
func ExampleRepairAfterDeletions() {
	schema, _ := deltarepair.ParseSchema(`
		Emp(id, dept)
		Dept(id)
	`)
	db := deltarepair.NewDatabase(schema)
	db.MustInsert("Dept", deltarepair.Int(1))
	db.MustInsert("Emp", deltarepair.Int(10), deltarepair.Int(1))
	db.MustInsert("Emp", deltarepair.Int(11), deltarepair.Int(1))

	// Cascade: employees of a deleted department are deleted.
	prog, _ := deltarepair.ParseProgram(`
		Delta_Emp(e, d) :- Emp(e, d), Delta_Dept(d).
	`, schema)

	deptKey := db.Relation("Dept").Keys()[0]
	res, _, _ := deltarepair.RepairAfterDeletions(db, prog, []string{deptKey}, deltarepair.Stage)
	fmt.Printf("cascade deleted %d employees\n", res.Size())
	// Output:
	// cascade deleted 2 employees
}
