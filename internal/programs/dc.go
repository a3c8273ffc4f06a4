package programs

import (
	"fmt"
	"math/rand"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// The HoloClean comparison (§6) runs on a single extended Author table
// Author(aid, name, oid, organization) with four denial constraints,
// expressed as delta rules that simulate DC semantics:
//
//	DC1: no two tuples with the same aid and different oid
//	DC2: no two tuples with the same aid and different name
//	DC3: no two tuples with the same aid and different organization
//	DC4: no two tuples with the same oid and different organization
//
// Equality predicates are inlined as shared variables (a1 = a2 becomes a
// single variable), which is semantically identical and joins efficiently.

// DCSchema returns the single-table schema of the HoloClean comparison.
func DCSchema() *engine.Schema {
	s := engine.NewSchema()
	s.MustAddRelation("Author", "a", "aid", "name", "oid", "organization")
	return s
}

// DCSource is the delta-rule text of DC1-DC4.
const DCSource = `
(DC1) Delta_Author(a, n1, o1, on1) :- Author(a, n1, o1, on1), Author(a, n2, o2, on2), o1 != o2.
(DC2) Delta_Author(a, n1, o1, on1) :- Author(a, n1, o1, on1), Author(a, n2, o2, on2), n1 != n2.
(DC3) Delta_Author(a, n1, o1, on1) :- Author(a, n1, o1, on1), Author(a, n2, o2, on2), on1 != on2.
(DC4) Delta_Author(a1, n1, o, on1) :- Author(a1, n1, o, on1), Author(a2, n2, o, on2), on1 != on2.
`

// DCs returns the four denial constraints as a validated delta program.
func DCs() (*datalog.Program, error) {
	return datalog.ParseAndValidate(DCSource, DCSchema())
}

// CleanAuthorTable generates a DC-consistent Author table of the given
// size: aids unique, names functionally determined by aid, organization
// name functionally determined by oid. numOrgs controls the oid domain.
func CleanAuthorTable(rows, numOrgs int, seed int64) *engine.Database {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDatabase(DCSchema())
	if numOrgs < 1 {
		numOrgs = 1
	}
	for aid := 1; aid <= rows; aid++ {
		oid := 1 + rng.Intn(numOrgs)
		db.MustInsert("Author",
			engine.Int(aid),
			engine.Str(fmt.Sprintf("name%d", aid)),
			engine.Int(oid),
			engine.Str(fmt.Sprintf("org%d", oid)),
		)
	}
	return db
}

// ErrorKind enumerates the cell corruptions InjectErrors applies.
type ErrorKind int

// The three corruption shapes, chosen to trip different DCs.
const (
	// ErrDuplicateAid overwrites a row's aid with another row's aid,
	// violating DC1-DC3 against that row.
	ErrDuplicateAid ErrorKind = iota
	// ErrWrongOrgName overwrites a row's organization name, violating DC4
	// against every other member of the org (and DC3 if aid duplicated).
	ErrWrongOrgName
	// ErrBoth applies both corruptions to the same row.
	ErrBoth
)

// InjectErrors corrupts n distinct rows of a clean Author table in place,
// cycling through the three error kinds (the mix drives the over-deletion
// growth of Table 4). It returns the keys of the corrupted tuples.
// Corruption replaces tuples (delete + insert), so set semantics hold.
func InjectErrors(db *engine.Database, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	authors := db.Relation("Author")
	tuples := authors.Tuples()
	rows := len(tuples)
	if n > rows/2 {
		n = rows / 2
	}
	perm := rng.Perm(rows)
	var corrupted []string
	used := make(map[int]bool, 2*n)

	for i, injected := 0, 0; injected < n && i < rows; i++ {
		victimIdx := perm[i]
		if used[victimIdx] {
			continue
		}
		victim := tuples[victimIdx]
		// Pick a distinct donor row whose aid the victim may copy.
		donorIdx := rng.Intn(rows)
		for donorIdx == victimIdx || used[donorIdx] {
			donorIdx = rng.Intn(rows)
		}
		donor := tuples[donorIdx]
		used[victimIdx], used[donorIdx] = true, true

		vals := append([]engine.Value(nil), victim.Vals...)
		// Typo values carry the victim's aid so two typos in one org stay
		// distinct: the minimum repair then always deletes the corrupted
		// rows themselves, keeping |Ind| = #errors (Table 4's baseline).
		typo := func(s string) engine.Value {
			return engine.Str(fmt.Sprintf("%s_typo%d", s, victim.Vals[0].Int))
		}
		switch ErrorKind(injected % 3) {
		case ErrDuplicateAid:
			vals[0] = donor.Vals[0]
		case ErrWrongOrgName:
			vals[3] = typo(vals[3].Str)
		case ErrBoth:
			vals[0] = donor.Vals[0]
			vals[3] = typo(vals[3].Str)
		}
		newKey := engine.ContentKey("Author", vals)
		if authors.Contains(newKey) {
			continue // corruption would collapse into an existing tuple
		}
		authors.Delete(victim.Key())
		nt, err := db.Insert("Author", vals...)
		if err != nil {
			panic(err)
		}
		corrupted = append(corrupted, nt.Key())
		injected++
	}
	return corrupted
}
