// Package programs instantiates the paper's evaluation workloads: the 20
// MAS programs of Table 1, the 6 TPC-H programs of Table 2, the four denial
// constraints of the HoloClean comparison (§6), and the running example of
// Figures 1–2. Constants (the paper's C, C1, C2, ...) are bound from
// dataset metadata (hub entities and key cuts).
package programs

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/mas"
)

// Class is the paper's three-way program classification (§6, "Test
// programs").
type Class int

// Program classes.
const (
	// ClassDC mimics integrity constraints such as denial constraints
	// (programs 1-4, 11-15).
	ClassDC Class = iota
	// ClassCascade performs cascade deletion (programs 5, 9, 10, 16-20;
	// TPC-H 1-3).
	ClassCascade
	// ClassMixed mixes both (programs 6-8; TPC-H 4-6).
	ClassMixed
)

// String names the class as in the paper.
func (c Class) String() string {
	switch c {
	case ClassDC:
		return "integrity-constraint"
	case ClassCascade:
		return "cascade-deletion"
	case ClassMixed:
		return "mixed"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// MASClass returns the classification of MAS program n (1-20).
func MASClass(n int) Class {
	switch {
	case n >= 1 && n <= 4, n >= 11 && n <= 15:
		return ClassDC
	case n == 5, n == 9, n == 10, n >= 16 && n <= 20:
		return ClassCascade
	default:
		return ClassMixed
	}
}

// MAS returns MAS program n (1-20) of Table 1, with constants bound from
// the dataset: C1/C = the hub author's name or id (programs 1-3, 5-9),
// the hub organization (4, 10, 16-20), and the hub publication (7).
func MAS(n int, ds *mas.Dataset) (*datalog.Program, error) {
	if n < 1 || n > 20 {
		return nil, fmt.Errorf("programs: MAS program %d out of range 1-20", n)
	}
	src, err := masSource(n, ds)
	if err != nil {
		return nil, err
	}
	return datalog.ParseAndValidate(src, mas.Schema())
}

// MASSource exposes the concrete rule text of program n (for docs, the CLI,
// and tests).
func MASSource(n int, ds *mas.Dataset) (string, error) { return masSource(n, ds) }

func masSource(n int, ds *mas.Dataset) (string, error) {
	authorName := ds.HubAuthorName
	authorID := ds.HubAuthor
	orgID := ds.HubOrg
	pubID := ds.HubPub
	pidCut := ds.NumPublications/2 + 1

	switch n {
	case 1:
		return fmt.Sprintf(`
(1) Delta_Author(aid, n, oid) :- Author(aid, n, oid), n = '%s'.
(2) Delta_Writes(aid, pid) :- Writes(aid, pid), aid = %d.
`, authorName, authorID), nil
	case 2:
		return fmt.Sprintf(`
(1) Delta_Writes(aid, pid) :- Writes(aid, pid), Author(aid, n, oid), aid = %d.
`, authorID), nil
	case 3:
		return fmt.Sprintf(`
(1) Delta_Author(aid, n, oid) :- Writes(aid, pid), Author(aid, n, oid), aid = %d.
(2) Delta_Writes(aid, pid) :- Writes(aid, pid), Author(aid, n, oid), aid = %d.
`, authorID, authorID), nil
	case 4:
		// Paper head "∆A(aid, pid)" normalized to the full Author vector,
		// because Def. 3.1 requires the head to repeat a body atom.
		return fmt.Sprintf(`
(1) Delta_Author(aid, n, oid) :- Organization(oid, n2), Author(aid, n, oid), oid = %d.
(2) Delta_Organization(oid, n2) :- Organization(oid, n2), Author(aid, n, oid), oid = %d.
`, orgID, orgID), nil
	case 5:
		return fmt.Sprintf(`
(1) Delta_Author(aid, n, oid) :- Author(aid, n, oid), n = '%s'.
(2) Delta_Writes(aid, pid) :- Writes(aid, pid), Delta_Author(aid, n, oid).
`, authorName), nil
	case 6:
		return fmt.Sprintf(`
(1) Delta_Author(aid, n, oid) :- Author(aid, n, oid), n = '%s'.
(2) Delta_Writes(aid, pid) :- Writes(aid, pid), Delta_Author(aid, n, oid).
(3) Delta_Publication(pid, t) :- Publication(pid, t), Delta_Writes(aid, pid), Author(aid, n, oid).
`, authorName), nil
	case 7:
		return fmt.Sprintf(`
(1) Delta_Publication(pid, t) :- Publication(pid, t), pid = %d.
(2) Delta_Cite(pid, cited) :- Cite(pid, cited), Delta_Publication(pid, t).
(3) Delta_Cite(citing, pid) :- Cite(citing, pid), Delta_Publication(pid, t).
`, pubID), nil
	case 8:
		return fmt.Sprintf(`
(1) Delta_Author(aid, n, oid) :- Writes(aid, pid), Author(aid, n, oid), aid = %d.
(2) Delta_Writes(aid, pid) :- Writes(aid, pid), Author(aid, n, oid), aid = %d.
(3) Delta_Publication(pid, t) :- Publication(pid, t), Delta_Writes(aid, pid), Author(aid, n, oid).
(4) Delta_Publication(pid, t) :- Publication(pid, t), Writes(aid, pid), Delta_Author(aid, n, oid).
`, authorID, authorID), nil
	case 9:
		return fmt.Sprintf(`
(1) Delta_Author(aid, n, oid) :- Author(aid, n, oid), n = '%s'.
(2) Delta_Writes(aid, pid) :- Writes(aid, pid), Delta_Author(aid, n, oid).
(3) Delta_Publication(pid, t) :- Publication(pid, t), Delta_Writes(aid, pid).
(4) Delta_Cite(pid, cited) :- Cite(pid, cited), Delta_Publication(pid, t), pid < %d.
`, authorName, pidCut), nil
	case 10:
		return fmt.Sprintf(`
(1) Delta_Organization(oid, n2) :- Organization(oid, n2), oid = %d.
(2) Delta_Author(aid, n, oid) :- Author(aid, n, oid), Delta_Organization(oid, n2).
(3) Delta_Writes(aid, pid) :- Writes(aid, pid), Delta_Author(aid, n, oid).
(4) Delta_Publication(pid, t) :- Publication(pid, t), Delta_Writes(aid, pid).
`, orgID), nil
	case 11, 12, 13, 14, 15:
		// Single rule with n-11 extra joins (paper's nested-braces row;
		// body atom P(t, pid) normalized to Publication(pid, t)).
		body := "Cite(pid, c2)"
		if n >= 12 {
			body += ", Publication(pid, t)"
		}
		if n >= 13 {
			body += ", Writes(aid, pid)"
		}
		if n >= 14 {
			body += ", Author(aid, nm, oid)"
		}
		if n >= 15 {
			body += ", Organization(oid, n2)"
		}
		return fmt.Sprintf("(1) Delta_Cite(pid, c2) :- %s.\n", body), nil
	case 16, 17, 18, 19, 20:
		// Cascade chain prefixes: program 16 + k is the chain's first k + 1
		// rules (the paper lists these programs by rule tags; here each tag
		// set is normalized to a prefix of one chain).
		rules := []string{
			fmt.Sprintf("(1) Delta_Organization(oid, n2) :- Organization(oid, n2), oid = %d.", orgID),
			"(2) Delta_Author(aid, n, oid) :- Author(aid, n, oid), Delta_Organization(oid, n2).",
			"(3) Delta_Writes(aid, pid) :- Writes(aid, pid), Delta_Author(aid, n, oid).",
			"(4) Delta_Publication(pid, t) :- Publication(pid, t), Delta_Writes(aid, pid).",
			"(5) Delta_Cite(citing, pid) :- Cite(citing, pid), Delta_Publication(pid, t).",
		}
		src := ""
		for i := 0; i < n-15; i++ {
			src += rules[i] + "\n"
		}
		return src, nil
	default:
		return "", fmt.Errorf("programs: MAS program %d out of range", n)
	}
}
