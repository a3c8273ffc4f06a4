// Package mas generates a synthetic academic database with the shape of the
// MAS (Microsoft Academic Search) fragment the paper evaluates on:
// Organization, Author, Writes, Publication, and Cite relations totalling
// ~124K tuples at scale 1.0.
//
// The real MAS fragment is not redistributable; the experiments only depend
// on the schema, the relative cardinalities, and skewed join fan-outs
// (hub organizations with many authors, prolific authors with many papers,
// well-cited publications). The generator substitutes for the real
// fragment by reproducing those properties deterministically from a seed.
package mas

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
)

// Cardinalities at scale 1.0, totalling ~124K tuples like the paper's
// fragment.
const (
	baseOrganizations = 600
	baseAuthors       = 20000
	basePublications  = 40000
	baseWrites        = 55000
	baseCites         = 8400
)

// Config controls generation.
type Config struct {
	// Scale multiplies all base cardinalities; 1.0 ≈ 124K tuples.
	Scale float64
	// Seed drives the deterministic random stream.
	Seed int64
}

// Dataset is the generated database plus the metadata experiments need to
// pick rule constants (hub entities, sizes).
type Dataset struct {
	DB *engine.Database

	// NumOrganizations .. NumCites are the realized cardinalities.
	NumOrganizations int
	NumAuthors       int
	NumPublications  int
	NumWrites        int
	NumCites         int

	// HubOrg is the organization id with the most authors (used as the
	// constant C of programs 4, 10, 16-20).
	HubOrg int
	// HubOrgAuthors is the number of authors affiliated with HubOrg.
	HubOrgAuthors int
	// HubAuthor is the author id with the most Writes tuples (constant C
	// of programs 2, 3, 8).
	HubAuthor int
	// HubAuthorName is HubAuthor's name (constant C1 of programs 1, 5, 6, 9).
	HubAuthorName string
	// HubAuthorWrites is the number of papers HubAuthor writes.
	HubAuthorWrites int
	// HubPub is the publication id with the most citations (constant C of
	// program 7).
	HubPub int
}

// Schema returns the MAS schema:
//
//	Organization(oid, name)    Author(aid, name, oid)
//	Writes(aid, pid)           Publication(pid, title)
//	Cite(citing, cited)
func Schema() *engine.Schema {
	s := engine.NewSchema()
	s.MustAddRelation("Organization", "o", "oid", "name")
	s.MustAddRelation("Author", "a", "aid", "name", "oid")
	s.MustAddRelation("Writes", "w", "aid", "pid")
	s.MustAddRelation("Publication", "p", "pid", "title")
	s.MustAddRelation("Cite", "c", "citing", "cited")
	return s
}

func scaled(base int, scale float64) int {
	n := int(math.Round(float64(base) * scale))
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds the dataset. The same Config always yields the same
// database, tuple for tuple.
func Generate(cfg Config) *Dataset {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := engine.NewDatabase(Schema())

	nOrgs := scaled(baseOrganizations, cfg.Scale)
	nAuthors := scaled(baseAuthors, cfg.Scale)
	nPubs := scaled(basePublications, cfg.Scale)
	nWrites := scaled(baseWrites, cfg.Scale)
	nCites := scaled(baseCites, cfg.Scale)

	ds := &Dataset{DB: db}

	// Organizations: org 1 is the designated hub holding ~5% of authors.
	for o := 1; o <= nOrgs; o++ {
		db.MustInsert("Organization", engine.Int(o), engine.Str(fmt.Sprintf("org%d", o)))
	}

	// Authors with a skewed org assignment: 5% to the hub, the rest by a
	// quadratic skew favouring low org ids.
	orgAuthors := make(map[int]int, nOrgs)
	for a := 1; a <= nAuthors; a++ {
		var org int
		if rng.Float64() < 0.05 || nOrgs == 1 {
			org = 1
		} else {
			// Quadratic skew over orgs 2..nOrgs (org 1's share comes only
			// from the explicit 5% hub branch above).
			u := rng.Float64()
			org = 2 + int(u*u*float64(nOrgs-1))
			if org > nOrgs {
				org = nOrgs
			}
		}
		orgAuthors[org]++
		db.MustInsert("Author", engine.Int(a), engine.Str(fmt.Sprintf("author%d", a)), engine.Int(org))
	}

	// Publications.
	for p := 1; p <= nPubs; p++ {
		db.MustInsert("Publication", engine.Int(p), engine.Str(fmt.Sprintf("title%d", p)))
	}

	// Writes: author 1 is the designated prolific hub (~0.2% of all Writes
	// tuples, at least 20); remaining writes pair a skewed author with a
	// random paper. Duplicate (aid,pid) pairs collapse via set semantics,
	// so we loop until the target count is reached.
	hubWrites := nWrites / 500
	if hubWrites < 20 {
		hubWrites = 20
	}
	if hubWrites > nPubs {
		hubWrites = nPubs
	}
	for db.Relation("Writes").Len() < hubWrites {
		pid := 1 + rng.Intn(nPubs)
		db.MustInsert("Writes", engine.Int(1), engine.Int(pid))
	}
	for db.Relation("Writes").Len() < nWrites {
		u := rng.Float64()
		aid := 1 + int(u*u*float64(nAuthors))
		if aid > nAuthors {
			aid = nAuthors
		}
		pid := 1 + rng.Intn(nPubs)
		db.MustInsert("Writes", engine.Int(aid), engine.Int(pid))
	}

	// Cites: pub 1 is the designated well-cited hub; citing != cited.
	hubCites := nCites / 100
	if hubCites < 5 {
		hubCites = 5
	}
	for db.Relation("Cite").Len() < hubCites {
		citing := 2 + rng.Intn(nPubs-1)
		db.MustInsert("Cite", engine.Int(citing), engine.Int(1))
	}
	for db.Relation("Cite").Len() < nCites {
		citing := 1 + rng.Intn(nPubs)
		cited := 1 + rng.Intn(nPubs)
		if citing == cited {
			continue
		}
		db.MustInsert("Cite", engine.Int(citing), engine.Int(cited))
	}

	ds.NumOrganizations = db.Relation("Organization").Len()
	ds.NumAuthors = db.Relation("Author").Len()
	ds.NumPublications = db.Relation("Publication").Len()
	ds.NumWrites = db.Relation("Writes").Len()
	ds.NumCites = db.Relation("Cite").Len()
	ds.HubOrg = 1
	ds.HubOrgAuthors = orgAuthors[1]
	ds.HubAuthor = 1
	ds.HubAuthorName = "author1"
	ds.HubAuthorWrites = db.Relation("Writes").LookupCount(0, engine.Int(1))
	ds.HubPub = 1
	return ds
}

// Total returns the total number of base tuples in the dataset.
func (d *Dataset) Total() int {
	return d.NumOrganizations + d.NumAuthors + d.NumPublications + d.NumWrites + d.NumCites
}
