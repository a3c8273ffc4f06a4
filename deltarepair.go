// Package deltarepair is a Go implementation of the delta-rule database
// repair framework from "On Multiple Semantics for Declarative Database
// Repairs" (Gilad, Deutch, Roy — SIGMOD 2020).
//
// Delta rules declaratively specify deletion-based repairs: a rule
//
//	Delta_Author(a, n) :- Author(a, n), AuthGrant(a, g), Delta_Grant(g, gn).
//
// reads "if grant g was deleted and author a won it, delete a". A delta
// program can express denial constraints, cascade deletions (SQL "after
// delete" triggers), and causal rules. Because one program admits several
// reasonable interpretations, the framework defines four semantics:
//
//   - Independent — the globally minimum set of deletions that leaves no
//     rule satisfiable (optimal repair; NP-hard, solved via provenance +
//     Min-Ones-SAT, the paper's Algorithm 1);
//   - Step — fire one rule instance at a time, updating immediately
//     (trigger-like; NP-hard to minimize, approximated by the paper's
//     greedy provenance-graph Algorithm 2);
//   - Stage — fire all satisfiable instances per round, then update
//     (deterministic cascade; PTIME);
//   - End — derive every deletable tuple first, update once at the end
//     (datalog baseline; PTIME).
//
// The typical flow:
//
//	schema, _ := deltarepair.ParseSchema(`Grant(gid, name)
//	                                      Author(aid, name)`)
//	db := deltarepair.NewDatabase(schema)
//	db.MustInsert("Grant", deltarepair.Int(2), deltarepair.Str("ERC"))
//	prog, _ := deltarepair.ParseProgram(
//	    `Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.`, schema)
//	result, repaired, _ := deltarepair.Repair(db, prog, deltarepair.Independent)
//
// See the examples/ directory for complete programs, and README.md for the
// architecture and the paper-experiment index.
package deltarepair

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/cqa"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/sideeffect"
	"repro/internal/viz"
)

// Re-exported core types: the public API is a thin facade over the
// internal packages, so all methods on these types are available.
type (
	// Schema declares relations and their attributes.
	Schema = engine.Schema
	// Database is an instance over a Schema, tracking base and delta
	// (deleted-tuple) relations.
	Database = engine.Database
	// Relation is a set of tuples with deterministic iteration.
	Relation = engine.Relation
	// Tuple is one immutable row.
	Tuple = engine.Tuple
	// Value is a typed scalar (int, string, or float).
	Value = engine.Value
	// Snapshot is an immutable frozen database state. Database.Freeze
	// produces one; Snapshot.Fork mints O(changes) copy-on-write working
	// copies that share the frozen storage and its warm indexes.
	Snapshot = engine.Snapshot
	// Program is a validated delta program.
	Program = datalog.Program
	// Rule is a single delta rule.
	Rule = datalog.Rule
	// Semantics selects one of the paper's four repair semantics.
	Semantics = core.Semantics
	// Result reports a computed repair: the stabilizing set, timings, and
	// diagnostics.
	Result = core.Result
	// Options bundles the per-call knobs of Prepared.Repair: solver
	// budgets, warm-start hints, and cancellation — with Ctx set, a run
	// returns ctx.Err() at its next checkpoint once the context is
	// canceled or its deadline passes.
	Options = core.Options
	// IndependentOptions tunes Algorithm 1 (solver budget, tie-breaking).
	IndependentOptions = core.IndependentOptions
)

// The four semantics (§3 of the paper).
const (
	End         = core.SemEnd
	Stage       = core.SemStage
	Step        = core.SemStep
	Independent = core.SemIndependent
)

// AllSemantics lists the four semantics in the paper's order:
// independent, step, stage, end.
var AllSemantics = core.AllSemantics

// Value constructors.

// Int builds an integer value.
func Int(i int) Value { return engine.Int(i) }

// Int64 builds an integer value from an int64.
func Int64(i int64) Value { return engine.Int64(i) }

// Str builds a string value.
func Str(s string) Value { return engine.Str(s) }

// Float builds a float value.
func Float(f float64) Value { return engine.Float(f) }

// NewSchema creates an empty schema; add relations with MustAddRelation or
// AddRelation.
func NewSchema() *Schema { return engine.NewSchema() }

// ParseSchema parses a schema declaration, one relation per line:
//
//	# comments allowed
//	Organization(oid, name)
//	Author:au(aid, name, oid)     # optional ":prefix" names tuple IDs au1, au2, ...
func ParseSchema(src string) (*Schema, error) {
	s, err := engine.ParseSchema(src)
	if err != nil {
		// Keep the public facade's historical error prefix: callers see
		// "deltarepair:", not the internal package name.
		return nil, fmt.Errorf("deltarepair: %s", strings.TrimPrefix(err.Error(), "engine: "))
	}
	return s, nil
}

// NewDatabase creates an empty database over the schema.
func NewDatabase(s *Schema) *Database { return engine.NewDatabase(s) }

// ParseProgram parses and validates a delta program against the schema.
// See the package documentation and internal/datalog for the concrete
// syntax.
func ParseProgram(src string, schema *Schema) (*Program, error) {
	return datalog.ParseAndValidate(src, schema)
}

// Repair computes the stabilizing set under the chosen semantics and
// returns it together with the repaired database (D \ S) ∪ ∆(S). The input
// database is cloned, never mutated. For options (budgets, cancellation,
// warm-start hints) use Prepared.Repair.
//
// bench/check.go (bench/ is its own Go module) calls Repair, so its shape
// changes only in a benchmark change that moves that caller first.
func Repair(db *Database, p *Program, sem Semantics) (*Result, *Database, error) {
	return core.RunWith(db, p, sem, Options{})
}

// RepairAll runs all four semantics as four policies over one shared
// derivation (the end fixpoint and its provenance graph are computed once)
// and returns their results keyed by semantics.
func RepairAll(db *Database, p *Program) (map[Semantics]*Result, error) {
	return core.RunAll(db, p, Options{})
}

// Prepared is a program compiled for repeated execution: validation, rule
// compilation, per-source-shape join planning, and index-requirement
// analysis all happen once in Prepare, and every Repair call on the result
// reuses them together with pooled execution state. A Prepared is safe for
// concurrent use.
//
// Server-style callers answering many repair requests over one large,
// mostly shared base should combine Prepared with copy-on-write snapshots:
// Prepare once, db.Freeze() once, and snap.Fork() per request —
//
//	pp, _ := deltarepair.Prepare(prog, schema)
//	snap := db.Freeze()
//	// per request (safe concurrently):
//	res, repaired, err := pp.Repair(snap.Fork(), deltarepair.Stage, deltarepair.Options{})
//
// Each request then pays O(relations) to fork plus cost proportional to
// its own deletions, never O(database); the forks share the frozen base's
// storage and warm indexes. Passing a database to Repair directly still
// works — the executors fork it internally — but the explicit
// Freeze/Fork handle is what makes concurrent serving over one base both
// cheap and race-free.
type Prepared struct {
	prep *datalog.Prepared
}

// Prepare compiles a validated program against its schema for repeated
// repair execution.
func Prepare(p *Program, schema *Schema) (*Prepared, error) {
	prep, err := datalog.Prepare(p, schema)
	if err != nil {
		return nil, err
	}
	return &Prepared{prep: prep}, nil
}

// Repair computes the stabilizing set under the chosen semantics using the
// prepared plans and opts (solver budgets, cancellation, warm-start hints;
// opts.Prepared is overwritten). Like Repair, the input database is
// cloned, never mutated.
func (pp *Prepared) Repair(db *Database, sem Semantics, opts Options) (*Result, *Database, error) {
	opts.Prepared = pp.prep
	return core.RunWith(db, pp.prep.Program, sem, opts)
}

// IsStable reports whether the database satisfies no rule of the program
// (Def. 3.12): a stable database needs no repair.
//
// bench/check.go (bench/ is its own Go module) calls IsStable, so its shape
// changes only in a benchmark change that moves that caller first.
func IsStable(db *Database, p *Program) (bool, error) {
	return core.CheckStable(db, p, Options{})
}

// IsStabilizingSet reports whether deleting the tuples with the given
// content keys stabilizes the database (Def. 3.14).
//
// bench/check.go (bench/ is its own Go module) calls IsStabilizingSet, so
// its shape changes only in a benchmark change that moves that caller
// first.
func IsStabilizingSet(db *Database, p *Program, keys []string) (bool, error) {
	return core.IsStabilizing(db, p, keys)
}

// Explanation types: answers to "why was this tuple deleted", extracted
// from the provenance of the end-semantics derivation (§5 of the paper).
type (
	// Explainer answers deletion-provenance queries for one database and
	// program.
	Explainer = core.Explainer
	// Explanation is a derivation tree for one deleted tuple.
	Explanation = core.Explanation
	// ResultExplanation pairs a deleted tuple with its explanation (nil
	// for underivable tuples, which independent semantics may delete).
	ResultExplanation = core.ResultExplanation
)

// NewExplainer captures deletion provenance for the database and program;
// use Explain/ExplainResult on the returned Explainer. Works for results
// of any semantics: every operationally-deletable tuple is covered, and
// underivable tuples (chosen only by independent semantics) are reported
// as having no derivation.
func NewExplainer(db *Database, p *Program) (*Explainer, error) {
	return core.NewExplainer(db, p)
}

// WriteReport writes a full Markdown repair analysis — database stats,
// violations, all four semantics' repairs, containments, and sample
// explanations — to w.
func WriteReport(w io.Writer, db *Database, p *Program) error {
	return report.Generate(w, db, p, report.Options{})
}

// ProvenanceDOT renders the program's deletion-provenance graph over the
// database as Graphviz DOT (the paper's Figure 5 layout).
func ProvenanceDOT(db *Database, p *Program) (string, error) {
	ex, err := core.NewExplainer(db, p)
	if err != nil {
		return "", err
	}
	return viz.ProvenanceDOT(ex.Graph, db.DisplayKey), nil
}

// Deletion-propagation (source side-effect) types: remove a view tuple at
// minimum cost while respecting a delta program's cascades (§7 of the
// paper proposes exactly this combination).
type (
	// View is a conjunctive query over base relations.
	View = sideeffect.View
	// SideEffectResult reports a view-tuple deletion solution.
	SideEffectResult = sideeffect.Result
)

// ParseView parses "V(x, y) :- R(x, z), S(z, y)." into a View.
func ParseView(src string, schema *Schema) (*View, error) {
	return sideeffect.ParseView(src, schema)
}

// DeleteViewTuple finds a minimum base-deletion set that removes the view
// row with the given values while keeping the database stable w.r.t. the
// program (nil program = plain deletion propagation), which it prepares
// once. Returns the solution and the repaired database.
func DeleteViewTuple(db *Database, v *View, target []Value, p *Program) (*SideEffectResult, *Database, error) {
	var prep *datalog.Prepared
	if p != nil {
		var err error
		if prep, err = datalog.Prepare(p, db.Schema); err != nil {
			return nil, nil, err
		}
	}
	return sideeffect.DeleteViewTuple(db, v, target, prep, sideeffect.Options{})
}

// Repair-space types: enumeration of the k best independent-semantics
// repairs and consistent query answering across them.
type (
	// RepairSpace holds distinct minimal repairs in nondecreasing cost
	// order plus the per-tuple certain/possible deletion classification.
	RepairSpace = core.RepairSpace
	// EnumerateOptions selects the space width (K) and the minimality
	// notion (set-minimal k-best, or cardinality-minimal only).
	EnumerateOptions = core.EnumerateOptions
	// Answers reports one conjunctive query's certain and possible answers
	// over a repair space.
	Answers = cqa.Answers
)

// MaxEnumRepairs caps EnumerateOptions.K (the per-tuple repair membership
// is a 64-bit mask).
const MaxEnumRepairs = core.MaxEnumRepairs

// EnumerateRepairs computes the k best independent-semantics repairs:
// distinct set-minimal stabilizing sets in nondecreasing cost order, with
// EnumerateRepairs(db, p, 1) identical to Repair(db, p, Independent). The
// input database is cloned, never mutated.
//
// bench/check.go (bench/ is its own Go module) calls EnumerateRepairs, so
// its shape changes only in a benchmark change that moves that caller
// first.
func EnumerateRepairs(db *Database, p *Program, k int) (*RepairSpace, error) {
	return core.EnumerateRepairsWith(db, p, Options{}, EnumerateOptions{K: k})
}

// AnswerQuery evaluates a conjunctive query consistently across a repair
// space: certain answers hold in every enumerated repair, possible answers
// in at least one. The database must be the instance the space was
// enumerated from (or a fork of the same snapshot version).
func AnswerQuery(db *Database, v *View, space *RepairSpace) (*Answers, error) {
	return cqa.Answer(db, v, space)
}

// SaveSnapshot / LoadSnapshot persist a database (schema, base and delta
// relations, tuple identities) to a binary stream, so repair sessions can
// be resumed. The stream is the checkpoint format: a layout frame, then
// one segment frame per non-empty relation side, each frame guarded by a
// CRC-32C.
func SaveSnapshot(db *Database, w io.Writer) error { return db.Save(w) }

// LoadSnapshot reconstructs a database from SaveSnapshot output.
func LoadSnapshot(r io.Reader) (*Database, error) { return engine.LoadSnapshot(r) }

// RepairAfterDeletions models the paper's second initialization scenario
// (§3.6) and causal "interventions" (§7): the database is stable, the user
// deletes the tuples with the given content keys, and the program repairs
// the fallout under the chosen semantics. Returns the repair result (which
// excludes the user's own deletions) and the repaired database.
func RepairAfterDeletions(db *Database, p *Program, keys []string, sem Semantics) (*Result, *Database, error) {
	work := db.Fork()
	for _, k := range keys {
		if !work.DeleteToDelta(k) {
			return nil, nil, fmt.Errorf("deltarepair: no live tuple %s to delete", k)
		}
	}
	return core.RunWith(work, p, sem, Options{})
}
