// Command deltarepair repairs a CSV-backed database with a delta program
// under a chosen semantics.
//
// Usage:
//
//	deltarepair -schema schema.txt -program rules.dl -data ./csv [-semantics independent] [-out ./repaired] [-show 20]
//
// The schema file declares one relation per line ("Author(aid, name)");
// the data directory holds one headerless CSV per relation (Author.csv);
// the program file holds delta rules in the syntax of the paper, e.g.
//
//	(0) Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.
//	(1) Delta_Author(a, n) :- Author(a, n), AuthGrant(a, g), Delta_Grant(g, gn).
//
// With no flags the built-in running example of the paper (Figures 1-2) is
// repaired under all four semantics — a zero-setup demo.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	deltarepair "repro"
	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/report"
	"repro/internal/sqlgen"
	"repro/internal/viz"
)

// splitLines splits rendered explanation trees for indentation.
func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

// emitSQLArtifacts prints the SQL form of the schema and program (the
// paper's own implementation strategy) instead of executing a repair.
func emitSQLArtifacts(db *deltarepair.Database, prog *deltarepair.Program, withSchema bool, triggerDialect string) error {
	if withSchema {
		fmt.Println("-- Schema DDL (base + delta tables):")
		fmt.Println(sqlgen.SchemaDDL(db.Schema))
		script, err := sqlgen.ProgramScript(prog, db.Schema)
		if err != nil {
			return err
		}
		fmt.Println(script)
	}
	if triggerDialect != "" {
		var d sqlgen.Dialect
		switch triggerDialect {
		case "postgres", "postgresql":
			d = sqlgen.Postgres
		case "mysql":
			d = sqlgen.MySQL
		default:
			return fmt.Errorf("unknown trigger dialect %q", triggerDialect)
		}
		ddl, err := sqlgen.TriggerDDL(prog, db.Schema, d)
		if err != nil {
			return err
		}
		fmt.Println(ddl)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deltarepair:", err)
		os.Exit(1)
	}
}

func run() error {
	schemaPath := flag.String("schema", "", "schema declaration file (Name(attr, ...) per line)")
	programPath := flag.String("program", "", "delta program file")
	dataDir := flag.String("data", "", "directory of <Relation>.csv files")
	semName := flag.String("semantics", "all", "independent | step | stage | end | all")
	outDir := flag.String("out", "", "write repaired relations as CSVs to this directory")
	show := flag.Int("show", 15, "print up to this many deleted tuples")
	explain := flag.Bool("explain", false, "print a derivation tree for each deleted tuple")
	emitSQL := flag.Bool("emit-sql", false, "print schema DDL and one evaluation round of the program as SQL, then exit")
	emitTriggers := flag.String("emit-triggers", "", "print AFTER DELETE trigger DDL for the given dialect (postgres | mysql), then exit")
	dotPath := flag.String("dot", "", "write the provenance graph (Figure 5 style) as Graphviz DOT to this file")
	reportPath := flag.String("report", "", "write a full Markdown repair analysis (all semantics) to this file")
	flag.Parse()

	var db *deltarepair.Database
	var prog *deltarepair.Program
	if *schemaPath == "" && *programPath == "" && *dataDir == "" {
		fmt.Println("No inputs given; repairing the paper's running example (Figures 1-2).")
		db = programs.RunningExampleDB()
		p, err := programs.RunningExampleProgram()
		if err != nil {
			return err
		}
		prog = p
	} else {
		if *schemaPath == "" || *programPath == "" || *dataDir == "" {
			return fmt.Errorf("-schema, -program and -data must be given together")
		}
		schemaSrc, err := os.ReadFile(*schemaPath)
		if err != nil {
			return err
		}
		schema, err := deltarepair.ParseSchema(string(schemaSrc))
		if err != nil {
			return err
		}
		db = deltarepair.NewDatabase(schema)
		for _, rs := range schema.Relations {
			path := filepath.Join(*dataDir, rs.Name+".csv")
			if _, statErr := os.Stat(path); statErr != nil {
				fmt.Printf("  (no data file for %s, relation starts empty)\n", rs.Name)
				continue
			}
			n, err := db.LoadCSVFile(rs.Name, path)
			if err != nil {
				return err
			}
			fmt.Printf("  loaded %d tuples into %s\n", n, rs.Name)
		}
		progSrc, err := os.ReadFile(*programPath)
		if err != nil {
			return err
		}
		prog, err = deltarepair.ParseProgram(string(progSrc), schema)
		if err != nil {
			return err
		}
	}

	if *emitSQL || *emitTriggers != "" {
		return emitSQLArtifacts(db, prog, *emitSQL, *emitTriggers)
	}
	if *dotPath != "" {
		ex, err := core.NewExplainer(db, prog)
		if err != nil {
			return err
		}
		graph := ex.Graph
		if err := os.WriteFile(*dotPath, []byte(viz.ProvenanceDOT(graph, db.DisplayKey)), 0o644); err != nil {
			return err
		}
		fmt.Printf("provenance graph written to %s (%d delta nodes, %d layers)\n\n",
			*dotPath, len(graph.Heads), graph.NumLayers)
	}
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			return err
		}
		if err := report.Generate(f, db, prog, report.Options{}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("repair report written to %s\n\n", *reportPath)
	}

	stable, err := deltarepair.IsStable(db, prog)
	if err != nil {
		return err
	}
	fmt.Printf("Database: %d tuples; stable: %v\n\n", db.TotalTuples(), stable)

	var sems []deltarepair.Semantics
	switch *semName {
	case "independent":
		sems = []deltarepair.Semantics{deltarepair.Independent}
	case "step":
		sems = []deltarepair.Semantics{deltarepair.Step}
	case "stage":
		sems = []deltarepair.Semantics{deltarepair.Stage}
	case "end":
		sems = []deltarepair.Semantics{deltarepair.End}
	case "all":
		sems = deltarepair.AllSemantics
	default:
		return fmt.Errorf("unknown semantics %q", *semName)
	}

	var explainer *deltarepair.Explainer
	if *explain {
		explainer, err = deltarepair.NewExplainer(db, prog)
		if err != nil {
			return err
		}
	}

	for _, sem := range sems {
		res, repaired, err := deltarepair.Repair(db, prog, sem)
		if err != nil {
			return err
		}
		fmt.Printf("%s semantics: %d tuples deleted (eval %v",
			sem, res.Size(), res.Timing.Eval.Round(10e3))
		if res.Timing.Solve > 0 {
			fmt.Printf(", solve %v", res.Timing.Solve.Round(10e3))
		}
		if res.Timing.Traverse > 0 {
			fmt.Printf(", traverse %v", res.Timing.Traverse.Round(10e3))
		}
		fmt.Println(")")
		for i, t := range res.Deleted {
			if i >= *show {
				fmt.Printf("  ... and %d more\n", res.Size()-*show)
				break
			}
			fmt.Printf("  - %s\n", t)
			if explainer != nil {
				if e := explainer.Explain(t.Key()); e != nil {
					for _, line := range splitLines(e.String()) {
						fmt.Printf("      %s\n", line)
					}
				} else {
					fmt.Printf("      (no derivation: chosen directly by the optimizer)\n")
				}
			}
		}
		if *outDir != "" && len(sems) == 1 {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			for _, rs := range repaired.Schema.Relations {
				path := filepath.Join(*outDir, rs.Name+".csv")
				if err := repaired.WriteCSVFile(rs.Name, path); err != nil {
					return err
				}
			}
			fmt.Printf("repaired relations written to %s\n", *outDir)
		}
		fmt.Println()
	}
	return nil
}
