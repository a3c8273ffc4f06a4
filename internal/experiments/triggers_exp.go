package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/triggers"
)

// TriggerRow compares trigger execution with the four semantics for one
// program (§6, "Comparison with Triggers"). The paper runs programs 3, 4,
// 5, 8, and 20.
type TriggerRow struct {
	Program string
	// PGDeleted / MySQLDeleted are the deletion counts under the
	// alphabetical (PostgreSQL) and creation-order (MySQL) policies.
	PGDeleted    int
	MySQLDeleted int
	PGTime       time.Duration
	MySQLTime    time.Duration
	// Semantics result sizes for contrast.
	Ind, Step, Stage, End int
	// OrderDependent reports whether the two policies' results differ
	// (the anomaly the paper demonstrates).
	OrderDependent bool
}

// TriggerPrograms are the programs the paper runs through SQL triggers.
var TriggerPrograms = []int{3, 4, 5, 8, 20}

// TriggerComparison runs the trigger simulation against the semantics on
// the paper's five programs. Trigger names are chosen so the alphabetical
// policy reverses the creation order on the multi-statement programs,
// exposing the order dependence the paper observed between PostgreSQL and
// MySQL.
func TriggerComparison(cfg Config) ([]TriggerRow, error) {
	cfg = cfg.withDefaults()
	ds := mas.Generate(mas.Config{Scale: cfg.MASScale, Seed: cfg.Seed})
	var out []TriggerRow
	for _, n := range TriggerPrograms {
		p, err := programs.MAS(n, ds)
		if err != nil {
			return nil, err
		}
		// Name triggers in reverse rule order so alphabetical != creation.
		names := make([]string, len(p.Rules))
		for i := range names {
			names[i] = fmt.Sprintf("t%c_rule%d", 'a'+len(names)-1-i, i+1)
		}
		trigs, err := triggers.Compile(p, names)
		if err != nil {
			return nil, err
		}
		pg, _, err := triggers.Execute(ds.DB, trigs, triggers.Alphabetical)
		if err != nil {
			return nil, err
		}
		my, _, err := triggers.Execute(ds.DB, trigs, triggers.CreationOrder)
		if err != nil {
			return nil, err
		}
		row := TriggerRow{
			Program:      fmt.Sprint(n),
			PGDeleted:    pg.Size(),
			MySQLDeleted: my.Size(),
			PGTime:       pg.Elapsed,
			MySQLTime:    my.Elapsed,
		}
		pgKeys := map[string]bool{}
		for _, k := range pg.Keys() {
			pgKeys[k] = true
		}
		row.OrderDependent = pg.Size() != my.Size()
		if !row.OrderDependent {
			for _, k := range my.Keys() {
				if !pgKeys[k] {
					row.OrderDependent = true
					break
				}
			}
		}
		rs, err := core.RunAll(ds.DB, p, core.Options{})
		if err != nil {
			return nil, err
		}
		row.Ind = rs[core.SemIndependent].Size()
		row.Step = rs[core.SemStep].Size()
		row.Stage = rs[core.SemStage].Size()
		row.End = rs[core.SemEnd].Size()
		out = append(out, row)
	}
	return out, nil
}

// WriteTriggerComparison renders the trigger comparison.
func WriteTriggerComparison(w io.Writer, rows []TriggerRow) {
	tw := newTable(w)
	fmt.Fprintln(tw, "Program\tPG del\tMySQL del\tOrder-dep\tInd\tStep\tStage\tEnd\tPG ms\tMySQL ms")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%s\t%s\n",
			r.Program, r.PGDeleted, r.MySQLDeleted, check(r.OrderDependent),
			r.Ind, r.Step, r.Stage, r.End, ms(r.PGTime), ms(r.MySQLTime))
	}
	tw.Flush()
}
