// Package holoclean implements the cell-repair baseline the paper compares
// against (§6, "Comparison with HoloClean"). HoloClean treats denial
// constraints as soft constraints and repairs individual cells using
// statistical signal from the clean portion of the data; consequently it
// (a) repairs cells rather than deleting tuples, (b) under-repairs
// increasingly as the error rate grows (Table 4's −26…−693 column), and
// (c) can leave residual DC violations (Table 5). This package simulates
// exactly that behavioural signature with a majority-vote model over
// attribute co-occurrence, gated by a confidence threshold — a substitute
// for the original's Torch/ML stack that keeps only that signature.
//
// Scope mirrors the paper's comparison setup: a single extended Author
// table Author(aid, name, oid, organization) with DC1-DC4 (the default
// single-table input of the HoloClean release the paper used).
package holoclean

import (
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// Config tunes the repair model.
type Config struct {
	// ConfidenceThreshold is the minimum fraction of co-occurrence
	// evidence that must agree on a repair value before a cell is changed;
	// 0 means DefaultConfidence. Lower thresholds repair more cells but
	// risk wrong repairs — HoloClean's precision/recall dial.
	ConfidenceThreshold float64
}

// DefaultConfidence matches a precision-oriented HoloClean configuration.
const DefaultConfidence = 0.9

// Report summarizes one repair run.
type Report struct {
	// NoisyCells is the number of cells flagged by DC violation detection.
	NoisyCells int
	// RepairedCells is the number of cells actually rewritten.
	RepairedCells int
	// RepairedTuples is the number of tuples with at least one repaired
	// cell (the paper's Table 4 counts repaired tuples).
	RepairedTuples int
	// Elapsed is the wall-clock repair time.
	Elapsed time.Duration
}

// Repair runs detection and inference over a clone of db and returns the
// repaired database. The input is not modified.
func Repair(db *engine.Database, cfg Config) (*Report, *engine.Database, error) {
	threshold := cfg.ConfidenceThreshold
	if threshold <= 0 {
		threshold = DefaultConfidence
	}
	start := time.Now()
	work := db.Fork()
	rep := &Report{}

	authors := work.Relation("Author")
	tuples := authors.Tuples()

	// --- Error detection: cells in conflict under DC1-DC4. ---
	// Group by aid (DC1-DC3) and by oid (DC4).
	byAid := make(map[int64][]*engine.Tuple)
	byOid := make(map[int64][]*engine.Tuple)
	for _, t := range tuples {
		byAid[t.Vals[0].Int] = append(byAid[t.Vals[0].Int], t)
		byOid[t.Vals[2].Int] = append(byOid[t.Vals[2].Int], t)
	}
	noisy := make(map[engine.TupleID]map[int]bool) // tuple -> conflicted columns
	markNoisy := func(t *engine.Tuple, col int) {
		m := noisy[t.TID]
		if m == nil {
			m = make(map[int]bool)
			noisy[t.TID] = m
		}
		if !m[col] {
			m[col] = true
			rep.NoisyCells++
		}
	}
	for _, group := range byAid {
		if len(group) < 2 {
			continue
		}
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				for _, col := range []int{1, 2, 3} { // name, oid, organization
					if !a.Vals[col].Equal(b.Vals[col]) {
						markNoisy(a, col)
						markNoisy(b, col)
					}
				}
			}
		}
	}
	// DC4: same oid, conflicting organization name. Majority statistics
	// come from the full oid group, so collect counts while detecting.
	orgNameVotes := make(map[int64]map[string]int)
	for oid, group := range byOid {
		votes := make(map[string]int)
		for _, t := range group {
			votes[t.Vals[3].Str]++
		}
		orgNameVotes[oid] = votes
		if len(votes) > 1 {
			for _, t := range group {
				markNoisy(t, 3)
			}
		}
	}

	// --- Inference: majority vote per noisy cell, gated by confidence. ---
	// organization (col 3): vote by oid co-occurrence.
	// name (col 1): vote within the aid group (usually a 2-way tie: no
	// repair, like HoloClean's behaviour on key-duplication errors).
	type cellRepair struct {
		t   *engine.Tuple
		col int
		val engine.Value
	}
	var repairs []cellRepair
	repairedTuple := make(map[engine.TupleID]bool)
	for _, t := range tuples {
		cols := noisy[t.TID]
		if cols == nil {
			continue
		}
		if cols[3] {
			votes := orgNameVotes[t.Vals[2].Int]
			total, bestVal, bestN := 0, "", 0
			for v, n := range votes {
				total += n
				if n > bestN || (n == bestN && v < bestVal) {
					bestVal, bestN = v, n
				}
			}
			conf := float64(bestN) / float64(total)
			if conf >= threshold && t.Vals[3].Str != bestVal {
				repairs = append(repairs, cellRepair{t, 3, engine.Str(bestVal)})
			}
		}
		if cols[1] {
			group := byAid[t.Vals[0].Int]
			votes := make(map[string]int)
			for _, u := range group {
				votes[u.Vals[1].Str]++
			}
			total, bestVal, bestN := 0, "", 0
			for v, n := range votes {
				total += n
				if n > bestN || (n == bestN && v < bestVal) {
					bestVal, bestN = v, n
				}
			}
			conf := float64(bestN) / float64(total)
			if conf >= threshold && t.Vals[1].Str != bestVal {
				repairs = append(repairs, cellRepair{t, 1, engine.Str(bestVal)})
			}
		}
		// oid conflicts (col 2) have no co-occurrence signal beyond the
		// conflicting pair itself; like HoloClean on key duplication, no
		// repair is proposed.
	}

	// --- Apply repairs (UPDATEs as delete+insert under set semantics). ---
	for _, r := range repairs {
		if !authors.ContainsTuple(r.t) {
			continue // an earlier repair already rewrote this tuple
		}
		vals := append([]engine.Value(nil), r.t.Vals...)
		vals[r.col] = r.val
		authors.DeleteTuple(r.t)
		if _, err := work.Insert("Author", vals...); err != nil {
			return nil, nil, err
		}
		rep.RepairedCells++
		if !repairedTuple[r.t.TID] {
			repairedTuple[r.t.TID] = true
			rep.RepairedTuples++
		}
	}

	rep.Elapsed = time.Since(start)
	return rep, work, nil
}

// ViolatingTuples counts, for each rule of the DC program, the number of
// distinct tuples participating in at least one violating assignment — the
// measurement of Table 5 ("number of tuples that violate a DC with other
// tuples"; tuples violating several DCs count once per DC). The returned
// slice is indexed by rule position; the second value is the total across
// DCs (which may exceed the number of distinct tuples overall, as in the
// paper's Total column).
func ViolatingTuples(db *engine.Database, dcs *datalog.Program) ([]int, int, error) {
	prep, err := datalog.Prepare(dcs, db.Schema)
	if err != nil {
		return nil, 0, err
	}
	out := make([]int, len(dcs.Rules))
	total := 0
	for i, pr := range prep.Rules {
		seen := make(map[engine.TupleID]bool)
		err := pr.EvalOperational(db, nil, func(a *datalog.Assignment) bool {
			for _, tp := range a.Tuples {
				seen[tp.TID] = true
			}
			return true
		})
		if err != nil {
			return nil, 0, err
		}
		out[i] = len(seen)
		total += len(seen)
	}
	return out, total, nil
}
