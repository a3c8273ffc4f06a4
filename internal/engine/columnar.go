package engine

import "math"

// Columnar sealed segments.
//
// A sealed segment is immutable and shared by every fork of every version
// that contains it, so a cache-friendly layout amortizes across all
// serving traffic at once. frozenCols is the columnar image of one
// segment: per column a flat int64 vector (integers inline, floats as
// IEEE-754 bits, strings as indexes into a per-segment intern table),
// indexed by the segment's positions. The row-oriented tuple objects
// remain the identity layer — deltas,
// provenance, and reports share *Tuple pointers — but the hot evaluation
// loops filter candidate positions on these vectors and only materialize
// the survivors, so a failing candidate never touches tuple memory.
//
// The columnar form builds lazily, at most once per sealed segment across
// all forks and versions (same discipline as the segment's hash indexes),
// and the overlay tail stays row-oriented for cheap writes.

// ColCheck is one additional equality constraint on a scan or probe: the
// tuple's value at Col must equal Val (cross-kind numeric equality,
// mirroring Value.Equal). The batch scan/probe APIs evaluate ColChecks on
// each sealed segment's column vectors, culling candidates before any
// tuple is materialized.
type ColCheck struct {
	Col int
	Val Value
}

// colVec is one column of a sealed segment: a flat int64 vector with a kind
// tag. Uniform columns (the common case — schema columns hold one kind)
// carry a single kind; mixed columns a parallel per-row kind slice.
type colVec struct {
	kind  Kind
	kinds []Kind // nil when the column is uniformly kind
	data  []int64
}

// kindAt returns the kind of the cell at row.
func (cv *colVec) kindAt(row int) Kind {
	if cv.kinds != nil {
		return cv.kinds[row]
	}
	return cv.kind
}

// matchRow reports whether the cell at row equals v, mirroring
// Value.Equal exactly (cross-kind numeric equality; NaN equals nothing).
func (cv *colVec) matchRow(strs []string, row int, v Value) bool {
	d := cv.data[row]
	switch cv.kindAt(row) {
	case KindInt:
		switch v.Kind {
		case KindInt:
			return v.Int == d
		case KindFloat:
			return v.Flt == float64(d)
		}
		return false
	case KindFloat:
		f := math.Float64frombits(uint64(d))
		switch v.Kind {
		case KindInt:
			return float64(v.Int) == f
		case KindFloat:
			return v.Flt == f
		}
		return false
	default:
		return v.Kind == KindString && v.Str == strs[d]
	}
}

// valueAt reconstructs the Value of the cell at row.
func (cv *colVec) valueAt(strs []string, row int) Value {
	d := cv.data[row]
	switch cv.kindAt(row) {
	case KindInt:
		return Value{Kind: KindInt, Int: d}
	case KindFloat:
		return Value{Kind: KindFloat, Flt: math.Float64frombits(uint64(d))}
	default:
		return Value{Kind: KindString, Str: strs[d]}
	}
}

// frozenCols is the columnar image of a sealed segment: one colVec per
// column and the string intern table the string cells index into.
// Immutable once built.
type frozenCols struct {
	cols []colVec
	strs []string
}

// valueAt reconstructs the Value at (column, row).
func (fc *frozenCols) valueAt(col, row int) Value {
	return fc.cols[col].valueAt(fc.strs, row)
}

// match reports whether the row satisfies every check.
func (fc *frozenCols) match(row int, checks []ColCheck) bool {
	for _, c := range checks {
		if !fc.cols[c.Col].matchRow(fc.strs, row, c.Val) {
			return false
		}
	}
	return true
}

// buildFrozenCols converts a sealed segment's tuples into columnar form.
func buildFrozenCols(order []*Tuple, arity int) *frozenCols {
	n := len(order)
	fc := &frozenCols{cols: make([]colVec, arity)}
	strIdx := make(map[string]int64)
	intern := func(s string) int64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := int64(len(fc.strs))
		fc.strs = append(fc.strs, s)
		strIdx[s] = i
		return i
	}
	for col := range fc.cols {
		cv := &fc.cols[col]
		cv.data = make([]int64, n)
		uniform := true
		for i, t := range order {
			v := t.Vals[col]
			if i == 0 {
				cv.kind = v.Kind
			} else if v.Kind != cv.kind {
				uniform = false
			}
			switch v.Kind {
			case KindInt:
				cv.data[i] = v.Int
			case KindFloat:
				cv.data[i] = int64(math.Float64bits(v.Flt))
			default:
				cv.data[i] = intern(v.Str)
			}
		}
		if !uniform {
			cv.kinds = make([]Kind, n)
			for i, t := range order {
				cv.kinds[i] = t.Vals[col].Kind
			}
		}
	}
	return fc
}

// checksMatchTuple evaluates checks against a row-oriented tuple — the
// overlay-tail path, and the behaviour the columnar matchRow must agree
// with.
func checksMatchTuple(t *Tuple, checks []ColCheck) bool {
	for _, c := range checks {
		if !t.Vals[c.Col].Equal(c.Val) {
			return false
		}
	}
	return true
}
