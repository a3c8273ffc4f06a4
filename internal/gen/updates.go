// Update streams: random interleavings of base-table inserts and deletes
// over a generated scenario, for testing incremental (versioned) repair
// against from-scratch recomputation. Like scenarios, streams are
// deterministic per seed.
//
// The stream generator tracks a model of the live base rows as it draws
// operations, so deletes usually hit live content (with occasional
// deliberate misses) and the expected instance at every version is known
// exactly: BaseRowsAfter(n) reproduces the base state a fresh session
// registered at that version would hold.

package gen

import (
	"math/rand"

	"repro/internal/engine"
)

// StreamOp is one update batch: deletes apply first, then inserts
// (engine.Snapshot.Apply order).
type StreamOp struct {
	Inserts []engine.Row
	Deletes []engine.Row
}

// StreamShape weights the batch shapes a stream draws: per-batch op
// counts are uniform over [MinDeletes, MaxDeletes] and [MinInserts,
// MaxInserts], and each delete targets a random (possibly absent) row
// with probability 1/MissDenom, a live row otherwise. Distinct shapes
// stress distinct warm-start paths: insert-leaning batches the fixpoint
// continuation, delete-heavy ones the change probe and the cold fallback,
// interleaved ones the mixed-batch chaining.
type StreamShape struct {
	MinDeletes, MaxDeletes int
	MinInserts, MaxInserts int
	MissDenom              int
}

// The weighted shape palette. DefaultShape reproduces the historical
// generator draw-for-draw, so fixed seeds keep their streams.
var (
	DefaultShape     = StreamShape{MaxDeletes: 2, MaxInserts: 3, MissDenom: 4}
	DeleteHeavyShape = StreamShape{MinDeletes: 1, MaxDeletes: 4, MaxInserts: 1, MissDenom: 8}
	InterleavedShape = StreamShape{MinDeletes: 1, MaxDeletes: 2, MinInserts: 1, MaxInserts: 2, MissDenom: 4}
)

// ShapeForSeed is the weighted generator knob for seed-sweeping suites:
// half the seed space keeps the historical mixed shape, the rest splits
// between delete-heavy and interleaved batches so incremental delete
// maintenance is exercised on every sweep.
func ShapeForSeed(seed int64) StreamShape {
	switch seed % 4 {
	case 0, 1:
		return DefaultShape
	case 2:
		return DeleteHeavyShape
	default:
		return InterleavedShape
	}
}

// UpdateStream is a scenario plus a deterministic sequence of update
// batches over its base instance.
type UpdateStream struct {
	Scenario *Scenario
	Ops      []StreamOp

	// states[n] holds the live base rows after the first n ops, in the
	// insertion order a fresh registration at that version would use.
	states [][]engine.Row
}

// NumVersions returns the number of distinct base states the stream
// visits: the initial instance plus one per op.
func (us *UpdateStream) NumVersions() int { return len(us.Ops) + 1 }

// BaseRowsAfter returns the live base rows after applying the first n
// ops (n = 0 is the scenario's initial instance), in deterministic
// insertion order. Registering a fresh database with exactly these rows
// reproduces the versioned session's logical state at that version.
// Callers must not mutate the returned slice.
func (us *UpdateStream) BaseRowsAfter(n int) []engine.Row { return us.states[n] }

// GenerateUpdateStream builds the scenario for the seed plus nOps update
// batches over it, using the historical DefaultShape.
func GenerateUpdateStream(seed int64, nOps int) *UpdateStream {
	return GenerateShapedStream(seed, nOps, DefaultShape)
}

// GenerateShapedStream is GenerateUpdateStream with an explicit batch
// shape. The op stream draws from an rng independent of the scenario's,
// so the same (seed, shape) produces the same (scenario, ops) pair
// regardless of how either generator evolves its draw counts.
func GenerateShapedStream(seed int64, nOps int, shape StreamShape) *UpdateStream {
	sc := Generate(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed57ea4))
	us := &UpdateStream{Scenario: sc}

	// Model of the live base rows: ordered, with a key index for dedup
	// and deletion. Seeded from the scenario's instance in its own
	// insertion order.
	type modelRow struct {
		row  engine.Row
		live bool
	}
	var model []modelRow
	index := make(map[string]int) // content key -> model position
	for _, rs := range sc.Schema.Relations {
		sc.DB.Relation(rs.Name).Scan(func(t *engine.Tuple) bool {
			key := t.Key()
			if _, dup := index[key]; !dup {
				index[key] = len(model)
				model = append(model, modelRow{row: engine.Row{Rel: t.Rel, Vals: t.Vals}, live: true})
			}
			return true
		})
	}
	snapshotState := func() []engine.Row {
		out := make([]engine.Row, 0, len(model))
		for _, m := range model {
			if m.live {
				out = append(out, m.row)
			}
		}
		return out
	}
	us.states = append(us.states, snapshotState())

	randomRow := func() engine.Row {
		ri := rng.Intn(len(sc.Schema.Relations))
		rs := sc.Schema.Relations[ri]
		kinds := sc.kinds[ri]
		vals := make([]engine.Value, rs.Arity())
		for c := range vals {
			if kinds[c] == kindStr {
				vals[c] = engine.Str(string(rune('a' + rng.Intn(3))))
			} else {
				// Mostly in-domain (joins fire), occasionally fresh values
				// no rule constant mentions.
				vals[c] = engine.Int(rng.Intn(DefaultConfig.IntDomain + 2))
			}
		}
		return engine.Row{Rel: rs.Name, Vals: vals}
	}

	for i := 0; i < nOps; i++ {
		var op StreamOp

		// Deletes: mostly live rows (real churn), sometimes a random row
		// that may miss (a no-op the engine must tolerate). Drawn before
		// inserts, mirroring Apply's delete-then-insert order.
		for n := rng.Intn(shape.MaxDeletes-shape.MinDeletes+1) + shape.MinDeletes; n > 0; n-- {
			if rng.Intn(shape.MissDenom) > 0 {
				// Pick a live model row.
				var liveIdx []int
				for mi, m := range model {
					if m.live {
						liveIdx = append(liveIdx, mi)
					}
				}
				if len(liveIdx) == 0 {
					continue
				}
				mi := liveIdx[rng.Intn(len(liveIdx))]
				op.Deletes = append(op.Deletes, model[mi].row)
				model[mi].live = false
			} else {
				row := randomRow()
				op.Deletes = append(op.Deletes, row)
				if mi, ok := index[engine.ContentKey(row.Rel, row.Vals)]; ok {
					model[mi].live = false
				}
			}
		}

		// Inserts: random rows; duplicates of live content are engine
		// no-ops, re-inserts of deleted content resurrect it (with a
		// fresh identity on the engine side).
		for n := rng.Intn(shape.MaxInserts-shape.MinInserts+1) + shape.MinInserts; n > 0; n-- {
			row := randomRow()
			op.Inserts = append(op.Inserts, row)
			key := engine.ContentKey(row.Rel, row.Vals)
			if mi, ok := index[key]; ok {
				if !model[mi].live {
					// Resurrection appends at the end of insertion order,
					// exactly like the engine's fresh-identity re-insert.
					index[key] = len(model)
					model = append(model, modelRow{row: row, live: true})
				}
				// Live duplicate: no-op.
			} else {
				index[key] = len(model)
				model = append(model, modelRow{row: row, live: true})
			}
		}

		us.Ops = append(us.Ops, op)
		us.states = append(us.states, snapshotState())
	}
	return us
}
