package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	deltarepair "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
)

// shadow is the harness's own copy of a session's rows. It replays the
// session's update batches on plain maps, sharing nothing with the
// engine's Apply, and rebuilds a database from scratch at any version.
type shadow struct {
	sess    *session
	order   []string // content keys in first-insertion order
	live    map[string]engine.Row
	version uint64
	// applied records, per version, how many rows its batch inserted and
	// deleted.
	applied map[uint64][2]int
}

func newShadow(s *session) *shadow {
	sh := &shadow{sess: s, live: make(map[string]engine.Row, len(s.rows)), version: 1, applied: make(map[uint64][2]int)}
	for _, r := range s.rows {
		sh.insert(r)
	}
	return sh
}

func (sh *shadow) insert(r engine.Row) bool {
	key := engine.ContentKey(r.Rel, r.Vals)
	if _, ok := sh.live[key]; ok {
		return false
	}
	sh.live[key] = r
	sh.order = append(sh.order, key)
	return true
}

// advance applies the session's batches up to version v.
func (sh *shadow) advance(v uint64) {
	for sh.version < v {
		ins, del := sh.sess.batch(int(sh.version) - 1)
		inserted, deleted := 0, 0
		for _, r := range del { // deletes apply first, as in Snapshot.Apply
			key := engine.ContentKey(r.Rel, r.Vals)
			if _, ok := sh.live[key]; ok {
				delete(sh.live, key)
				deleted++
			}
		}
		for _, r := range ins {
			if sh.insert(r) {
				inserted++
			}
		}
		sh.version++
		sh.applied[sh.version] = [2]int{inserted, deleted}
	}
}

// database rebuilds the current version from the shadow rows.
func (sh *shadow) database() (*deltarepair.Database, error) {
	schema, err := deltarepair.ParseSchema(sh.sess.schema)
	if err != nil {
		return nil, err
	}
	db := deltarepair.NewDatabase(schema)
	seen := make(map[string]bool, len(sh.live))
	for _, key := range sh.order {
		r, ok := sh.live[key]
		if !ok || seen[key] {
			continue // deleted, or re-inserted and already loaded
		}
		seen[key] = true
		if _, err := db.Insert(r.Rel, r.Vals...); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// checker re-derives sampled answers through the public facade.
type checker struct {
	shadows map[*session]*shadow
	// maxDerive bounds the from-scratch derivations so that checking a run
	// stays a few seconds; every sample still gets the checks that need
	// no derivation (status, version, counts, Prop. 3.20 flags).
	maxDerive        int
	checked, derived int
	// wrong counts the answers that arrived with a 2xx status and failed a
	// check; answers that failed by status were counted by the window and
	// are only listed.
	wrong    int
	failures []string
}

func newChecker(maxDerive int) *checker {
	return &checker{shadows: make(map[*session]*shadow), maxDerive: maxDerive}
}

func (ck *checker) failf(s sampled, format string, args ...any) {
	ck.failures = append(ck.failures,
		fmt.Sprintf("%s %s (version %d): %s", s.o.method, s.o.path, s.o.version, fmt.Sprintf(format, args...)))
}

// derives reports whether checking an answer of this kind in full needs a
// derivation from scratch.
func (k opKind) derives() bool {
	return k != opRegister && k != opDeregister && k != opUpdate
}

// run checks the samples. Versions only move forward on a shadow, so
// samples are visited in version order; the derivations allowed are spread
// evenly over them.
func (ck *checker) run(samples []sampled) {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].o.version < samples[j].o.version })
	derivable := 0
	for _, s := range samples {
		if s.o.kind.derives() && s.status/100 == 2 {
			derivable++
		}
	}
	stride := max(1, (derivable+ck.maxDerive-1)/max(ck.maxDerive, 1))
	seen := 0
	for _, s := range samples {
		ck.checked++
		if s.status/100 != 2 {
			ck.failf(s, "status %d: %s", s.status, strings.TrimSpace(string(s.body)))
			continue
		}
		derive := false
		if s.o.kind.derives() {
			derive = seen%stride == 0 && ck.maxDerive > 0
			seen++
		}
		if derive {
			ck.derived++
		}
		if err := ck.check(s, derive); err != nil {
			ck.wrong++
			ck.failf(s, "%v", err)
		}
	}
}

func (ck *checker) shadowAt(s *session, v uint64) *shadow {
	sh := ck.shadows[s]
	if sh == nil || sh.version > v {
		sh = newShadow(s)
		ck.shadows[s] = sh
	}
	sh.advance(v)
	return sh
}

func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("undecodable answer: %v", err)
	}
	return nil
}

func (ck *checker) check(s sampled, derive bool) error {
	o := s.o
	switch o.kind {
	case opRegister:
		var got struct {
			Name   string `json:"name"`
			Tuples int    `json:"tuples"`
		}
		if err := decode(s.body, &got); err != nil {
			return err
		}
		if got.Name != o.sess.name || got.Tuples != len(o.sess.rows) {
			return fmt.Errorf("registered %q with %d tuples, want %q with %d", got.Name, got.Tuples, o.sess.name, len(o.sess.rows))
		}
	case opDeregister:
		var got struct {
			Evicted string `json:"evicted"`
		}
		if err := decode(s.body, &got); err != nil {
			return err
		}
		if got.Evicted != o.sess.name {
			return fmt.Errorf("evicted %q, want %q", got.Evicted, o.sess.name)
		}
	case opUpdate:
		var got server.UpdateResult
		if err := decode(s.body, &got); err != nil {
			return err
		}
		want := ck.shadowAt(o.sess, o.version).applied[o.version]
		if got.Version != o.version || got.Inserted != want[0] || got.Deleted != want[1] {
			return fmt.Errorf("version %d inserted %d deleted %d, want version %d inserted %d deleted %d",
				got.Version, got.Inserted, got.Deleted, o.version, want[0], want[1])
		}
	case opRepairEnd, opRepairStage, opRepairStep, opRepairIndependent:
		var got server.RepairResponse
		if err := decode(s.body, &got); err != nil {
			return err
		}
		if got.Version != o.version || got.Semantics != o.kind.semantics().String() {
			return fmt.Errorf("answered %s at version %d, want %s at version %d", got.Semantics, got.Version, o.kind.semantics(), o.version)
		}
		if !derive {
			return nil
		}
		db, err := ck.shadowAt(o.sess, o.version).database()
		if err != nil {
			return err
		}
		return checkRepair(db, o.sess, o.kind.semantics(), &got)
	case opRepairAll:
		var got server.RepairAllResponse
		if err := decode(s.body, &got); err != nil {
			return err
		}
		c := got.Containment
		if !c.StageInEnd || !c.StepInEnd || !c.IndLeStep || !c.IndLeStage {
			return fmt.Errorf("Prop. 3.20 flags not all true: %+v", c)
		}
		if !derive {
			return nil
		}
		db, err := ck.shadowAt(o.sess, o.version).database()
		if err != nil {
			return err
		}
		for _, sem := range core.AllSemantics {
			r, ok := got.Results[sem.String()]
			if !ok {
				return fmt.Errorf("no %s result", sem)
			}
			if err := checkRepair(db, o.sess, sem, &r); err != nil {
				return err
			}
		}
	case opIsStable:
		var got struct {
			Version uint64 `json:"version"`
			Stable  bool   `json:"stable"`
		}
		if err := decode(s.body, &got); err != nil {
			return err
		}
		if got.Version != o.version {
			return fmt.Errorf("answered at version %d, want %d", got.Version, o.version)
		}
		if !derive {
			return nil
		}
		db, err := ck.shadowAt(o.sess, o.version).database()
		if err != nil {
			return err
		}
		want, err := deltarepair.IsStable(db, o.sess.prog)
		if err != nil {
			return err
		}
		if got.Stable != want {
			return fmt.Errorf("stable=%v, derived %v", got.Stable, want)
		}
	case opRepairsK8:
		var got server.RepairsResponse
		if err := decode(s.body, &got); err != nil {
			return err
		}
		if got.Version != o.version || got.K < 1 || got.K > 8 || got.K != len(got.Repairs) {
			return fmt.Errorf("version %d with k=%d and %d repairs, want version %d and 1..8 repairs", got.Version, got.K, len(got.Repairs), o.version)
		}
		if !derive {
			return nil
		}
		db, err := ck.shadowAt(o.sess, o.version).database()
		if err != nil {
			return err
		}
		var prevCost int64
		for i, alt := range got.Repairs {
			if alt.Cost < prevCost {
				return fmt.Errorf("repair %d costs %d after one costing %d", i, alt.Cost, prevCost)
			}
			prevCost = alt.Cost
			ok, err := deltarepair.IsStabilizingSet(db, o.sess.prog, alt.Deleted)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("repair %d of %d does not stabilize the database", i, got.K)
			}
		}
	case opQuery:
		var got server.QueryResponse
		if err := decode(s.body, &got); err != nil {
			return err
		}
		if got.Version != o.version {
			return fmt.Errorf("answered at version %d, want %d", got.Version, o.version)
		}
		if !derive {
			return nil
		}
		db, err := ck.shadowAt(o.sess, o.version).database()
		if err != nil {
			return err
		}
		return checkQuery(db, o.sess, &got)
	}
	return nil
}

// checkRepair compares one answered repair with a derivation from scratch:
// end and stage have unique answers, so the deleted sets must be equal;
// step and independent may pick among several, so the answered set must
// stabilize the database and, where both sides proved optimality, have the
// same size.
func checkRepair(db *deltarepair.Database, s *session, sem core.Semantics, got *server.RepairResponse) error {
	if got.Size != len(got.Deleted) {
		return fmt.Errorf("%s: size %d but %d deleted keys", sem, got.Size, len(got.Deleted))
	}
	want, _, err := deltarepair.Repair(db, s.prog, sem)
	if err != nil {
		return err
	}
	switch sem {
	case core.SemEnd, core.SemStage:
		a, b := append([]string(nil), got.Deleted...), want.Keys()
		sort.Strings(a)
		sort.Strings(b)
		if len(a) != len(b) {
			return fmt.Errorf("%s: %d deleted, derived %d", sem, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("%s: deleted %s, derived %s", sem, a[i], b[i])
			}
		}
	default:
		ok, err := deltarepair.IsStabilizingSet(db, s.prog, got.Deleted)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s: the deleted set does not stabilize the database", sem)
		}
		if got.Optimal && want.Optimal && got.Size != want.Size() {
			return fmt.Errorf("%s: optimal size %d, derived optimal size %d", sem, got.Size, want.Size())
		}
	}
	return nil
}

// checkQuery re-answers the hub query against a repair space enumerated
// from scratch. Row sets are compared only where both enumerations are
// complete and optimal; otherwise each side saw a different part of the
// space.
func checkQuery(db *deltarepair.Database, s *session, got *server.QueryResponse) error {
	view, err := deltarepair.ParseView(orgQuery, db.Schema)
	if err != nil {
		return err
	}
	space, err := deltarepair.EnumerateRepairs(db, s.prog, 4)
	if err != nil {
		return err
	}
	want, err := deltarepair.AnswerQuery(db, view, space)
	if err != nil {
		return err
	}
	possible := rowSet(got.Possible)
	for _, r := range got.Certain {
		if !possible[fmt.Sprint(r...)] {
			return fmt.Errorf("certain row %v is not possible", r)
		}
	}
	if !(got.Complete && got.Optimal && want.Complete && want.Optimal) {
		return nil
	}
	if len(got.Certain) != len(want.Certain) || len(got.Possible) != len(want.Possible) {
		return fmt.Errorf("%d certain and %d possible rows, derived %d and %d",
			len(got.Certain), len(got.Possible), len(want.Certain), len(want.Possible))
	}
	for _, r := range want.Possible {
		row := make([]any, len(r))
		for i, v := range r {
			row[i] = jsonValue(v)
		}
		if !possible[fmt.Sprint(row...)] {
			return fmt.Errorf("derived possible row %v is missing", row)
		}
	}
	return nil
}

func rowSet(rows [][]any) map[string]bool {
	out := make(map[string]bool, len(rows))
	for _, r := range rows {
		// JSON numbers decode as float64; print them as the integers they are.
		vals := make([]any, len(r))
		for i, v := range r {
			if f, ok := v.(float64); ok && f == float64(int64(f)) {
				v = int64(f)
			}
			vals[i] = v
		}
		out[fmt.Sprint(vals...)] = true
	}
	return out
}
