package sideeffect

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/mas"
)

// TestOrgQueryViewFingerprint is a cost fingerprint of View.Eval on the
// socket benchmark's /query view over MAS at scale 0.2 (generator seed 1),
// 304 rows. The plan must probe Author's oid index with the constant of
// "o = 4" — a scan of every Writes row allocates nothing per row, so the
// allocation count alone cannot see one, but the plan's index requirements
// can — and the evaluation's allocation count (the rows, their keys and
// witnesses) is pinned within ± 10 %. Under the race detector sync.Pool
// drops pooled items at random, so the count is only pinned without it.
func TestOrgQueryViewFingerprint(t *testing.T) {
	db := mas.Generate(mas.Config{Scale: 0.2, Seed: 1}).DB
	db.Freeze()
	v, err := ParseView("Q(a, p) :- Writes(a, p), Author(a, n, o), o = 4.", db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := v.Eval(db) // prepares the plan and builds the probed indexes
	if err != nil || len(rows) != 304 {
		t.Fatalf("org query: %d rows, err %v; want 304", len(rows), err)
	}
	probe := datalog.IndexReq{Rel: "Author", Col: 2, Target: datalog.TargetBase}
	found := false
	for _, rq := range v.prep.IndexReqs() {
		found = found || rq == probe
	}
	if !found {
		t.Fatalf("view plan probes %v, not Author's oid: `v = c` is a filter again: the view scans `Writes`", v.prep.IndexReqs())
	}
	if raceEnabled {
		return
	}
	const want = 2099
	got := testing.AllocsPerRun(20, func() {
		if _, err := v.Eval(db); err != nil {
			t.Fatal(err)
		}
	})
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("%.0f allocs per View.Eval, want %d ± 10 %%: the view allocates per candidate or per row again", got, want)
	}
}
