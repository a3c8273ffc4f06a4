package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/programs"
)

// TestProfileDCIndependent is a manual profiling probe for the 5000-row DC
// workload; run with -run TestProfileDCIndependent -v -tags).
func TestProfileDCIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling probe")
	}
	for _, errs := range []int{500, 1000} {
		db := programs.CleanAuthorTable(5000, 1001, 1)
		programs.InjectErrors(db, errs, 2)
		dcs, err := programs.DCs()
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		res, _, err := core.RunWith(db, dcs, core.SemIndependent, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("errs=%d size=%d dur=%v optimal=%v nodes=%d clauses=%d timing=%+v",
			errs, res.Size(), time.Since(t0).Round(time.Millisecond), res.Optimal,
			res.SolverNodes, res.FormulaClauses, res.Timing)
	}
}
