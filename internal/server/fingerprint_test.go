package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/mas"
	"repro/internal/programs"
)

// mas20Svc holds the socket benchmark's cached_reads dataset, MAS-20 over
// MAS at scale 0.2 (generator seed 1), registered once per test binary.
var (
	mas20Once sync.Once
	mas20Svc  *Service
	mas20Err  error
)

// mas20Service returns the shared service holding session "mas20".
func mas20Service(tb testing.TB) *Service {
	tb.Helper()
	mas20Once.Do(func() { mas20Svc, mas20Err = newMAS20Service() })
	if mas20Err != nil {
		tb.Fatal(mas20Err)
	}
	return mas20Svc
}

// newMAS20Service registers MAS-20 as session "mas20" on a new service.
func newMAS20Service() (*Service, error) {
	md := mas.Generate(mas.Config{Scale: 0.2, Seed: 1})
	src, err := programs.MASSource(20, md)
	if err != nil {
		return nil, err
	}
	prog, err := datalog.ParseAndValidate(src, md.DB.Schema)
	if err != nil {
		return nil, err
	}
	svc, err := Open(Config{})
	if err != nil {
		return nil, err
	}
	if err := svc.Register("mas20", md.DB.Schema, md.DB, prog); err != nil {
		return nil, err
	}
	return svc, nil
}

// pinnedEndRepair serves one POST /repair for end semantics pinned at
// version 1 on session "mas20" through h.
func pinnedEndRepair(tb testing.TB, h http.Handler) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sessions/mas20/repair",
		strings.NewReader(`{"semantics":"end","version":1}`)))
	if rr.Code != 200 {
		tb.Fatalf("pinned repair: %d %s", rr.Code, rr.Body)
	}
}

// TestPinnedRepairAllocs is a cost fingerprint: the allocation count of a
// repeat /repair at a version already answered, within ± 10 %. The
// session's artefact store serves the stored encoded fields: no fork, no
// derivation, no replay and no JSON encode. Replaying the result and
// encoding it again takes the count to ≈ 79; materialising a repaired
// database as well, with 1 389 tuples moved base → delta, to ≈ 330. Under
// the race detector sync.Pool drops pooled items at random, so the count is
// only pinned without it.
func TestPinnedRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := mas20Service(t).Handler()
	pinnedEndRepair(t, h) // stores the answer the repeats are served from
	const want = 36
	if got := testing.AllocsPerRun(20, func() { pinnedEndRepair(t, h) }); got < 0.9*want || got > 1.1*want {
		t.Fatalf("%.0f allocs per pinned /repair, want %d ± 10 %%: a hit forks, replays or re-encodes again", got, want)
	}
}

// BenchmarkPinnedRepair is the layer benchmark of cached_reads' primary
// request: a repeat POST /repair (end semantics, pinned at a version
// already answered) through the handler, request decode and response write
// included, on MAS-20 at scale 0.2.
func BenchmarkPinnedRepair(b *testing.B) {
	h := mas20Service(b).Handler()
	pinnedEndRepair(b, h)
	b.ReportAllocs()
	for b.Loop() {
		pinnedEndRepair(b, h)
	}
}

// orgQueryBody is the socket benchmark's cached_reads query: one
// organisation's (author, paper) pairs over the k = 4 space, pinned at
// version 1.
const orgQueryBody = `{"query":"Q(a, p) :- Writes(a, p), Author(a, n, o), o = 4.","k":4,"version":1}`

// pinnedOrgQuery serves one POST /query of orgQueryBody on session "mas20"
// through h.
func pinnedOrgQuery(tb testing.TB, h http.Handler) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sessions/mas20/query", strings.NewReader(orgQueryBody)))
	if rr.Code != 200 {
		tb.Fatalf("pinned query: %d %s", rr.Code, rr.Body)
	}
}

// TestPinnedQueryAllocs is the /query twin of TestPinnedRepairAllocs: a
// repeat of cached_reads' query is served from the artefact store, within
// ± 10 % of a fixed allocation count. Parsing the view, evaluating it
// over the space and encoding its 304 rows again costs ≈ 3 900.
func TestPinnedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := mas20Service(t).Handler()
	pinnedOrgQuery(t, h)
	const want = 34
	if got := testing.AllocsPerRun(20, func() { pinnedOrgQuery(t, h) }); got < 0.9*want || got > 1.1*want {
		t.Fatalf("%.0f allocs per pinned /query, want %d ± 10 %%: a hit parses, answers or re-encodes again", got, want)
	}
}

// BenchmarkPinnedQuery is the layer benchmark of cached_reads' secondary
// request: a repeat POST /query of the org query through the handler on
// MAS-20 at scale 0.2.
func BenchmarkPinnedQuery(b *testing.B) {
	h := mas20Service(b).Handler()
	pinnedOrgQuery(b, h)
	b.ReportAllocs()
	for b.Loop() {
		pinnedOrgQuery(b, h)
	}
}
