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

// mas20Service returns the service holding session "mas20".
func mas20Service(tb testing.TB) *Service {
	tb.Helper()
	mas20Once.Do(func() {
		md := mas.Generate(mas.Config{Scale: 0.2, Seed: 1})
		src, err := programs.MASSource(20, md)
		if err != nil {
			mas20Err = err
			return
		}
		prog, err := datalog.ParseAndValidate(src, md.DB.Schema)
		if err != nil {
			mas20Err = err
			return
		}
		svc := New(Config{})
		if mas20Err = svc.Register("mas20", md.DB.Schema, md.DB, prog); mas20Err == nil {
			mas20Svc = svc
		}
	})
	if mas20Err != nil {
		tb.Fatal(mas20Err)
	}
	return mas20Svc
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
// repeat /repair at a cached version, within ± 10 %. The change probe
// replays the cached result and the handler encodes it; no repaired
// database is built. Materialising one, with 1 389 tuples moved base →
// delta, takes the count to ≈ 330. Under the race detector sync.Pool
// drops pooled items at random, so the count is only pinned without it.
func TestPinnedRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := mas20Service(t).Handler()
	pinnedEndRepair(t, h) // caches the result the repeats replay
	const want = 79
	if got := testing.AllocsPerRun(20, func() { pinnedEndRepair(t, h) }); got < 0.9*want || got > 1.1*want {
		t.Fatalf("%.0f allocs per pinned /repair, want %d ± 10 %%: the replay materialises a fork again", got, want)
	}
}

// BenchmarkPinnedRepair is the layer benchmark of cached_reads' primary
// request: a repeat POST /repair (end semantics, pinned at a cached
// version) through the handler, request decode and response encode
// included, on MAS-20 at scale 0.2.
func BenchmarkPinnedRepair(b *testing.B) {
	h := mas20Service(b).Handler()
	pinnedEndRepair(b, h)
	b.ReportAllocs()
	for b.Loop() {
		pinnedEndRepair(b, h)
	}
}
