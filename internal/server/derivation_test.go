package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mas"
	"repro/internal/programs"
)

// versionDataset is one session the derivation-sharing tests register: a
// database, its program, and the /query source asked at its version.
type versionDataset struct {
	name  string
	db    *engine.Database
	prog  *datalog.Program
	query string
}

// versionDatasets are MAS-8 and MAS-19 (the update_repair_stream programs)
// over MAS at scale 0.02, and four generator seeds.
func versionDatasets(t testing.TB) []versionDataset {
	t.Helper()
	md := mas.Generate(mas.Config{Scale: 0.02, Seed: 1})
	var out []versionDataset
	for _, n := range []int{8, 19} {
		prog, err := programs.MAS(n, md)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, versionDataset{fmt.Sprintf("mas%d", n), md.DB, prog, "Q(a, p) :- Writes(a, p)."})
	}
	for seed := int64(1); seed <= 4; seed++ {
		sc := gen.Generate(seed)
		rs := sc.Schema.Relations[0]
		vars := make([]string, rs.Arity())
		for i := range vars {
			vars[i] = fmt.Sprintf("x%d", i)
		}
		q := fmt.Sprintf("Q(%[1]s) :- %[2]s(%[1]s).", strings.Join(vars, ", "), rs.Name)
		out = append(out, versionDataset{fmt.Sprintf("seed%d", seed), sc.DB, sc.Program, q})
	}
	return out
}

// versionRequest is one POST against the session: a path suffix and a body.
type versionRequest struct{ path, body string }

// versionRequests are the six reads of one version that a session's
// derivation serves: /repair under the four semantics, /repairs k=8 and a
// /query over a k=4 space (a space of its own, so it too needs the
// derivation).
func versionRequests(ds versionDataset) []versionRequest {
	var out []versionRequest
	for _, sem := range core.AllSemantics {
		out = append(out, versionRequest{"repair", fmt.Sprintf(`{"semantics":%q}`, sem)})
	}
	q, _ := json.Marshal(ds.query)
	return append(out,
		versionRequest{"repairs", `{"k":8}`},
		versionRequest{"query", fmt.Sprintf(`{"query":%s,"k":4}`, q)})
}

// freshSession opens a service holding ds alone, at version 1.
func freshSession(t testing.TB, ds versionDataset) *Service {
	t.Helper()
	svc := openService(t, Config{})
	if err := svc.Register(ds.name, ds.db.Schema, ds.db, ds.prog); err != nil {
		t.Fatal(err)
	}
	return svc
}

// stripElapsed re-encodes a JSON body without its elapsed_us field, the one
// wall-clock measurement a body holds; every other field survives verbatim.
func stripElapsed(t testing.TB, body string) string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	delete(m, "elapsed_us")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// ask serves r on ds's session and returns its body without elapsed_us.
func ask(t testing.TB, svc *Service, ds versionDataset, r versionRequest) string {
	t.Helper()
	code, body := post(svc.Handler(), "/v1/sessions/"+ds.name+"/"+r.path, r.body)
	if code != 200 {
		t.Fatalf("%s %s: %d %s", r.path, r.body, code, body)
	}
	return stripElapsed(t, body)
}

// referenceBodies answers each request on a fresh service that answers
// nothing else.
func referenceBodies(t *testing.T, ds versionDataset, reqs []versionRequest) []string {
	t.Helper()
	want := make([]string, len(reqs))
	for i, r := range reqs {
		want[i] = ask(t, freshSession(t, ds), ds, r)
	}
	return want
}

// checkDerivationLookups asserts the service's derivation lookup counts.
func checkDerivationLookups(t *testing.T, svc *Service, misses, hits int) {
	t.Helper()
	if m, h := lookups(t, svc, "derivation", "miss"), lookups(t, svc, "derivation", "hit"); m != misses || h != hits {
		t.Fatalf("derivation lookups: %d misses, %d hits; want %d, %d", m, h, misses, hits)
	}
}

// countdownCtx is a context canceled by its own n-th Done or Err call, so a
// cancellation lands at a chosen point inside a computation.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
	done chan struct{}
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), left: n, done: make(chan struct{})}
}

func (c *countdownCtx) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		if c.left--; c.left == 0 {
			close(c.done)
		}
	}
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.tick()
	return c.done
}

func (c *countdownCtx) Err() error {
	c.tick()
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestVersionDerivationOrderAndConcurrency: the six reads of one version
// share one derivation, and sharing changes no answer. Asked in seven
// orders, and from six goroutines at once, every body but elapsed_us is
// byte-identical to a fresh service's answering that request alone, and
// the version's derivation is built once (one miss, five hits). A request
// canceled while it builds the shared closure or the end fixpoint — at
// 1 ns, or at a chosen cancellation check — leaves nothing half-built
// behind: the next requests at that version still answer the references.
func TestVersionDerivationOrderAndConcurrency(t *testing.T) {
	for _, ds := range versionDatasets(t) {
		t.Run(ds.name, func(t *testing.T) {
			reqs := versionRequests(ds)
			want := referenceBodies(t, ds, reqs)
			check := func(svc *Service, leg string, i int) {
				t.Helper()
				if got := ask(t, svc, ds, reqs[i]); got != want[i] {
					t.Fatalf("%s: %s %s\n got %s\nwant %s", leg, reqs[i].path, reqs[i].body, got, want[i])
				}
			}

			n := len(reqs)
			var orders [][]int
			for r := 0; r < n; r++ { // every rotation, and the reverse
				order := make([]int, n)
				for i := range order {
					order[i] = (r + i) % n
				}
				orders = append(orders, order)
			}
			reversed := make([]int, n)
			for i := range reversed {
				reversed[i] = n - 1 - i
			}
			orders = append(orders, reversed)
			for _, order := range orders {
				svc := freshSession(t, ds)
				for _, i := range order {
					check(svc, fmt.Sprintf("order %v", order), i)
				}
				checkDerivationLookups(t, svc, 1, n-1)
			}

			for round := 0; round < 3; round++ {
				svc := freshSession(t, ds)
				var wg sync.WaitGroup
				codes, got := make([]int, n), make([]string, n)
				for i, r := range reqs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						codes[i], got[i] = post(svc.Handler(), "/v1/sessions/"+ds.name+"/"+r.path, r.body)
					}()
				}
				wg.Wait()
				for i := range reqs {
					if codes[i] == 200 {
						got[i] = stripElapsed(t, got[i])
					}
					if got[i] != want[i] {
						t.Fatalf("concurrent round %d: %s %s\n got %s\nwant %s", round, reqs[i].path, reqs[i].body, got[i], want[i])
					}
				}
				checkDerivationLookups(t, svc, 1, n-1)
			}

			for _, sem := range []core.Semantics{core.SemStage, core.SemEnd} {
				svc := freshSession(t, ds)
				_, _, _, err := svc.RepairVersioned(context.Background(), ds.name, sem, RequestOptions{Timeout: time.Nanosecond})
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s at 1 ns: err %v, want a deadline", sem, err)
				}
				for i := range reqs {
					check(svc, fmt.Sprintf("after %s at 1 ns", sem), i)
				}
				// Cancel at the k-th cancellation check, for a growing k,
				// until the request gets through: the cancellation lands
				// before, during and after the build.
				for k, next := 1, 2; ; k, next = next, k+next {
					svc := freshSession(t, ds)
					_, _, _, err := svc.RepairVersioned(newCountdownCtx(k), ds.name, sem, RequestOptions{})
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("%s canceled at check %d: %v", sem, k, err)
					}
					for i := range reqs {
						check(svc, fmt.Sprintf("after %s canceled at check %d", sem, k), i)
					}
					if err == nil {
						break
					}
				}
			}
		})
	}
}

// TestVersionDerivationBuiltOnce is the deterministic guard on sharing:
// once end and stage have run at a version (the end fixpoint derived cold,
// then the closure), step and independent there derive nothing
// (Timing.Eval == 0), and the version's requests looked the derivation up
// once as a miss and three times as a hit. An update mints a version whose
// first request misses again.
func TestVersionDerivationBuiltOnce(t *testing.T) {
	md := mas.Generate(mas.Config{Scale: 0.02, Seed: 1})
	prog, err := programs.MAS(8, md)
	if err != nil {
		t.Fatal(err)
	}
	svc := openService(t, Config{})
	if err := svc.Register("mas8", md.DB.Schema, md.DB, prog); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	repairs := func(version uint64) {
		t.Helper()
		for _, sem := range []core.Semantics{core.SemEnd, core.SemStage, core.SemStep, core.SemIndependent} {
			a, err := svc.repair(ctx, "mas8", sem, RequestOptions{Version: version}, true)
			if err != nil {
				t.Fatal(err)
			}
			eval := a.res.Timing.Eval
			switch sem {
			case core.SemEnd, core.SemStage:
				if eval == 0 {
					t.Fatalf("version %d: %s derived nothing; the update must reach the program", version, sem)
				}
			default:
				if eval != 0 {
					t.Fatalf("version %d: %s spent %v deriving after end and stage", version, sem, eval)
				}
			}
		}
	}
	repairs(1)
	checkDerivationLookups(t, svc, 1, 3)

	// A new paper of the hub author: its Writes rows join the program.
	pid := engine.Int(1_000_000)
	up, err := svc.Update(ctx, "mas8", []engine.Row{
		row("Publication", pid, engine.Str("new")),
		row("Writes", engine.Int(md.HubAuthor), pid),
		row("Writes", engine.Int(2), pid),
	}, nil, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repairs(up.Version)
	checkDerivationLookups(t, svc, 2, 6)
}

// BenchmarkVersionRepairs is update_repair_stream's request group in
// process: one update that reaches the program, then /repair under end,
// stage, step and independent at the new head, through the handler. MAS-8
// and MAS-19 over MAS at scale 0.1; odd iterations delete what the even
// ones inserted, so the database stays level.
func BenchmarkVersionRepairs(b *testing.B) {
	md := mas.Generate(mas.Config{Scale: 0.1, Seed: 1})
	for _, n := range []int{8, 19} {
		b.Run(fmt.Sprintf("mas-%d", n), func(b *testing.B) {
			prog, err := programs.MAS(n, md)
			if err != nil {
				b.Fatal(err)
			}
			svc := openService(b, Config{})
			if err := svc.Register("s", md.DB.Schema, md.DB, prog); err != nil {
				b.Fatal(err)
			}
			h := svc.Handler()
			// batch is MAS-8's new hub-author paper, or MAS-19's new
			// hub-organisation author with two papers.
			batch := func(i int) string {
				id := 1_000_000 + i
				if n == 8 {
					return fmt.Sprintf(`{"Publication":[[%d,"t"]],"Writes":[[%d,%d],[2,%d]]}`, id, md.HubAuthor, id, id)
				}
				return fmt.Sprintf(`{"Author":[[%d,"a",%d]],"Writes":[[%d,1],[%d,2]]}`, id, md.HubOrg, id, id)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				up := `{"inserts":` + batch(i) + `}`
				if i%2 == 1 {
					up = `{"deletes":` + batch(i-1) + `}`
				}
				if code, body := post(h, "/v1/sessions/s/update", up); code != 200 {
					b.Fatalf("update: %d %s", code, body)
				}
				for _, sem := range core.AllSemantics {
					if code, body := post(h, "/v1/sessions/s/repair", fmt.Sprintf(`{"semantics":%q}`, sem)); code != 200 {
						b.Fatalf("%s: %d %s", sem, code, body)
					}
				}
			}
		})
	}
}
