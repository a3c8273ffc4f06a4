package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/programs"
)

// post serves one POST through h and returns the status and body.
func post(h http.Handler, path, body string) (int, string) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rr.Code, rr.Body.String()
}

// lookups reads deltarepaird_artefact_lookups_total{kind, outcome}.
func lookups(t *testing.T, svc *Service, kind, outcome string) int {
	t.Helper()
	rr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	re := regexp.MustCompile(`(?m)^deltarepaird_artefact_lookups_total\{kind="` + kind + `",outcome="` + outcome + `"\} (\d+)$`)
	m := re.FindStringSubmatch(rr.Body.String())
	if m == nil {
		t.Fatalf("lookups{%s,%s} not rendered", kind, outcome)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// storedVersions lists the versions the session's artefact store holds an
// entry for.
func storedVersions(t *testing.T, svc *Service, name string) map[uint64]bool {
	t.Helper()
	sess, err := svc.session(name)
	if err != nil {
		t.Fatal(err)
	}
	sess.artefacts.mu.Lock()
	defer sess.artefacts.mu.Unlock()
	out := make(map[uint64]bool)
	for k := range sess.artefacts.items {
		out[k.version] = true
	}
	return out
}

// checkHitsMatchMisses asserts, for every semantics at version, that the
// first /repair is a miss, its repeat a hit, that the two bodies agree
// once elapsed_us is zeroed, and that the hit's body is byte for byte the
// encoding of the whole RepairResponse with elapsed_us 0. Then the same
// for the /query body q, whose hit is byte-identical to its miss.
func checkHitsMatchMisses(t *testing.T, svc *Service, name string, version uint64, q string) {
	t.Helper()
	h := svc.Handler()
	path := "/v1/sessions/" + name + "/"
	for _, sem := range core.AllSemantics {
		body := fmt.Sprintf(`{"semantics":%q,"version":%d}`, sem, version)
		hits, misses := lookups(t, svc, "repair", "hit"), lookups(t, svc, "repair", "miss")
		code, miss := post(h, path+"repair", body)
		if code != 200 {
			t.Fatalf("%s miss: %d %s", sem, code, miss)
		}
		code, hit := post(h, path+"repair", body)
		if code != 200 {
			t.Fatalf("%s hit: %d %s", sem, code, hit)
		}
		if lookups(t, svc, "repair", "miss") != misses+1 || lookups(t, svc, "repair", "hit") != hits+1 {
			t.Fatalf("%s: want one miss then one hit", sem)
		}
		if zeroElapsed(t, []byte(hit)) != zeroElapsed(t, []byte(miss)) {
			t.Fatalf("%s: hit body differs from the miss body:\n hit %s\nmiss %s", sem, hit, miss)
		}
		res, _, _, err := svc.RepairVersioned(context.Background(), name, sem, RequestOptions{Version: version})
		if err != nil {
			t.Fatal(err)
		}
		want := repairResponse(name, version, res)
		want.ElapsedUS = 0
		if hit != string(encodeJSON(want)) {
			t.Fatalf("%s: hit body is not the RepairResponse encoding:\n got %s\nwant %s", sem, hit, encodeJSON(want))
		}
	}
	hits := lookups(t, svc, "query", "hit")
	code, miss := post(h, path+"query", q)
	if code != 200 {
		t.Fatalf("query miss: %d %s", code, miss)
	}
	if _, hit := post(h, path+"query", q); hit != miss {
		t.Fatalf("query hit differs from its miss:\n hit %s\nmiss %s", hit, miss)
	}
	if lookups(t, svc, "query", "hit") != hits+1 {
		t.Fatal("repeated query was not a hit")
	}
}

func TestArtefactHitsMatchMisses(t *testing.T) {
	t.Run("running-example", func(t *testing.T) {
		svc := openService(t, Config{})
		register(t, svc, "papers")
		checkHitsMatchMisses(t, svc, "papers", 1, `{"query":"Q(p) :- Pub(p, t).","k":4,"version":1}`)
	})
	t.Run("mas20", func(t *testing.T) {
		svc, err := newMAS20Service()
		if err != nil {
			t.Fatal(err)
		}
		checkHitsMatchMisses(t, svc, "mas20", 1, orgQueryBody)
	})
}

// A pinned read of an older retained version, made after the head was
// repaired, is still served from the store with the same body.
func TestArtefactPinnedOlderVersionHit(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")
	h := svc.Handler()
	const v1 = `{"semantics":"stage","version":1}`
	_, before := post(h, "/v1/sessions/papers/repair", v1)
	if _, err := svc.Update(context.Background(), "papers",
		[]engine.Row{row("Pub", engine.Int(50), engine.Str("z")), row("Writes", engine.Int(5), engine.Int(50))}, nil, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if code, head := post(h, "/v1/sessions/papers/repair", `{"semantics":"stage"}`); code != 200 || !strings.Contains(head, `"version":2`) {
		t.Fatalf("head repair: %d %s", code, head)
	}
	hits := lookups(t, svc, "repair", "hit")
	if _, after := post(h, "/v1/sessions/papers/repair", v1); zeroElapsed(t, []byte(after)) != zeroElapsed(t, []byte(before)) {
		t.Fatalf("pinned v1 body changed after the head moved:\n%s\n%s", before, after)
	}
	if lookups(t, svc, "repair", "hit") != hits+1 {
		t.Fatal("pinned read of v1 after a head repair was not a hit")
	}
}

// Once the ring evicts a version its entries are gone, its bytes no longer
// count, and a pinned read of it is the usual 409.
func TestArtefactEvictionDropsEntries(t *testing.T) {
	svc := openService(t, Config{MaxVersions: 2})
	register(t, svc, "papers")
	h := svc.Handler()
	for _, body := range []string{`{"semantics":"end","version":1}`, `{"query":"Q(p) :- Pub(p, t).","version":1}`} {
		path := "/v1/sessions/papers/repair"
		if strings.Contains(body, "query") {
			path = "/v1/sessions/papers/query"
		}
		if code, out := post(h, path, body); code != 200 {
			t.Fatalf("%s: %d %s", body, code, out)
		}
	}
	if !storedVersions(t, svc, "papers")[1] || svc.Sessions()[0].ArtefactBytes == 0 {
		t.Fatal("version 1's answers were not stored")
	}
	for i := range 2 {
		if _, err := svc.Update(context.Background(), "papers",
			[]engine.Row{row("Pub", engine.Int(60+i), engine.Str("z"))}, nil, RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if storedVersions(t, svc, "papers")[1] {
		t.Fatal("evicted version 1 still has store entries")
	}
	if n := svc.Sessions()[0].ArtefactBytes; n != 0 {
		t.Fatalf("store holds %d bytes after its only version was evicted", n)
	}
	code, out := post(h, "/v1/sessions/papers/repair", `{"semantics":"end","version":1}`)
	if code != http.StatusConflict || !strings.Contains(out, "no longer retained") {
		t.Fatalf("pinned read of an evicted version: %d %s", code, out)
	}
}

// An independent answer truncated by a 1-node budget is never served to a
// default-budget request at the same version, nor the other way round.
func TestArtefactBudgetKeysIndependent(t *testing.T) {
	svc, err := newMAS20Service()
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	get := func(body string) string {
		code, out := post(h, "/v1/sessions/mas20/repair", body)
		if code != 200 {
			t.Fatalf("%s: %d %s", body, code, out)
		}
		return zeroElapsed(t, []byte(out))
	}
	const tiny = `{"semantics":"independent","version":1,"solver_max_nodes":1}`
	const full = `{"semantics":"independent","version":1}`
	truncated := get(tiny)
	if !strings.Contains(truncated, `"optimal":false`) {
		t.Fatalf("1-node search reported optimal: %s", truncated)
	}
	def := get(full)
	if def == truncated {
		t.Fatal("default-budget request was served the 1-node answer")
	}
	if get(tiny) != truncated || get(full) != def {
		t.Fatal("repeats changed their answers")
	}
	// The budget matters to independent semantics only: end stores one
	// answer for every budget.
	hits := lookups(t, svc, "repair", "hit")
	get(`{"semantics":"end","version":1}`)
	get(`{"semantics":"end","version":1,"solver_max_nodes":1}`)
	if lookups(t, svc, "repair", "hit") != hits+1 {
		t.Fatal("end semantics under another budget was not a hit")
	}
}

// A query whose key and body would take the store past maxArtefactBytes is
// answered but not stored; one that fits is stored and counted.
func TestArtefactQueryByteCap(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")
	ctx := context.Background()
	eopts := core.EnumerateOptions{K: 4}
	const q = "Q(p) :- Pub(p, t)."
	small, err := svc.queryBody(ctx, "papers", q, eopts, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	held := svc.Sessions()[0].ArtefactBytes
	if held != len(q)+len(small) {
		t.Fatalf("store holds %d bytes, want key %d + body %d", held, len(q), len(small))
	}
	big := q + strings.Repeat(" ", maxArtefactBytes)
	for range 2 {
		body, err := svc.queryBody(ctx, "papers", big, eopts, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(small) {
			t.Fatalf("padded query answered differently:\n%s\n%s", body, small)
		}
	}
	if n := svc.Sessions()[0].ArtefactBytes; n != held {
		t.Fatalf("store grew %d → %d bytes past its cap", held, n)
	}
	if lookups(t, svc, "query", "hit") != 0 || lookups(t, svc, "query", "miss") != 3 {
		t.Fatal("a query over the byte cap was stored")
	}
}

// TestArtefactHammer runs pinned /repair and /query reads, updates and
// evictions together on one session: every answer must be its version's
// (checked against a from-scratch repair of that version's contents), a
// repeat of a (version, request) must give the same body, a pinned read
// may fail only with 409 once its version has been evicted, and the store
// must end holding exactly the retained versions' bytes. CI runs it under
// the race detector.
func TestArtefactHammer(t *testing.T) {
	const (
		updates = 16
		readers = 6
		iters   = 40
	)
	svc := openService(t, Config{MaxInFlight: 8, MaxVersions: 3})
	register(t, svc, "hot")
	h := svc.Handler()

	// Version v holds pubs 1000..1000+v-2, each written by Homer.
	var (
		mu       sync.Mutex
		expected = map[string][]string{}
		seen     = map[string]string{}
	)
	expect := func(v uint64, sem core.Semantics) []string {
		mu.Lock()
		defer mu.Unlock()
		key := fmt.Sprint(v, sem)
		if keys, ok := expected[key]; ok {
			return keys
		}
		db := programs.RunningExampleDB()
		for i := uint64(0); i+2 <= v; i++ {
			db.MustInsert("Pub", engine.Int(int(1000+i)), engine.Str("extra"))
			db.MustInsert("Writes", engine.Int(5), engine.Int(int(1000+i)))
		}
		prog, err := datalog.ParseAndValidate(programs.RunningExampleSource, db.Schema)
		if err != nil {
			panic(err)
		}
		res, _, err := core.RunWith(db, prog, sem, core.Options{})
		if err != nil {
			panic(err)
		}
		expected[key] = res.Keys()
		return expected[key]
	}
	// same reports whether body matches the first body seen for key.
	same := func(key, body string) bool {
		mu.Lock()
		defer mu.Unlock()
		if first, ok := seen[key]; ok {
			return first == body
		}
		seen[key] = body
		return true
	}

	var (
		wg      sync.WaitGroup
		writing atomic.Bool
	)
	errs := make(chan error, readers+1)
	wg.Add(1)
	writing.Store(true)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		for i := range updates {
			if _, err := svc.Update(context.Background(), "hot", []engine.Row{
				row("Pub", engine.Int(1000+i), engine.Str("extra")),
				row("Writes", engine.Int(5), engine.Int(1000+i)),
			}, nil, RequestOptions{}); err != nil {
				errs <- fmt.Errorf("update %d: %w", i, err)
				return
			}
		}
	}()
	for r := range readers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < iters || writing.Load(); i++ {
				v, back := svc.Sessions()[0].Version, uint64(rng.Intn(3))
				if v > back {
					v -= back
				}
				sem := core.AllSemantics[rng.Intn(len(core.AllSemantics))]
				path, body := "/v1/sessions/hot/repair", fmt.Sprintf(`{"semantics":%q,"version":%d}`, sem, v)
				query := rng.Intn(4) == 0
				if query {
					path, body = "/v1/sessions/hot/query", fmt.Sprintf(`{"query":"Q(a, p) :- Writes(a, p).","k":2,"version":%d}`, v)
				}
				code, out := post(h, path, body)
				if code == http.StatusConflict && v < svc.Sessions()[0].OldestVersion {
					continue
				}
				if code != 200 {
					errs <- fmt.Errorf("%s %s: %d %s", path, body, code, out)
					return
				}
				if query {
					if !same(body, out) {
						errs <- fmt.Errorf("%s: repeat changed the body", body)
						return
					}
					continue
				}
				var resp RepairResponse
				if err := json.Unmarshal([]byte(out), &resp); err != nil {
					errs <- err
					return
				}
				if got, want := fmt.Sprint(resp.Deleted), fmt.Sprint(expect(v, sem)); resp.Version != v || got != want {
					errs <- fmt.Errorf("%s at version %d answered version %d %s, want %s", sem, v, resp.Version, got, want)
					return
				}
				resp.ElapsedUS = 0
				if !same(body, string(encodeJSON(resp))) {
					errs <- fmt.Errorf("%s: repeat changed the body", body)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	info := svc.Sessions()[0]
	for v := range storedVersions(t, svc, "hot") {
		if v < info.OldestVersion {
			t.Errorf("store still holds evicted version %d (oldest %d)", v, info.OldestVersion)
		}
	}
	sess, _ := svc.session("hot")
	st := sess.artefacts
	st.mu.Lock()
	sum := 0
	for k, a := range st.items {
		if a.body != nil {
			sum += len(k.src) + len(a.body)
		}
	}
	st.mu.Unlock()
	if sum != info.ArtefactBytes {
		t.Errorf("store accounts %d bytes, holds %d", info.ArtefactBytes, sum)
	}
}
