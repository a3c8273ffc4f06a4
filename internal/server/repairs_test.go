package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestServiceEnumerateRepairs(t *testing.T) {
	ctx := context.Background()
	svc := openService(t, Config{})
	register(t, svc, "papers")

	sp, version, err := svc.EnumerateRepairs(ctx, "papers", core.EnumerateOptions{K: 4}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Fatalf("version %d, want 1", version)
	}
	if sp.K() < 2 || !sp.Optimal {
		t.Fatalf("running example space: k=%d optimal=%v", sp.K(), sp.Optimal)
	}
	// The first repair is the single independent repair.
	single, _, _, err := svc.RepairVersioned(ctx, "papers", core.SemIndependent, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Repairs[0].Keys(), single.Keys()) {
		t.Fatalf("repairs[0] %v != independent repair %v", sp.Repairs[0].Keys(), single.Keys())
	}
	// Distinct repairs.
	seen := map[string]bool{}
	for _, res := range sp.Repairs {
		k := fmt.Sprint(res.Keys())
		if seen[k] {
			t.Fatalf("duplicate repair %s", k)
		}
		seen[k] = true
	}
	// Certain deletions appear in every repair.
	for _, tp := range sp.CertainlyDeleted() {
		for i, res := range sp.Repairs {
			if !res.ContainsTuple(tp) {
				t.Fatalf("certain tuple %s missing from repair %d", tp.Key(), i)
			}
		}
	}
}

func TestServiceSpaceCacheReplayAndBudgetKey(t *testing.T) {
	ctx := context.Background()
	svc := openService(t, Config{})
	register(t, svc, "papers")

	first, _, err := svc.EnumerateRepairs(ctx, "papers", core.EnumerateOptions{K: 4}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same (version, k, budget, mode) replays the cached space verbatim.
	again, _, err := svc.EnumerateRepairs(ctx, "papers", core.EnumerateOptions{K: 4}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("identical request did not replay the cached space")
	}
	// A different solver budget must NOT replay the cached space: a
	// truncated enumeration under 1 node is not the default-budget answer.
	truncated, _, err := svc.EnumerateRepairs(ctx, "papers", core.EnumerateOptions{K: 4}, RequestOptions{SolverMaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if truncated == first {
		t.Fatal("1-node request replayed the default-budget space")
	}
	if truncated.Optimal {
		t.Fatal("1-node enumeration reported Optimal=true")
	}
	// And the default budget afterwards still gets the optimal space, not
	// the truncated one.
	back, _, err := svc.EnumerateRepairs(ctx, "papers", core.EnumerateOptions{K: 4}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back != first {
		t.Fatal("default-budget request did not return to the cached optimal space")
	}
	// Different k or minimality mode is a different space.
	other, _, err := svc.EnumerateRepairs(ctx, "papers", core.EnumerateOptions{K: 4, CardinalityOnly: true}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("cardinality-only request replayed the set-minimal space")
	}
}

func TestServiceSpaceCacheAcrossVersions(t *testing.T) {
	ctx := context.Background()
	svc := openService(t, Config{})
	register(t, svc, "papers")

	v1Space, v1, err := svc.EnumerateRepairs(ctx, "papers", core.EnumerateOptions{K: 4}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Mint v2: drop an AuthGrant edge feeding the delta program.
	if _, err := svc.Update(ctx, "papers", nil,
		[]engine.Row{row("AuthGrant", engine.Int(4), engine.Int(2))}, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	headSpace, headV, err := svc.EnumerateRepairs(ctx, "papers", core.EnumerateOptions{K: 4}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if headV != v1+1 {
		t.Fatalf("head version %d, want %d", headV, v1+1)
	}
	if headSpace == v1Space {
		t.Fatal("new version replayed the old version's space")
	}
	// Pinning v1 still replays the v1 space from cache.
	pinned, pv, err := svc.EnumerateRepairs(ctx, "papers", core.EnumerateOptions{K: 4}, RequestOptions{Version: v1})
	if err != nil {
		t.Fatal(err)
	}
	if pv != v1 || pinned != v1Space {
		t.Fatalf("pinned v%d did not replay the cached v1 space", pv)
	}
}

func TestServiceQuery(t *testing.T) {
	ctx := context.Background()
	svc := openService(t, Config{})
	register(t, svc, "papers")

	// Grant(1,'NSF') survives every repair; Grant(2,'ERC') none.
	ans, _, err := svc.Query(ctx, "papers", "Q(g, n) :- Grant(g, n).", core.EnumerateOptions{K: 8}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Certain) != 1 || len(ans.Possible) != 1 {
		t.Fatalf("Grant query: certain %d possible %d, want 1/1", len(ans.Certain), len(ans.Possible))
	}
	if ans.Certain[0][1].Str != "NSF" {
		t.Fatalf("certain grant %v, want NSF", ans.Certain[0])
	}
	// Writes rows split across repairs: some possible-only answers.
	ans, _, err = svc.Query(ctx, "papers", "Q(a, p) :- Writes(a, p).", core.EnumerateOptions{K: 8}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Possible) <= len(ans.Certain) {
		t.Fatalf("Writes query: certain %d possible %d, want possible-only rows", len(ans.Certain), len(ans.Possible))
	}
	// A malformed query is a bad request, not an internal error.
	if _, _, err = svc.Query(ctx, "papers", "Q(a :- Writes(a, p).", core.EnumerateOptions{}, RequestOptions{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("malformed query error = %v, want ErrBadRequest", err)
	}
}

func TestHTTPRepairsEndpoint(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}

	// k=1 matches the single-repair endpoint byte for byte.
	status, single := postJSON(t, client, ts.URL+"/v1/sessions/papers/repair", `{"semantics": "independent"}`)
	if status != http.StatusOK {
		t.Fatalf("repair: %d %v", status, single)
	}
	status, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/repairs", `{"k": 1}`)
	if status != http.StatusOK {
		t.Fatalf("repairs k=1: %d %v", status, body)
	}
	repairs := body["repairs"].([]any)
	if len(repairs) != 1 {
		t.Fatalf("k=1 returned %d repairs", len(repairs))
	}
	if got, want := repairs[0].(map[string]any)["deleted"], single["deleted"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("k=1 deleted %v != /repair deleted %v", got, want)
	}

	// k=8: multiple distinct repairs, certain ⊆ possible, complete space.
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/repairs", `{"k": 8}`)
	if status != http.StatusOK {
		t.Fatalf("repairs k=8: %d %v", status, body)
	}
	repairs = body["repairs"].([]any)
	if len(repairs) < 2 {
		t.Fatalf("k=8 returned %d repairs, want several", len(repairs))
	}
	if body["optimal"] != true {
		t.Fatalf("default budget not optimal: %v", body)
	}
	seen := map[string]bool{}
	for _, r := range repairs {
		k := fmt.Sprint(r.(map[string]any)["deleted"])
		if seen[k] {
			t.Fatalf("duplicate repair %s", k)
		}
		seen[k] = true
	}
	if len(body["certain_deleted"].([]any)) > len(body["possibly_deleted"].([]any)) {
		t.Fatalf("more certain than possible deletions: %v", body)
	}

	// Cardinality mode: every repair ties at the minimum cost.
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/repairs", `{"k": 8, "minimal": "cardinality"}`)
	if status != http.StatusOK {
		t.Fatalf("repairs cardinality: %d %v", status, body)
	}
	if body["minimal"] != "cardinality" || body["complete"] != true {
		t.Fatalf("cardinality response: %v", body)
	}
	var minCost any
	for i, r := range body["repairs"].([]any) {
		cost := r.(map[string]any)["cost"]
		if i == 0 {
			minCost = cost
		} else if cost != minCost {
			t.Fatalf("cardinality repair %d cost %v, want tie at %v", i, cost, minCost)
		}
	}

	// Unknown minimality is a 400.
	if status, _ := postJSON(t, client, ts.URL+"/v1/sessions/papers/repairs", `{"minimal": "subset"}`); status != http.StatusBadRequest {
		t.Fatalf("bad minimal: status %d, want 400", status)
	}
}

func TestHTTPQueryEndpoint(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}

	status, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/query",
		`{"query": "Q(g, n) :- Grant(g, n).", "k": 8}`)
	if status != http.StatusOK {
		t.Fatalf("query: %d %v", status, body)
	}
	certain := body["certain"].([]any)
	possible := body["possible"].([]any)
	if len(certain) != 1 || len(possible) != 1 {
		t.Fatalf("Grant query: certain %v possible %v, want one row each", certain, possible)
	}
	if got := certain[0].([]any); got[1] != "NSF" {
		t.Fatalf("certain row %v, want [1 NSF]", got)
	}
	// The running example holds more than 8 set-minimal repairs, so the
	// k=8 space is optimal (every solve proved its rank) but not complete.
	if body["columns"].(float64) != 2 || body["optimal"] != true || body["repairs"].(float64) != 8 {
		t.Fatalf("query metadata: %v", body)
	}

	// Missing and malformed queries are 400s.
	if status, _ := postJSON(t, client, ts.URL+"/v1/sessions/papers/query", `{}`); status != http.StatusBadRequest {
		t.Fatalf("missing query: status %d, want 400", status)
	}
	if status, _ := postJSON(t, client, ts.URL+"/v1/sessions/papers/query",
		`{"query": "Q(g :- Grant(g, n)."}`); status != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400", status)
	}
	// Unknown session is a 404.
	if status, _ := postJSON(t, client, ts.URL+"/v1/sessions/none/query",
		`{"query": "Q(g, n) :- Grant(g, n)."}`); status != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", status)
	}
}

// TestHTTPOptimalitySurfacing: a truncated solver budget must surface
// optimal:false in the JSON of both the single-repair and the
// enumeration endpoints — a best-effort repair silently presented as
// optimal is the bug this guards against.
func TestHTTPOptimalitySurfacing(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}

	status, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/repair",
		`{"semantics": "independent", "solver_max_nodes": 1}`)
	if status != http.StatusOK {
		t.Fatalf("repair: %d %v", status, body)
	}
	if body["optimal"] != false {
		t.Fatalf("/repair with 1-node budget: optimal = %v, want false", body["optimal"])
	}

	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/repairs",
		`{"k": 4, "solver_max_nodes": 1}`)
	if status != http.StatusOK {
		t.Fatalf("repairs: %d %v", status, body)
	}
	if body["optimal"] != false || body["complete"] != false {
		t.Fatalf("/repairs with 1-node budget: optimal=%v complete=%v, want false/false", body["optimal"], body["complete"])
	}
	repairs := body["repairs"].([]any)
	if last := repairs[len(repairs)-1].(map[string]any); last["optimal"] != false {
		t.Fatalf("last truncated repair marked optimal: %v", last)
	}

	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/query",
		`{"query": "Q(g, n) :- Grant(g, n).", "k": 4, "solver_max_nodes": 1}`)
	if status != http.StatusOK {
		t.Fatalf("query: %d %v", status, body)
	}
	if body["optimal"] != false {
		t.Fatalf("/query with 1-node budget: optimal = %v, want false", body["optimal"])
	}
}
