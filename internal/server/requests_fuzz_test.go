package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// fuzzEndpoints are the session endpoints FuzzRequestBodies posts to.
var fuzzEndpoints = [...]string{"repair", "query", "is-stable", "repairs", "update", "repair-all", "delete-view-tuple"}

// FuzzRequestBodies posts fuzzed bodies to /repair, /query, /is-stable,
// /repairs, /update, /repair-all and /delete-view-tuple of a fresh
// running-example session. Nothing may
// panic, the status must be one a client can act on (200, 400, 404, 409,
// 413, or 504 when the body's own timeout_ms expired), and a 200 /repair
// or /query repeated must give the same body — the repeat is answered
// from the session's artefact store — with elapsed_us zeroed.
func FuzzRequestBodies(f *testing.F) {
	// Shaped like the socket benchmark's requests, over the running
	// example's schema.
	seeds := []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"semantics":"end","version":1}`},
		{0, `{"semantics":"independent"}`},
		{0, `{"semantics":"step","solver_max_nodes":1,"version":1}`},
		{0, `{"semantics":"stage","timeout_ms":500}`},
		{1, `{"query":"Q(a, p) :- Writes(a, p), Author(a, n).","k":4,"version":1}`},
		{1, `{"query":"Q(p) :- Pub(p, t).","minimal":"cardinality","k":2}`},
		{2, `{"version":1}`},
		{2, `{}`},
		{3, `{"k":8,"version":1}`},
		{3, `{"k":2,"minimal":"set","solver_max_nodes":3}`},
		{4, `{"inserts":{"Pub":[[11,"z"]],"Writes":[[5,11]]}}`},
		{4, `{"deletes":{"Author":[[5,"Homer"]]}}`},
		{4, `{"inserts":{"Cite":[[6,7]]},"deletes":{"Cite":[[7,6]]}}`},
		{5, `{"version":1}`},
		{5, `{"solver_max_nodes":2,"timeout_ms":500}`},
		{6, `{"view":"V(a, p) :- Author(a, n), Writes(a, p).","values":[4,6]}`},
		{6, `{"view":"V(p) :- Pub(p, t).","values":[6],"solver_max_nodes":1,"version":1}`},
		{6, `{"view":"V(a :- Author(a).","values":[1]}`},
		{0, `{"semantics":`},
		{1, `[]`},
		{3, ``},
	}
	for _, s := range seeds {
		f.Add(s.endpoint, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		svc := openService(t, Config{MaxBodyBytes: 4 << 10})
		register(t, svc, "papers")
		h := svc.Handler()
		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		path := "/v1/sessions/papers/" + ep
		code, out := post(h, path, string(body))
		switch code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
		default:
			t.Fatalf("/%s %q: status %d %s", ep, body, code, out)
		}
		if !json.Valid([]byte(out)) {
			t.Fatalf("/%s %q: body is not JSON: %q", ep, body, out)
		}
		if code == http.StatusOK && (ep == "repair" || ep == "query") {
			code2, again := post(h, path, string(body))
			if code2 != http.StatusOK {
				t.Fatalf("/%s %q repeated: status %d %s", ep, body, code2, again)
			}
			if ep == "repair" {
				out, again = zeroElapsed(t, []byte(out)), zeroElapsed(t, []byte(again))
			}
			if again != out {
				t.Fatalf("/%s %q repeated gave another body:\n%s\n%s", ep, body, out, again)
			}
		}
		if n := metricValue(t, svc, "deltarepaird_panics_total"); n != 0 {
			t.Fatalf("/%s %q: %d panics", ep, body, n)
		}
	})
}
