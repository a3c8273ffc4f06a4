package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// HTTP-level coverage of mutable sessions: the update endpoint, version
// pinning across the endpoint matrix, every mapped status code, and a
// concurrency hammer interleaving HTTP updates with repairs.

func TestHTTPUpdateEndToEnd(t *testing.T) {
	svc := openService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if status, body := postJSON(t, client, ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}

	// Baseline stage repair at version 1.
	status, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/repair", `{"semantics": "stage"}`)
	if status != http.StatusOK {
		t.Fatalf("repair: %d %v", status, body)
	}
	if body["version"].(float64) != 1 {
		t.Fatalf("initial repair version %v, want 1", body["version"])
	}
	baseSize := int(body["size"].(float64))

	// Update: drop the AuthGrant edge that dooms Marge, insert an
	// unrelated pub. Updates take no deadline; a client still sending
	// timeout_ms is accepted, the field ignored.
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/update",
		`{"deletes": {"AuthGrant": [[4, 2]]}, "inserts": {"Pub": [[50, "new"]]}, "timeout_ms": 1}`)
	if status != http.StatusOK {
		t.Fatalf("update: %d %v", status, body)
	}
	if body["version"].(float64) != 2 || body["inserted"].(float64) != 1 || body["deleted"].(float64) != 1 {
		t.Fatalf("update response %v", body)
	}
	changed := fmt.Sprintf("%v", body["changed_relations"])
	if changed != "[AuthGrant Pub]" {
		t.Fatalf("changed_relations %s", changed)
	}

	// Head repair sees the new data and reports version 2.
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/repair", `{"semantics": "stage"}`)
	if status != http.StatusOK || body["version"].(float64) != 2 {
		t.Fatalf("head repair after update: %d %v", status, body)
	}
	if int(body["size"].(float64)) >= baseSize {
		t.Fatalf("dropping a cascade root should shrink the repair (%v vs %d)", body["size"], baseSize)
	}

	// Read-your-writes: pinning version 1 reproduces the original size.
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/repair", `{"semantics": "stage", "version": 1}`)
	if status != http.StatusOK || body["version"].(float64) != 1 || int(body["size"].(float64)) != baseSize {
		t.Fatalf("pinned repair: %d %v", status, body)
	}

	// Version pinning flows through the whole matrix.
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/repair-all", `{"version": 1}`)
	if status != http.StatusOK || body["version"].(float64) != 1 {
		t.Fatalf("pinned repair-all: %d %v", status, body)
	}
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/is-stable", `{"version": 2}`)
	if status != http.StatusOK || body["version"].(float64) != 2 || body["stable"] != false {
		t.Fatalf("pinned is-stable: %d %v", status, body)
	}
	status, body = postJSON(t, client, ts.URL+"/v1/sessions/papers/delete-view-tuple",
		`{"view": "V(a, p) :- Author(a, n), Writes(a, p).", "values": [4, 6], "version": 1}`)
	if status != http.StatusOK {
		t.Fatalf("pinned delete-view-tuple: %d %v", status, body)
	}

	// Session listing surfaces the version state.
	resp, err := client.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var infos []SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Version != 2 || infos[0].RetainedVersions != 2 || infos[0].Updates != 1 {
		t.Fatalf("session listing: %+v", infos)
	}
}

// TestHTTPStatusCodeMatrix exercises every status the API maps: 400,
// 404, 409 (duplicate, schema mismatch, evicted version), 499, 504.
func TestHTTPStatusCodeMatrix(t *testing.T) {
	svc := openService(t, Config{MaxVersions: 1}) // head-only retention: updates evict instantly
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}
	// Mint version 2; with MaxVersions=1 version 1 is immediately gone.
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/update",
		`{"inserts": {"Pub": [[51, "x"]]}}`); status != http.StatusOK {
		t.Fatalf("update: %d %v", status, body)
	}

	cases := []struct {
		name, url, body string
		wantStatus      int
	}{
		{"400 bad update json", "/v1/sessions/papers/update", `{"inserts": `, http.StatusBadRequest},
		{"400 bad update value", "/v1/sessions/papers/update", `{"inserts": {"Pub": [[true, "x"]]}}`, http.StatusBadRequest},
		{"400 future version", "/v1/sessions/papers/repair", `{"semantics": "end", "version": 99}`, http.StatusBadRequest},
		{"404 unknown session update", "/v1/sessions/none/update", `{}`, http.StatusNotFound},
		{"409 duplicate register", "/v1/sessions", registerBody, http.StatusConflict},
		{"409 unknown relation", "/v1/sessions/papers/update", `{"inserts": {"Nope": [[1]]}}`, http.StatusConflict},
		{"409 arity mismatch", "/v1/sessions/papers/update", `{"deletes": {"Author": [[1]]}}`, http.StatusConflict},
		{"409 evicted version", "/v1/sessions/papers/repair", `{"semantics": "end", "version": 1}`, http.StatusConflict},
	}
	for _, tc := range cases {
		status, body := postJSON(t, client, ts.URL+tc.url, tc.body)
		if status != tc.wantStatus {
			t.Errorf("%s: status %d (body %v), want %d", tc.name, status, body, tc.wantStatus)
		}
		if _, ok := body["error"]; !ok && status >= 400 {
			t.Errorf("%s: error body missing: %v", tc.name, body)
		}
	}

	// 499: a request whose client has already gone away. Drive the handler
	// directly with a pre-canceled request context and a recorder — the
	// status is written to the (dead) connection, which is the one place
	// it is observable.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/papers/repair",
		bytes.NewReader([]byte(`{"semantics": "stage"}`))).WithContext(canceled)
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("canceled client: status %d, want 499", rec.Code)
	}

	// 504: a deadline that passed before admission, driven directly like
	// the 499 case above — deterministic, no race against a real clock.
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	req = httptest.NewRequest(http.MethodPost, "/v1/sessions/papers/repair",
		bytes.NewReader([]byte(`{"semantics": "independent", "solver_max_nodes": 1}`))).WithContext(expired)
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("expired deadline: status %d, want 504", rec.Code)
	}
}

// TestHTTPUpdateRepairHammer hammers one session over HTTP: one writer
// posting updates, many readers repairing at head and pinned versions.
// Each response's version must be internally consistent with its size —
// proving fork isolation across versions end to end through the HTTP
// stack.
func TestHTTPUpdateRepairHammer(t *testing.T) {
	svc := openService(t, Config{MaxInFlight: 16, MaxVersions: 64})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	if status, body := postJSON(t, client, ts.URL+"/v1/sessions", registerBody); status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}
	// Baseline: version 1 stage repair size.
	_, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/repair", `{"semantics": "stage"}`)
	baseSize := int(body["size"].(float64))

	const updates = 12
	var wg sync.WaitGroup
	errCh := make(chan error, 64)

	// Writer: each update adds one pub written by Homer (aid 5), growing
	// the stage repair by exactly 2 (the pub + the writes edge) per
	// version: expected size at version v is baseSize + 2(v-1).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			upd := fmt.Sprintf(`{"inserts": {"Pub": [[%d, "extra"]], "Writes": [[5, %d]]}}`, 2000+i, 2000+i)
			status, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/update", upd)
			if status != http.StatusOK {
				errCh <- fmt.Errorf("update %d: %d %v", i, status, body)
				return
			}
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var seen []int
			for i := 0; i < 20; i++ {
				reqBody := `{"semantics": "stage"}`
				pinned := 0
				if len(seen) > 0 && i%3 == 0 {
					pinned = seen[i%len(seen)]
					reqBody = fmt.Sprintf(`{"semantics": "stage", "version": %d}`, pinned)
				}
				status, body := postJSON(t, client, ts.URL+"/v1/sessions/papers/repair", reqBody)
				if status != http.StatusOK {
					errCh <- fmt.Errorf("reader %d: %d %v", w, status, body)
					return
				}
				v := int(body["version"].(float64))
				if pinned != 0 && v != pinned {
					errCh <- fmt.Errorf("reader %d: pinned %d executed %d", w, pinned, v)
					return
				}
				if got, want := int(body["size"].(float64)), baseSize+2*(v-1); got != want {
					errCh <- fmt.Errorf("reader %d: version %d size %d, want %d", w, v, got, want)
					return
				}
				seen = append(seen, v)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
